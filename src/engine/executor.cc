#include "engine/executor.h"

#include <atomic>
#include <functional>
#include <thread>

#include "columnar/file_reader.h"
#include "columnar/json_converter.h"
#include "common/timer.h"
#include "engine/projection.h"
#include "engine/vectorized_eval.h"
#include "engine/zone_map_filter.h"
#include "predicate/pattern_compiler.h"
#include "storage/jit_loader.h"
#include "storage/segment_file.h"

namespace ciao {

namespace {

/// Rows per transient batch of the raw-sideline scan: bounds the scan's
/// memory at one batch however large the sideline grows. Matches the
/// ingest pipeline's default chunk granularity.
constexpr size_t kRawScanBatchRows = 4096;

/// The query compiled for verification: the vectorized predicate, the
/// projection, and `wanted`, the column-pruning mask both share.
struct GroupEvaluator {
  VectorizedQuery predicate;
  std::vector<bool> wanted;
  /// The query's projected columns (may be empty). `wanted` is the union
  /// of the predicate's referenced columns and these, so one projected
  /// read feeds both verification and checksum accumulation.
  ProjectionSpec projection;

  static Result<GroupEvaluator> Make(const Query& query,
                                     const columnar::Schema& schema) {
    CIAO_ASSIGN_OR_RETURN(VectorizedQuery predicate,
                          VectorizedQuery::Compile(query, schema));
    GroupEvaluator ev{std::move(predicate), {}, ProjectionSpec(query, schema)};
    ev.wanted = ev.predicate.ReferencedColumns(schema.num_fields());
    ev.projection.AddWantedColumns(&ev.wanted);
    return ev;
  }

  /// Verifies `batch` rows against the full typed predicate, restricted
  /// to `selection` when non-null, and returns the match count; when the
  /// query projects columns, also folds every matching row into `out`'s
  /// projected checksums. Stats are the caller's job (one add per batch,
  /// not per row).
  Result<uint64_t> CountAndProject(const columnar::RecordBatch& batch,
                                   uint64_t num_rows,
                                   const BitVector* selection,
                                   QueryResult* out) const {
    CIAO_ASSIGN_OR_RETURN(
        BitVector hits,
        predicate.Evaluate(batch, static_cast<size_t>(num_rows), selection));
    if (!projection.empty()) {
      projection.EnsureSize(&out->projected_hashes);
      for (const uint32_t r : hits.SetBits()) {
        projection.AccumulateRow(batch, r, &out->projected_hashes);
      }
    }
    return static_cast<uint64_t>(hits.CountOnes());
  }

  /// Folds every candidate row (selection, or all `num_rows` when null)
  /// into `out`'s projected checksums without re-evaluating the
  /// predicate — the exact-bits counting path, where the candidates ARE
  /// the matches.
  void ProjectCandidates(const columnar::RecordBatch& batch,
                         uint64_t num_rows, const BitVector* selection,
                         QueryResult* out) const {
    projection.EnsureSize(&out->projected_hashes);
    if (selection != nullptr) {
      for (const uint32_t r : selection->SetBits()) {
        projection.AccumulateRow(batch, r, &out->projected_hashes);
      }
    } else {
      for (size_t r = 0; r < num_rows; ++r) {
        projection.AccumulateRow(batch, r, &out->projected_hashes);
      }
    }
  }
};

/// Adds one projected read's decode volume into the scan counters.
void AddDecodeStats(const columnar::DecodeStats& d, ScanStats* stats) {
  stats->columns_decoded += d.columns_decoded;
  stats->bytes_decoded += d.bytes_decoded;
  stats->bytes_decode_waste += d.bytes_wasted;
}

/// Runs `scan_one` over every snapshotted segment, fanning out across
/// worker threads when requested. Partial counts/stats accumulate per
/// worker and merge commutatively, so any thread count yields identical
/// results. The refcounted snapshot keeps replaced segments alive for the
/// duration of the scan, so a concurrent backfill cannot pull bytes out
/// from under a worker.
Status ScanSegments(
    const std::vector<SegmentRef>& segments, size_t num_threads,
    const std::function<Status(const ColumnarSegment&, QueryResult*)>&
        scan_one,
    QueryResult* result) {
  const size_t total = segments.size();
  size_t threads = num_threads == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : num_threads;
  threads = std::min(threads, total);
  if (threads <= 1) {
    for (size_t s = 0; s < total; ++s) {
      CIAO_RETURN_IF_ERROR(scan_one(*segments[s], result));
    }
    return Status::OK();
  }

  std::atomic<size_t> next{0};
  std::vector<QueryResult> partials(threads);
  std::vector<Status> statuses(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (true) {
        const size_t s = next.fetch_add(1, std::memory_order_relaxed);
        if (s >= total) break;
        Status st = scan_one(*segments[s], &partials[t]);
        if (!st.ok()) {
          statuses[t] = std::move(st);
          break;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (size_t t = 0; t < threads; ++t) {
    CIAO_RETURN_IF_ERROR(statuses[t]);
    result->MergePartial(partials[t]);
  }
  return Status::OK();
}

/// Typed verify of every row of one group (zone maps already consulted):
/// the path for full scans and for groups whose annotations are stale.
Status ScanGroupAllRows(const columnar::TableReader& reader, size_t group,
                        uint64_t num_rows, const GroupEvaluator& eval,
                        QueryResult* out) {
  columnar::DecodeStats decode;
  CIAO_ASSIGN_OR_RETURN(
      columnar::RecordBatch batch,
      reader.ReadBatchProjected(group, eval.wanted, &decode));
  ++out->stats.groups_scanned;
  out->stats.rows_decoded += num_rows;
  out->stats.rows_evaluated += num_rows;  // one add per batch, not per row
  AddDecodeStats(decode, &out->stats);
  CIAO_ASSIGN_OR_RETURN(const uint64_t matched,
                        eval.CountAndProject(batch, num_rows, nullptr, out));
  out->count += matched;
  return Status::OK();
}

}  // namespace

Result<QueryResult> QueryExecutor::Execute(const Query& query) const {
  return Execute(query, EpochView{registry_, 0});
}

Result<QueryResult> QueryExecutor::Execute(const Query& query,
                                           const EpochView& view) const {
  const PredicateRegistry* registry =
      view.registry != nullptr ? view.registry : registry_;
  const PlanDecision decision = PlanQuery(query, *registry);
  if (decision.kind == PlanKind::kSkippingScan) {
    return ExecuteWithSkipping(query, decision.predicate_ids, view.epoch_id);
  }
  return ExecuteFullScan(query);
}

Result<QueryResult> QueryExecutor::ExecuteFullScan(const Query& query) const {
  Stopwatch watch;
  QueryResult result;
  result.plan = PlanKind::kFullScan;

  // One combined snapshot of segments + sideline: a concurrent promotion
  // moves records between the two, and a consistent cut is what keeps the
  // count exact (either view of the move counts each record once).
  const CatalogSnapshot snapshot = catalog_->Snapshot();

  CIAO_ASSIGN_OR_RETURN(
      GroupEvaluator eval,
      GroupEvaluator::Make(query, catalog_->schema()));
  eval.projection.EnsureSize(&result.projected_hashes);

  const auto scan_one = [&](const ColumnarSegment& segment,
                            QueryResult* out) -> Status {
    // kTrust: heap segments were written by the in-process TableWriter
    // and have lived in memory since; disk-resident segments were
    // CRC-verified once when their mmap was created (PinSegment), and
    // mappings are immutable. Re-hashing every group body per query
    // would dwarf the projected decode itself.
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(segment));
    if (pin.fresh_mapping) {
      ++out->stats.segments_mapped;
      out->stats.bytes_mapped += pin.bytes.size();
    }
    CIAO_ASSIGN_OR_RETURN(
        columnar::TableReader reader,
        columnar::TableReader::OpenBorrowed(pin.bytes,
                                            columnar::ChecksumMode::kTrust));
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      CIAO_ASSIGN_OR_RETURN(columnar::RowGroupMetaLite meta,
                            reader.ReadMetaLite(g));
      ++out->stats.groups_considered;
      if (options_.use_zone_maps &&
          !ZoneMapsMaySatisfy(query, catalog_->schema(), meta.zone_maps,
                              meta.num_rows)) {
        ++out->stats.groups_skipped_zonemap;
        out->stats.rows_skipped += meta.num_rows;
        continue;
      }
      CIAO_RETURN_IF_ERROR(
          ScanGroupAllRows(reader, g, meta.num_rows, eval, out));
    }
    return Status::OK();
  };
  CIAO_RETURN_IF_ERROR(ScanSegments(snapshot.segments,
                                    options_.num_scan_threads, scan_one,
                                    &result));

  // The raw sideline must be scanned too: records there were never
  // loaded, and without a pushed-down clause nothing proves they cannot
  // satisfy the query. With raw_prefilter the query's own clause patterns
  // rule records out *before* parsing (no false negatives, §IV-B); a
  // clause that cannot run on raw bytes simply does not screen. Survivors
  // go through the loader's tape path into bounded transient batches and
  // the same evaluator as the segments, so a record counts and hashes
  // exactly as it would once loaded.
  const std::shared_ptr<const RawStore>& raw = snapshot.raw;
  if (!raw->empty()) {
    const RawQueryScreen screen =
        options_.raw_prefilter ? RawQueryScreen(query) : RawQueryScreen();
    columnar::BatchBuilder builder(catalog_->schema());
    JitStats jit;
    uint64_t screened_out = 0;
    const auto flush = [&]() -> Status {
      const size_t rows = builder.num_rows();
      if (rows == 0) return Status::OK();
      const columnar::RecordBatch batch = builder.Finish();
      CIAO_ASSIGN_OR_RETURN(
          const uint64_t matched,
          eval.CountAndProject(batch, rows, nullptr, &result));
      result.count += matched;
      return Status::OK();
    };
    for (size_t i = 0; i < raw->size(); ++i) {
      const std::string_view record = raw->Record(i);
      if (!screen.MayMatch(record)) {
        ++screened_out;
        continue;
      }
      if (!builder.AppendSerialized(record).ok()) {
        ++jit.parse_errors;
        continue;
      }
      ++jit.records_parsed;
      if (builder.num_rows() == kRawScanBatchRows) {
        CIAO_RETURN_IF_ERROR(flush());
      }
    }
    CIAO_RETURN_IF_ERROR(flush());
    result.stats.raw_records_screened_out = screened_out;
    result.stats.raw_records_scanned = jit.records_parsed;
    result.stats.raw_parse_errors = jit.parse_errors;
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

Result<QueryResult> QueryExecutor::ExecuteWithSkipping(
    const Query& query, const std::vector<uint32_t>& predicate_ids,
    uint64_t epoch_id) const {
  Stopwatch watch;
  QueryResult result;
  result.plan = PlanKind::kSkippingScan;
  if (predicate_ids.empty()) {
    return Status::InvalidArgument(
        "ExecuteWithSkipping: no pushed-down predicate ids");
  }

  CIAO_ASSIGN_OR_RETURN(
      GroupEvaluator eval,
      GroupEvaluator::Make(query, catalog_->schema()));
  eval.projection.EnsureSize(&result.projected_hashes);

  // The exact-bits counting path needs no predicate column at all — with
  // a projection it decodes just the projected columns and hashes the
  // candidate rows. On a column-grouped layout this is the best case:
  // only the chunks holding projected columns are touched.
  const std::vector<bool> projected_only =
      eval.projection.WantedColumnsOnly(catalog_->schema().num_fields());

  // When every clause of the query was pushed down, the intersected
  // annotation bits decide the whole query — and if a segment's bits
  // additionally carry exact (typed-eval) provenance, the candidate
  // count IS the group's count: no column decode, no re-verification.
  // Backfilled and re-clustered segments qualify; ingest segments carry
  // client-prefilter superset bits and always re-verify.
  const bool full_cover = predicate_ids.size() == query.clauses.size();

  const auto scan_one = [&](const ColumnarSegment& segment,
                            QueryResult* out) -> Status {
    // Bits written under another epoch index a different predicate set:
    // ignore them and verify every row (sound; zone maps still apply).
    // Only happens in the adaptive transition window, before/while
    // backfill rewrites the segment for the new epoch.
    const bool annotations_fresh = segment.annotation_epoch == epoch_id;
    const bool count_from_bits =
        annotations_fresh && segment.annotations_exact && full_cover;
    // kTrust is sound for disk segments too: PinSegment CRC-verified the
    // bytes when the mapping was created (see ExecuteFullScan).
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(segment));
    if (pin.fresh_mapping) {
      ++out->stats.segments_mapped;
      out->stats.bytes_mapped += pin.bytes.size();
    }
    CIAO_ASSIGN_OR_RETURN(
        columnar::TableReader reader,
        columnar::TableReader::OpenBorrowed(pin.bytes,
                                            columnar::ChecksumMode::kTrust));
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      CIAO_ASSIGN_OR_RETURN(columnar::RowGroupMetaLite meta,
                            reader.ReadMetaLite(g));
      ++out->stats.groups_considered;
      if (!annotations_fresh) {
        ++out->stats.groups_stale_annotations;
        if (options_.use_zone_maps &&
            !ZoneMapsMaySatisfy(query, catalog_->schema(), meta.zone_maps,
                                meta.num_rows)) {
          ++out->stats.groups_skipped_zonemap;
          out->stats.rows_skipped += meta.num_rows;
          continue;
        }
        CIAO_RETURN_IF_ERROR(
            ScanGroupAllRows(reader, g, meta.num_rows, eval, out));
        continue;
      }
      // AND the bitvectors of the query's pushed-down clauses (§VI-B).
      // The header's match-density summary often answers without touching
      // bitvector words: a pushed predicate with zero matches rules the
      // whole group out, and all-full densities make every row a
      // candidate — the common cases once re-layout has clustered rows so
      // only cluster-boundary groups carry a mixed population.
      uint64_t candidates = 0;
      BitVector mask;
      const BitVector* selection = nullptr;
      bool density_decided = false;
      if (!meta.match_counts.empty()) {
        bool in_range = true;
        bool any_zero = false;
        bool all_full = true;
        for (const uint32_t id : predicate_ids) {
          if (id >= meta.match_counts.size()) {
            in_range = false;
            break;
          }
          if (meta.match_counts[id] == 0) any_zero = true;
          if (meta.match_counts[id] != meta.num_rows) all_full = false;
        }
        if (in_range && any_zero) {
          density_decided = true;  // candidates stays 0 → skip below
        } else if (in_range && all_full) {
          candidates = meta.num_rows;
          density_decided = true;  // selection stays null: full batch
        }
      }
      if (!density_decided) {
        CIAO_ASSIGN_OR_RETURN(mask,
                              meta.annotations.Intersect(predicate_ids));
        candidates = mask.CountOnes();
        // A saturated mask restricts nothing; dropping it lets the
        // vectorized kernels run full-batch instead of per-selection.
        if (candidates != meta.num_rows) selection = &mask;
      }
      if (candidates == 0) {
        // Whole group skipped; columns never decoded.
        ++out->stats.groups_skipped;
        out->stats.rows_skipped += meta.num_rows;
        continue;
      }
      if (count_from_bits) {
        // Exact bits + fully-pushed query: the candidates are the
        // matches. Zone maps can't contradict exact bits, so they are
        // not consulted either.
        ++out->stats.groups_counted_exact;
        out->stats.rows_skipped += meta.num_rows - candidates;
        out->count += candidates;
        if (!eval.projection.empty()) {
          columnar::DecodeStats decode;
          CIAO_ASSIGN_OR_RETURN(
              columnar::RecordBatch batch,
              reader.ReadBatchProjected(g, projected_only, &decode));
          out->stats.rows_decoded += meta.num_rows;
          AddDecodeStats(decode, &out->stats);
          eval.ProjectCandidates(batch, meta.num_rows, selection, out);
        }
        continue;
      }
      if (options_.use_zone_maps &&
          !ZoneMapsMaySatisfy(query, catalog_->schema(), meta.zone_maps,
                              meta.num_rows)) {
        ++out->stats.groups_skipped_zonemap;
        out->stats.rows_skipped += meta.num_rows;
        continue;
      }
      columnar::DecodeStats decode;
      CIAO_ASSIGN_OR_RETURN(
          columnar::RecordBatch batch,
          reader.ReadBatchProjected(g, eval.wanted, &decode));
      ++out->stats.groups_scanned;
      out->stats.rows_decoded += meta.num_rows;
      out->stats.rows_skipped += meta.num_rows - candidates;
      out->stats.rows_evaluated += candidates;
      AddDecodeStats(decode, &out->stats);
      // Verify candidates with the full typed predicate: bitvectors may
      // contain false positives and the query may have non-pushed clauses.
      // The candidate mask is the vectorized path's selection vector.
      CIAO_ASSIGN_OR_RETURN(
          const uint64_t matched,
          eval.CountAndProject(batch, meta.num_rows, selection, out));
      out->count += matched;
    }
    return Status::OK();
  };
  CIAO_RETURN_IF_ERROR(ScanSegments(catalog_->SnapshotSegments(),
                                    options_.num_scan_threads, scan_one,
                                    &result));
  // Raw sideline intentionally not scanned: every record satisfying a
  // pushed-down clause of this query was loaded (planner invariant —
  // upheld across re-plans because a new epoch installs only after
  // backfill promoted every sideline record matching one of its
  // predicates).
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ciao
