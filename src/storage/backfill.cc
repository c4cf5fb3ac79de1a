#include "storage/backfill.h"

#include <utility>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "client/client_filter.h"
#include "columnar/file_reader.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "common/timer.h"
#include "engine/vectorized_eval.h"
#include "json/chunk.h"

namespace ciao {

namespace {

/// Copies row `r` of `src` onto the end of each column of `dst`.
void AppendRow(columnar::RecordBatch* dst, const columnar::RecordBatch& src,
               size_t r) {
  for (size_t c = 0; c < src.num_columns(); ++c) {
    const columnar::ColumnVector& from = src.column(c);
    columnar::ColumnVector* to = dst->mutable_column(c);
    if (!from.IsValid(r)) {
      to->AppendNull();
      continue;
    }
    switch (from.type()) {
      case columnar::ColumnType::kInt64:
        to->AppendInt64(from.GetInt64(r));
        break;
      case columnar::ColumnType::kDouble:
        to->AppendDouble(from.GetDouble(r));
        break;
      case columnar::ColumnType::kBool:
        to->AppendBool(from.GetBool(r));
        break;
      case columnar::ColumnType::kString:
        to->AppendString(from.GetString(r));
        break;
    }
  }
}

/// Accumulates rows destined for one output row group and flushes them to
/// the writer when full, so rebuilds neither fragment (at most two
/// partitions per segment plus size-capped overflow groups) nor produce
/// unboundedly large groups.
class GroupAccumulator {
 public:
  /// Matches the ingest pipeline's default chunk granularity.
  static constexpr size_t kMaxRowsPerGroup = 4096;

  GroupAccumulator(const columnar::Schema& schema, size_t num_predicates)
      : schema_(schema),
        num_predicates_(num_predicates),
        batch_(schema),
        bits_(num_predicates) {}

  void Add(const columnar::RecordBatch& src, size_t row,
           const BitVectorSet& src_bits) {
    AppendRow(&batch_, src, row);
    for (size_t p = 0; p < num_predicates_; ++p) {
      bits_[p].push_back(src_bits.vector(p).Get(row));
    }
  }

  Status FlushIfFull(columnar::TableWriter* writer) {
    if (batch_.num_rows() < kMaxRowsPerGroup) return Status::OK();
    return Flush(writer);
  }

  Status Flush(columnar::TableWriter* writer) {
    const size_t rows = batch_.num_rows();
    if (rows == 0) return Status::OK();
    BitVectorSet annotations(num_predicates_, rows);
    for (size_t p = 0; p < num_predicates_; ++p) {
      BitVector* out = annotations.mutable_vector(p);
      for (size_t r = 0; r < rows; ++r) {
        if (bits_[p][r]) out->Set(r, true);
      }
      bits_[p].clear();
    }
    CIAO_RETURN_IF_ERROR(writer->AppendRowGroup(batch_, annotations));
    batch_ = columnar::RecordBatch(schema_);
    return Status::OK();
  }

 private:
  const columnar::Schema& schema_;
  size_t num_predicates_;
  columnar::RecordBatch batch_;
  /// bits_[p][r] = predicate p's bit for accumulated row r.
  std::vector<std::vector<bool>> bits_;
};

/// Rewrites one segment's annotations into the new id space. Returns the
/// replacement file bytes.
///
/// Rows are additionally *partitioned by relevance to the new epoch*:
/// rows matching >= 1 new predicate accumulate into "hot" groups, the
/// rest into all-zero "cold" groups. Row order within a segment carries
/// no semantics (COUNT(*) engine; per-row annotations and zone maps are
/// rewritten alongside), and the cold groups are exactly what the new
/// epoch's skipping scans drop without decoding a single column — which
/// is how a backfilled catalog matches a cold-reloaded one's scan cost
/// despite retaining rows the old epoch loaded. Because the partitions
/// re-coalesce across the segment's input groups (capped at
/// kMaxRowsPerGroup), repeated re-plans re-partition rather than
/// progressively fragmenting the layout.
Result<std::string> RebuildSegment(const ColumnarSegment& segment,
                                   const columnar::Schema& schema,
                                   const RegistryEvaluator& preds,
                                   BackfillStats* stats) {
  CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(segment));
  CIAO_ASSIGN_OR_RETURN(columnar::TableReader reader,
                        columnar::TableReader::OpenBorrowed(pin.bytes));
  columnar::TableWriter writer(schema);
  GroupAccumulator hot(schema, preds.size());
  GroupAccumulator cold(schema, preds.size());
  for (size_t g = 0; g < reader.num_row_groups(); ++g) {
    CIAO_ASSIGN_OR_RETURN(columnar::RowGroupMeta meta, reader.ReadMeta(g));
    CIAO_ASSIGN_OR_RETURN(columnar::RecordBatch batch, reader.ReadBatch(g));
    CIAO_ASSIGN_OR_RETURN(const BitVectorSet annotations,
                          preds.Evaluate(batch, meta.num_rows));
    const BitVector any_match = annotations.UnionAll();
    for (size_t r = 0; r < meta.num_rows; ++r) {
      GroupAccumulator& target = any_match.Get(r) ? hot : cold;
      target.Add(batch, r, annotations);
      CIAO_RETURN_IF_ERROR(target.FlushIfFull(&writer));
    }
    ++stats->groups_rebuilt;
    stats->rows_reannotated += meta.num_rows;
  }
  CIAO_RETURN_IF_ERROR(hot.Flush(&writer));
  CIAO_RETURN_IF_ERROR(cold.Flush(&writer));
  return std::move(writer).Finish();
}

/// Promotes sideline records matching >= 1 registered predicate; rebuilds
/// the sideline from the rest.
Status PromoteMatchingSideline(TableCatalog* catalog,
                               const PredicateRegistry& registry,
                               uint64_t annotation_epoch,
                               BackfillStats* stats) {
  std::lock_guard<std::mutex> restructure(catalog->restructure_mu());
  const std::shared_ptr<const RawStore> raw = catalog->SnapshotRaw();
  if (raw->empty()) return Status::OK();

  json::JsonChunk chunk;
  chunk.Reserve(raw->size(), raw->byte_size() + raw->size());
  for (size_t i = 0; i < raw->size(); ++i) {
    chunk.AppendSerialized(raw->Record(i));
  }
  ClientFilter filter(&registry);
  PrefilterStats prefilter_stats;
  const BitVectorSet bits = filter.Evaluate(chunk, &prefilter_stats);
  BitVector load_mask = bits.UnionAll();
  if (load_mask.CountOnes() == 0) {
    stats->raw_kept += raw->size();
    return Status::OK();
  }

  columnar::BatchBuilder builder(catalog->schema());
  RawStore kept;
  for (size_t i = 0; i < chunk.size(); ++i) {
    if (load_mask.Get(i)) {
      // Unparseable records cannot be promoted; they stay raw (and keep
      // being counted as parse errors by raw scans, as before).
      if (!builder.AppendSerialized(chunk.Record(i)).ok()) {
        load_mask.Set(i, false);
        kept.Append(chunk.Record(i));
      }
    } else {
      kept.Append(chunk.Record(i));
    }
  }
  const size_t promoted = builder.num_rows();
  std::string file_bytes;
  if (promoted > 0) {
    const columnar::RecordBatch batch = builder.Finish();
    CIAO_ASSIGN_OR_RETURN(BitVectorSet compacted, bits.CompactBy(load_mask));
    columnar::TableWriter writer(catalog->schema());
    CIAO_RETURN_IF_ERROR(writer.AppendRowGroup(batch, compacted));
    file_bytes = std::move(writer).Finish();
  }
  stats->raw_promoted += promoted;
  stats->raw_kept += kept.size();
  // Atomic publish: concurrent full scans see the promoted rows in
  // exactly one of {segment, sideline}.
  catalog->PublishPromotion(std::move(file_bytes), promoted, annotation_epoch,
                            std::move(kept));
  return Status::OK();
}

}  // namespace

Status BackfillEpochAnnotations(TableCatalog* catalog,
                                const PredicateRegistry& registry,
                                uint64_t annotation_epoch,
                                BackfillStats* stats) {
  ScopedTimer timer(&stats->seconds);
  if (registry.empty()) {
    // No pushed-down predicates: no skipping scans can be planned under
    // the new epoch, so stale annotations are never consulted and the
    // sideline stays valid for full scans.
    return Status::OK();
  }

  CIAO_ASSIGN_OR_RETURN(
      const RegistryEvaluator preds,
      RegistryEvaluator::Compile(registry, catalog->schema()));

  // Promote first: the promoted segment is born in the new id space, so
  // the segment sweep below has nothing to rewrite for it.
  CIAO_RETURN_IF_ERROR(
      PromoteMatchingSideline(catalog, registry, annotation_epoch, stats));

  for (const SegmentRef& segment : catalog->SnapshotSegments()) {
    if (segment->annotation_epoch == annotation_epoch) continue;
    CIAO_ASSIGN_OR_RETURN(
        std::string rebuilt,
        RebuildSegment(*segment, catalog->schema(), preds, stats));
    ColumnarSegment replacement;
    replacement.file_bytes = std::move(rebuilt);
    replacement.num_rows = segment->num_rows;
    replacement.annotation_epoch = annotation_epoch;
    // RebuildSegment evaluated the typed predicates on the loaded rows,
    // so the rewritten bits are exact, not a client-prefilter superset.
    replacement.annotations_exact = true;
    if (catalog->ReplaceSegment(segment, std::move(replacement))) {
      ++stats->segments_rebuilt;
    }
  }
  return Status::OK();
}

}  // namespace ciao
