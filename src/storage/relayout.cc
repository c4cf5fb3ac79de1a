#include "storage/relayout.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "columnar/clustered_writer.h"
#include "columnar/file_reader.h"
#include "common/timer.h"
#include "engine/vectorized_eval.h"

namespace ciao {

namespace {

/// Row groups sealed per output file. Re-layout coalesces many one-chunk
/// ingest segments; this keeps enough output files for the parallel
/// segment scan to fan out over while amortizing per-file framing.
constexpr size_t kGroupsPerFile = 8;

/// One decoded input row group held for the permutation.
struct SourceGroup {
  columnar::RecordBatch batch;
  BitVectorSet bits;
  SourceGroup(columnar::RecordBatch b, BitVectorSet v)
      : batch(std::move(b)), bits(std::move(v)) {}
};

/// One row's clustering key.
struct RowSlot {
  uint32_t group = 0;
  uint32_t row = 0;
  /// Hot-predicate match bits, hottest predicate most significant.
  uint64_t signature = 0;
  bool has_key = false;
  double key = 0.0;
};

/// The first numeric schema column a hot predicate constrains with a
/// zone-map-prunable kind — the column worth sorting equal-signature rows
/// by. -1 when no hot predicate constrains a numeric column.
int PickKeyColumn(const std::vector<HotPredicate>& hot,
                  const PredicateRegistry& registry,
                  const columnar::Schema& schema) {
  for (const HotPredicate& h : hot) {
    for (const RegisteredPredicate& p : registry.predicates()) {
      if (p.id != h.id) continue;
      for (const SimplePredicate& term : p.clause.terms) {
        if (term.kind != PredicateKind::kKeyValueMatch &&
            term.kind != PredicateKind::kRangeLess) {
          continue;
        }
        if (!term.operand.is_number()) continue;
        const int idx = schema.FieldIndex(term.field);
        if (idx < 0) continue;
        const columnar::ColumnType type =
            schema.field(static_cast<size_t>(idx)).type;
        if (type == columnar::ColumnType::kInt64 ||
            type == columnar::ColumnType::kDouble) {
          return idx;
        }
      }
    }
  }
  return -1;
}

}  // namespace

std::vector<HotPredicate> RankHotPredicates(const Workload& workload,
                                            const PredicateRegistry& registry,
                                            size_t max_predicates) {
  std::unordered_map<uint32_t, double> weight;
  for (const Query& query : workload.queries) {
    for (const Clause& clause : query.clauses) {
      const RegisteredPredicate* p = registry.Find(clause);
      if (p != nullptr) weight[p->id] += query.frequency;
    }
  }
  std::vector<HotPredicate> hot;
  hot.reserve(weight.size());
  for (const auto& [id, w] : weight) hot.push_back(HotPredicate{id, w});
  std::sort(hot.begin(), hot.end(),
            [](const HotPredicate& a, const HotPredicate& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.id < b.id;
            });
  if (hot.size() > max_predicates) hot.resize(max_predicates);
  return hot;
}

Status RelayoutSegments(TableCatalog* catalog,
                        const PredicateRegistry& registry,
                        const std::vector<HotPredicate>& hot,
                        uint64_t annotation_epoch,
                        const RelayoutOptions& options,
                        const columnar::ColumnGroupLayout* column_groups,
                        RelayoutStats* stats, bool* relaid) {
  *relaid = false;
  ScopedTimer timer(&stats->seconds);
  const bool grouping = column_groups != nullptr && !column_groups->empty();
  // Without hot predicates the row permutation is the identity, which is
  // only worth a rewrite when a vertical layout is being applied.
  if ((hot.empty() || registry.empty()) && !grouping) return Status::OK();

  // Only segments already annotated for this epoch participate: their
  // bits index the registry being re-evaluated. Anything stale is
  // mid-backfill and will be rebuilt in the new id space anyway.
  std::vector<SegmentRef> inputs;
  for (SegmentRef& ref : catalog->SnapshotSegments()) {
    if (ref->annotation_epoch == annotation_epoch && ref->num_rows > 0) {
      inputs.push_back(std::move(ref));
    }
  }
  if (inputs.empty()) return Status::OK();

  const columnar::Schema& catalog_schema = catalog->schema();
  // Ingest segments carry client-prefilter bits — a superset with false
  // positives — so the rewrite re-annotates from typed evaluation (the
  // same recompute backfill performs): the output bits are exact,
  // false-positive rows sink into the all-zero cold tail, and
  // fully-covered COUNT queries can be answered from the bits alone.
  CIAO_ASSIGN_OR_RETURN(const RegistryEvaluator preds,
                        RegistryEvaluator::Compile(registry, catalog_schema));

  // Decode every participating group once and re-annotate it with exact
  // typed evaluation; rows are then permuted across group and segment
  // boundaries.
  std::vector<SourceGroup> groups;
  std::vector<RowSlot> slots;
  uint64_t total_rows = 0;
  for (const SegmentRef& segment : inputs) {
    // Disk-resident inputs are pinned through the mapping cache (CRC
    // verified at map time); the rewritten outputs spill back to disk in
    // ReplaceSegments' publish path.
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(*segment));
    CIAO_ASSIGN_OR_RETURN(
        columnar::TableReader reader,
        columnar::TableReader::OpenBorrowed(pin.bytes,
                                            columnar::ChecksumMode::kTrust));
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      CIAO_ASSIGN_OR_RETURN(columnar::RowGroupMeta meta, reader.ReadMeta(g));
      if (meta.annotations.num_predicates() != registry.size()) {
        return Status::Internal(
            "relayout: segment annotation slots do not match the epoch "
            "registry");
      }
      CIAO_ASSIGN_OR_RETURN(columnar::RecordBatch batch, reader.ReadBatch(g));
      CIAO_ASSIGN_OR_RETURN(BitVectorSet exact,
                            preds.Evaluate(batch, meta.num_rows));
      groups.emplace_back(std::move(batch), std::move(exact));
      total_rows += meta.num_rows;
    }
    ++stats->segments_read;
  }
  if (total_rows == 0) return Status::OK();

  const columnar::Schema& schema = catalog->schema();
  const int key_column = PickKeyColumn(hot, registry, schema);
  slots.reserve(total_rows);
  for (size_t g = 0; g < groups.size(); ++g) {
    const SourceGroup& group = groups[g];
    const size_t rows = group.batch.num_rows();
    for (size_t r = 0; r < rows; ++r) {
      RowSlot slot;
      slot.group = static_cast<uint32_t>(g);
      slot.row = static_cast<uint32_t>(r);
      for (size_t i = 0; i < hot.size(); ++i) {
        if (group.bits.vector(hot[i].id).Get(r)) {
          slot.signature |= uint64_t{1} << (hot.size() - 1 - i);
        }
      }
      if (key_column >= 0) {
        const columnar::ColumnVector& col =
            group.batch.column(static_cast<size_t>(key_column));
        if (col.IsValid(r)) {
          slot.has_key = true;
          slot.key = col.GetNumeric(r);
        }
      }
      slots.push_back(slot);
    }
  }

  // Descending signature clusters the hottest predicate's matches into
  // one contiguous prefix, the next-hottest into at most two runs, and so
  // on; all-cold rows sink to the tail. The numeric key then orders each
  // cluster so per-group min/max become tight. Stable, so the permutation
  // is deterministic.
  std::stable_sort(slots.begin(), slots.end(),
                   [](const RowSlot& a, const RowSlot& b) {
                     if (a.signature != b.signature) {
                       return a.signature > b.signature;
                     }
                     if (a.has_key != b.has_key) return a.has_key;  // nulls last
                     return a.key < b.key;
                   });

  const size_t rows_per_group = options.rows_per_group == 0
                                    ? kDefaultRelayoutRowsPerGroup
                                    : options.rows_per_group;
  columnar::ClusteredSegmentWriter writer(
      schema, registry.size(), rows_per_group, kGroupsPerFile,
      grouping ? *column_groups : columnar::ColumnGroupLayout{});
  for (const RowSlot& slot : slots) {
    const SourceGroup& group = groups[slot.group];
    CIAO_RETURN_IF_ERROR(writer.Append(group.batch, slot.row, group.bits));
  }
  CIAO_ASSIGN_OR_RETURN(std::vector<columnar::SealedFile> files,
                        std::move(writer).Finish());

  uint64_t groups_written = 0;
  std::vector<ColumnarSegment> replacements;
  replacements.reserve(files.size());
  for (columnar::SealedFile& file : files) {
    groups_written += file.num_groups;
    ColumnarSegment segment;
    segment.file_bytes = std::move(file.file_bytes);
    segment.num_rows = file.num_rows;
    segment.annotation_epoch = annotation_epoch;
    // Bits were recomputed above by exact typed evaluation.
    segment.annotations_exact = true;
    replacements.push_back(std::move(segment));
  }
  // All-or-nothing publish: false means a concurrent rewrite replaced an
  // input segment after our snapshot — its bytes are authoritative, ours
  // are stale, and dropping them costs only the work above.
  if (!catalog->ReplaceSegments(inputs, std::move(replacements))) {
    return Status::OK();
  }
  *relaid = true;
  stats->segments_written = files.size();
  stats->groups_written = groups_written;
  stats->rows_moved = total_rows;
  if (grouping) stats->column_groups = column_groups->groups.size();
  return Status::OK();
}

}  // namespace ciao
