#include "storage/jit_loader.h"

#include "bitvec/bitvector_set.h"
#include "client/client_filter.h"
#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "common/timer.h"
#include "json/chunk.h"
#include "predicate/pattern_compiler.h"

namespace ciao {

namespace {

/// The one promotion routine: screens the sideline snapshot with
/// `screen`, parses the survivors into a columnar segment annotated with
/// `registry`'s predicates evaluated on the raw bytes (the client
/// filter's kernel: no false negatives, so the bits are trustworthy for
/// skipping under `annotation_epoch`), and atomically publishes the
/// segment together with the records left raw — those the screen ruled
/// out and those that failed to parse. The caller holds
/// restructure_mu().
Status Promote(TableCatalog* catalog, const RawQueryScreen& screen,
               const PredicateRegistry& registry, uint64_t annotation_epoch,
               JitStats* stats, QueryPromotionStats* promotion) {
  const std::shared_ptr<const RawStore> store = catalog->SnapshotRaw();
  if (store->empty()) return Status::OK();
  ScopedTimer timer(&stats->seconds);

  json::JsonChunk candidates;
  RawStore kept;
  for (size_t i = 0; i < store->size(); ++i) {
    const std::string_view record = store->Record(i);
    if (screen.MayMatch(record)) {
      candidates.AppendSerialized(record);
    } else {
      kept.Append(record);
      ++promotion->screened_out;
    }
  }

  BitVectorSet bits;
  if (registry.size() > 0 && !candidates.empty()) {
    ClientFilter filter(&registry);
    PrefilterStats prefilter_stats;
    bits = filter.Evaluate(candidates, &prefilter_stats);
  }

  columnar::BatchBuilder builder(catalog->schema());
  BitVector load_mask(candidates.size(), true);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (builder.AppendSerialized(candidates.Record(i)).ok()) {
      ++stats->records_parsed;
    } else {
      ++stats->parse_errors;
      ++promotion->parse_failures;
      load_mask.Set(i, false);
      kept.Append(candidates.Record(i));
    }
  }
  const size_t rows = builder.num_rows();
  std::string file_bytes;
  if (rows > 0) {
    const columnar::RecordBatch batch = builder.Finish();
    BitVectorSet annotations;
    if (registry.size() > 0) {
      CIAO_ASSIGN_OR_RETURN(annotations, bits.CompactBy(load_mask));
    }
    columnar::TableWriter writer(catalog->schema());
    CIAO_RETURN_IF_ERROR(writer.AppendRowGroup(batch, annotations));
    file_bytes = std::move(writer).Finish();
    promotion->promoted += rows;
  }
  // Atomic publish: a combined scan snapshot sees the promoted rows in
  // exactly one of {segment, sideline}, never neither.
  catalog->PublishPromotion(std::move(file_bytes), rows, annotation_epoch,
                            std::move(kept));
  return Status::OK();
}

}  // namespace

Status PromoteRawToColumnar(TableCatalog* catalog,
                            const PredicateRegistry& registry,
                            uint64_t annotation_epoch, JitStats* stats) {
  std::lock_guard<std::mutex> restructure(catalog->restructure_mu());
  QueryPromotionStats promotion;
  return Promote(catalog, RawQueryScreen(), registry, annotation_epoch, stats,
                 &promotion);
}

Status PromoteForQuery(TableCatalog* catalog, const Query& query,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, JitStats* stats,
                       QueryPromotionStats* promotion) {
  // Promotion is an optimization: when another thread is already
  // restructuring the sideline, skip instead of queueing behind it —
  // the query's full scan handles raw records either way.
  std::unique_lock<std::mutex> restructure(catalog->restructure_mu(),
                                           std::try_to_lock);
  if (!restructure.owns_lock()) return Status::OK();
  // Clauses that cannot run on raw bytes (e.g. ranges) simply do not
  // screen; with no screenable clause every record is a candidate
  // (degenerates to full promotion).
  return Promote(catalog, RawQueryScreen(query), registry, annotation_epoch,
                 stats, promotion);
}

}  // namespace ciao
