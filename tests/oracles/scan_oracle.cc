#include "oracles/scan_oracle.h"

#include "columnar/file_reader.h"
#include "engine/projection.h"
#include "oracles/dom_batch.h"
#include "oracles/typed_eval.h"
#include "storage/segment_file.h"

namespace ciao {

namespace {

void AccumulateMatches(const columnar::RecordBatch& batch,
                       const CompiledTypedQuery& predicate,
                       const ProjectionSpec& projection,
                       OracleScanResult* out) {
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    if (!predicate.Matches(batch, r)) continue;
    ++out->count;
    projection.AccumulateRow(batch, r, &out->projected_hashes);
  }
}

}  // namespace

Result<OracleScanResult> OracleScan(const TableCatalog& catalog,
                                    const Query& query) {
  CIAO_ASSIGN_OR_RETURN(const CompiledTypedQuery predicate,
                        CompiledTypedQuery::Compile(query, catalog.schema()));
  const ProjectionSpec projection(query, catalog.schema());
  OracleScanResult result;
  projection.EnsureSize(&result.projected_hashes);

  const CatalogSnapshot snapshot = catalog.Snapshot();
  for (const SegmentRef& segment : snapshot.segments) {
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(*segment));
    CIAO_ASSIGN_OR_RETURN(columnar::TableReader reader,
                          columnar::TableReader::OpenBorrowed(pin.bytes));
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      CIAO_ASSIGN_OR_RETURN(const columnar::RecordBatch batch,
                            reader.ReadBatch(g));
      AccumulateMatches(batch, predicate, projection, &result);
    }
  }

  DomBatchBuilder builder(catalog.schema());
  for (size_t i = 0; i < snapshot.raw->size(); ++i) {
    (void)builder.AppendSerialized(snapshot.raw->Record(i));
  }
  AccumulateMatches(builder.Finish(), predicate, projection, &result);
  return result;
}

}  // namespace ciao
