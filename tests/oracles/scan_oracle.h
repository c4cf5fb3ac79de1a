#ifndef CIAO_TESTS_ORACLES_SCAN_ORACLE_H_
#define CIAO_TESTS_ORACLES_SCAN_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "predicate/predicate.h"
#include "storage/catalog.h"

namespace ciao {

/// What the executor must return for a query, computed the slow way.
struct OracleScanResult {
  uint64_t count = 0;
  /// Same order-independent checksums as QueryResult::projected_hashes.
  std::vector<uint64_t> projected_hashes;
};

/// Answers `query` over `catalog` with the test-only oracles: every row
/// group of every segment is fully decoded and every raw sideline record
/// is converted with DomBatchBuilder, then each row is checked with the
/// row-wise CompiledTypedQuery. No annotation bit, zone map, column
/// pruning or raw screen is consulted, so any plan the executor picks
/// must agree with this on both count and projection checksums.
Result<OracleScanResult> OracleScan(const TableCatalog& catalog,
                                    const Query& query);

}  // namespace ciao

#endif  // CIAO_TESTS_ORACLES_SCAN_ORACLE_H_
