#ifndef CIAO_PERFBENCH_ORACLE_H_
#define CIAO_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "predicate/predicate.h"

namespace ciao::perfbench {

/// Reference COUNT(*) answers: every record parsed as a raw JSON document
/// and every query evaluated with the repository's ground-truth predicate
/// semantics, independent of the client filter, the loader and the engine.
/// Records that fail to parse match no query. One count per query, in
/// order. The only place the benchmark touches the raw-JSON evaluator.
std::vector<uint64_t> OracleCounts(
    const std::vector<std::string>& records, const std::vector<Query>& queries);

}  // namespace ciao::perfbench

#endif  // CIAO_PERFBENCH_ORACLE_H_
