#include "oracle.h"

#include "json/parser.h"
#include "predicate/semantic_eval.h"

namespace ciao::perfbench {

std::vector<uint64_t> OracleCounts(
    const std::vector<std::string>& records, const std::vector<Query>& queries) {
  std::vector<uint64_t> counts(queries.size(), 0);
  // Record-major, so only one parsed document is alive at a time and the
  // oracle does not raise the process's peak memory.
  for (const std::string& record : records) {
    Result<json::Value> doc = json::Parse(record);
    if (!doc.ok()) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (EvaluateQuery(queries[q], *doc)) ++counts[q];
    }
  }
  return counts;
}

}  // namespace ciao::perfbench
