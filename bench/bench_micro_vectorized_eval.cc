// Kernel matrix for the vectorized batch-at-a-time evaluator: one
// benchmark pair (rowwise oracle vs vectorized kernel) per typed kernel
// family, all over the same 64k-row RecordBatch. The interesting number
// is the per-pair ratio — how much the SIMD/SWAR word kernels buy over
// the tuple-at-a-time CompiledTypedQuery loop for each column type —
// plus the selection-vector case showing late substring clauses touching
// only surviving rows.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_gbench_main.h"
#include "columnar/encoding.h"
#include "columnar/record_batch.h"
#include "common/random.h"
#include "engine/vectorized_eval.h"
#include "oracles/typed_eval.h"
#include "predicate/predicate.h"

namespace {

using namespace ciao;

constexpr size_t kRows = 65536;

columnar::Schema BenchSchema() {
  return columnar::Schema({{"i", columnar::ColumnType::kInt64},
                           {"d", columnar::ColumnType::kDouble},
                           {"b", columnar::ColumnType::kBool},
                           {"s", columnar::ColumnType::kString},
                           {"t", columnar::ColumnType::kString}});
}

struct BatchFixture {
  columnar::RecordBatch batch;

  BatchFixture() : batch(BenchSchema()) {
    Rng rng(12345);
    // "s" high-cardinality (stays plain), "t" 8 distinct tags (encode/
    // decode round trip installs the dictionary view, as segment scans
    // see it after TableReader decodes a group).
    const char* tags[] = {"tag-0", "tag-1", "tag-2", "tag-3",
                          "tag-4", "tag-5", "tag-6", "tag-7"};
    for (size_t r = 0; r < kRows; ++r) {
      batch.mutable_column(0)->AppendInt64(rng.NextInt(0, 1000));
      batch.mutable_column(1)->AppendDouble(rng.NextDouble() * 1000.0);
      batch.mutable_column(2)->AppendBool(rng.NextBool());
      batch.mutable_column(3)->AppendString("payload-" +
                                            std::to_string(rng.NextBounded(kRows)));
      batch.mutable_column(4)->AppendString(tags[rng.NextBounded(8)]);
    }
    for (size_t c = 0; c < batch.schema().num_fields(); ++c) {
      std::string buf;
      columnar::EncodeColumn(batch.column(c), &buf);
      size_t offset = 0;
      *batch.mutable_column(c) = std::move(columnar::DecodeColumn(buf, &offset)).value();
    }
  }
};

BatchFixture& Fixture() {
  static auto* fx = new BatchFixture();
  return *fx;
}

Query KernelQuery(const std::string& key) {
  Query q;
  if (key == "int64_eq") {
    q.clauses.push_back(Clause::Of(SimplePredicate::KeyValue("i", 500)));
  } else if (key == "int64_lt") {
    q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("i", 500)));
  } else if (key == "double_lt") {
    q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("d", 500.0)));
  } else if (key == "bool_eq") {
    q.clauses.push_back(Clause::Of(SimplePredicate::KeyValue("b", true)));
  } else if (key == "string_eq_plain") {
    q.clauses.push_back(Clause::Of(SimplePredicate::Exact("s", "payload-777")));
  } else if (key == "string_eq_dict") {
    q.clauses.push_back(Clause::Of(SimplePredicate::Exact("t", "tag-3")));
  } else if (key == "substring_selected") {
    // Dense int clause first, late substring clause second: the selection
    // vector restricts the SWAR substring search to ~half the rows.
    q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("i", 500)));
    q.clauses.push_back(Clause::Of(SimplePredicate::Substring("s", "-77")));
  } else if (key == "conjunction_3") {
    q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("i", 800)));
    q.clauses.push_back(Clause::Of(SimplePredicate::RangeLess("d", 800.0)));
    q.clauses.push_back(Clause::Of(SimplePredicate::KeyValue("b", true)));
  }
  return q;
}

void BM_Rowwise(benchmark::State& state, const std::string& key) {
  BatchFixture& fx = Fixture();
  auto compiled = CompiledTypedQuery::Compile(KernelQuery(key), BenchSchema());
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    uint64_t count = 0;
    for (size_t r = 0; r < kRows; ++r) {
      count += compiled->Matches(fx.batch, r) ? 1 : 0;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}

void BM_Vectorized(benchmark::State& state, const std::string& key) {
  BatchFixture& fx = Fixture();
  auto compiled = VectorizedQuery::Compile(KernelQuery(key), BenchSchema());
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto mask = compiled->Evaluate(fx.batch, kRows);
    benchmark::DoNotOptimize(mask->CountOnes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}

#define KERNEL_PAIR(key)                                      \
  BENCHMARK_CAPTURE(BM_Rowwise, key, #key);                   \
  BENCHMARK_CAPTURE(BM_Vectorized, key, #key)

KERNEL_PAIR(int64_eq);
KERNEL_PAIR(int64_lt);
KERNEL_PAIR(double_lt);
KERNEL_PAIR(bool_eq);
KERNEL_PAIR(string_eq_plain);
KERNEL_PAIR(string_eq_dict);
KERNEL_PAIR(substring_selected);
KERNEL_PAIR(conjunction_3);

#undef KERNEL_PAIR

}  // namespace

CIAO_BENCH_JSON_MAIN("bench_micro_vectorized_eval")
