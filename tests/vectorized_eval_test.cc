// The vectorized batch-at-a-time evaluator (engine/vectorized_eval.h).
// Load-bearing assertions:
//
//  * on random schemas/batches — nulls, NaN/inf, empty strings,
//    dictionary and plain string columns, batch sizes 0/1/word-boundary±1
//    — every VectorizedQuery bit equals the row-wise CompiledTypedQuery
//    oracle, with and without a selection vector,
//  * the executor's counts AND projection checksums equal the test-only
//    scan oracle (oracles/scan_oracle.h: full decode, DOM-converted
//    sideline, row-wise typed evaluation) on full-scan, screened
//    full-scan, skipping, and stale-epoch paths,
//  * vectorized queries running concurrently with sideline promotions
//    stay exact (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/record_batch.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/vectorized_eval.h"
#include "json/parser.h"
#include "oracles/scan_oracle.h"
#include "oracles/typed_eval.h"
#include "predicate/semantic_eval.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

// ---------- Random batch machinery ----------

columnar::Schema FuzzSchema() {
  return columnar::Schema({{"i", columnar::ColumnType::kInt64},
                           {"d", columnar::ColumnType::kDouble},
                           {"b", columnar::ColumnType::kBool},
                           {"s", columnar::ColumnType::kString},
                           {"t", columnar::ColumnType::kString}});
}

// Low-cardinality pool for column "t" so the encode/decode round trip
// dictionary-encodes it (distinct*2 <= rows once rows >= 16).
const char* kTags[] = {"red", "green", "blue", ""};
const char* kWords[] = {"alpha", "beta", "gamma-ray", "delta",
                        "a longer string payload", ""};

/// Encode/decode round trip: the only way rows acquire a dictionary view,
/// exactly as segment scans see them after TableReader decodes a group.
columnar::ColumnVector RoundTrip(const columnar::ColumnVector& col) {
  std::string buf;
  columnar::EncodeColumn(col, &buf);
  size_t offset = 0;
  auto decoded = columnar::DecodeColumn(buf, &offset);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), col.size());
  // Not Equals(): the fuzz batches carry NaN doubles, which Equals
  // compares with `!=` and reports as a mismatch.
  return std::move(decoded).value();
}

columnar::RecordBatch BuildFuzzBatch(Rng& rng, size_t rows, double null_p) {
  const columnar::Schema schema = FuzzSchema();
  columnar::RecordBatch batch(schema);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      columnar::ColumnVector* col = batch.mutable_column(c);
      if (rng.NextDouble() < null_p) {
        col->AppendNull();
        continue;
      }
      switch (schema.field(c).type) {
        case columnar::ColumnType::kInt64:
          col->AppendInt64(rng.NextInt(-3, 6));
          break;
        case columnar::ColumnType::kDouble:
          switch (rng.NextBounded(6)) {
            case 0:
              col->AppendDouble(std::numeric_limits<double>::quiet_NaN());
              break;
            case 1:
              col->AppendDouble(std::numeric_limits<double>::infinity());
              break;
            default:
              col->AppendDouble(static_cast<double>(rng.NextInt(-4, 4)) * 0.75);
          }
          break;
        case columnar::ColumnType::kBool:
          col->AppendBool(rng.NextBounded(2) == 0);
          break;
        case columnar::ColumnType::kString:
          if (schema.field(c).name == "t") {
            col->AppendString(kTags[rng.NextBounded(std::size(kTags))]);
          } else {
            std::string v = kWords[rng.NextBounded(std::size(kWords))];
            if (rng.NextBounded(3) == 0) {
              v += "-" + std::to_string(rng.NextBounded(4));
            }
            col->AppendString(v);
          }
          break;
      }
    }
  }
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    *batch.mutable_column(c) = RoundTrip(batch.column(c));
  }
  return batch;
}

SimplePredicate RandomTerm(Rng& rng) {
  const columnar::Schema schema = FuzzSchema();
  const size_t c = rng.NextBounded(schema.num_fields());
  const std::string field = schema.field(c).name;
  // Operand pool spanning hits, misses, and deliberate type mismatches
  // (the oracle's constant-false cases must stay constant-false).
  auto random_operand = [&]() -> json::Value {
    switch (rng.NextBounded(7)) {
      case 0:
        return json::Value(static_cast<int64_t>(rng.NextInt(-3, 6)));
      case 1:
        return json::Value(static_cast<double>(rng.NextInt(-4, 4)) * 0.75);
      case 2:
        return json::Value(rng.NextBounded(2) == 0);
      case 3:
        return json::Value(kTags[rng.NextBounded(std::size(kTags))]);
      case 4:
        return json::Value(kWords[rng.NextBounded(std::size(kWords))]);
      case 5:
        return json::Value(std::numeric_limits<double>::quiet_NaN());
      default:
        return json::Value("zzz-matches-nothing");
    }
  };
  switch (rng.NextBounded(5)) {
    case 0:
      return SimplePredicate::Presence(field);
    case 1: {
      const json::Value op = random_operand();
      return SimplePredicate::Exact(
          field, op.is_string() ? op.as_string() : "not-there");
    }
    case 2: {
      // Substrings of real values exercise hits; random tokens, misses.
      static const char* needles[] = {"a",  "lph", "gamma", "-1", "ed",
                                      "zz", "",    "string payload"};
      return SimplePredicate::Substring(field,
                                        needles[rng.NextBounded(std::size(needles))]);
    }
    case 3:
      return SimplePredicate::KeyValue(field, random_operand());
    default:
      return SimplePredicate::RangeLess(field, random_operand());
  }
}

Query RandomQuery(Rng& rng) {
  Query q;
  const size_t n_clauses = 1 + rng.NextBounded(3);
  for (size_t i = 0; i < n_clauses; ++i) {
    Clause clause;
    const size_t n_terms = 1 + rng.NextBounded(3);
    for (size_t t = 0; t < n_terms; ++t) clause.terms.push_back(RandomTerm(rng));
    q.clauses.push_back(std::move(clause));
  }
  return q;
}

void ExpectMatchesOracle(const columnar::RecordBatch& batch, size_t rows,
                         const Query& q, Rng& rng) {
  const columnar::Schema schema = FuzzSchema();
  auto oracle = CompiledTypedQuery::Compile(q, schema);
  auto vectorized = VectorizedQuery::Compile(q, schema);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(vectorized.ok()) << vectorized.status().ToString();

  auto full = vectorized->Evaluate(batch, rows);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->size(), rows);
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_EQ(full->Get(r), oracle->Matches(batch, r))
        << "row " << r << " of " << rows << " query " << q.ToSql();
  }

  // Same query through a random selection vector: result must be the
  // oracle restricted to the selection.
  BitVector selection(rows);
  for (size_t r = 0; r < rows; ++r) selection.Set(r, rng.NextBounded(3) != 0);
  auto selected = vectorized->Evaluate(batch, rows, &selection);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_EQ(selected->Get(r), selection.Get(r) && oracle->Matches(batch, r))
        << "selected row " << r << " query " << q.ToSql();
  }
}

// ---------- Differential fuzz vs the row-wise oracle ----------

TEST(VectorizedEvalTest, RandomBatchesAgreeWithRowwiseOracle) {
  Rng rng(271828);
  // Word-boundary sizes on both sides of 64, plus empty and multi-word.
  for (const size_t rows : {0u, 1u, 63u, 64u, 65u, 129u, 1000u}) {
    for (const double null_p : {0.0, 0.25}) {
      const columnar::RecordBatch batch = BuildFuzzBatch(rng, rows, null_p);
      for (int iter = 0; iter < 25; ++iter) {
        ExpectMatchesOracle(batch, rows, RandomQuery(rng), rng);
      }
    }
  }
}

TEST(VectorizedEvalTest, AllMatchAndNoneMatch) {
  Rng rng(7);
  const size_t rows = 192;
  const columnar::RecordBatch batch = BuildFuzzBatch(rng, rows, /*null_p=*/0.0);

  Query all;  // every row valid -> presence matches everything
  all.clauses.push_back(Clause::Of(SimplePredicate::Presence("i")));
  auto vq = VectorizedQuery::Compile(all, FuzzSchema());
  ASSERT_TRUE(vq.ok());
  auto mask = vq->Evaluate(batch, rows);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(mask->CountOnes(), rows);

  Query none;
  none.clauses.push_back(
      Clause::Of(SimplePredicate::Exact("s", "zzz-matches-nothing")));
  auto vn = VectorizedQuery::Compile(none, FuzzSchema());
  ASSERT_TRUE(vn.ok());
  auto none_mask = vn->Evaluate(batch, rows);
  ASSERT_TRUE(none_mask.ok());
  EXPECT_FALSE(none_mask->Any());
}

TEST(VectorizedEvalTest, DictionaryColumnsUseCodeCompare) {
  // 64 rows over 3 distinct tags round-trips to a dictionary column; the
  // equality kernel must agree with the oracle and an operand outside the
  // dictionary must match nothing.
  Rng rng(99);
  const columnar::RecordBatch batch = BuildFuzzBatch(rng, 64, /*null_p=*/0.1);
  ASSERT_TRUE(batch.column(4).has_dictionary())
      << "low-cardinality round trip should retain the dictionary view";

  for (const char* tag : {"red", "green", "blue", "", "not-in-dict"}) {
    Query q;
    q.clauses.push_back(Clause::Of(SimplePredicate::Exact("t", tag)));
    ExpectMatchesOracle(batch, 64, q, rng);
  }
  // Below the encoder's 16-row floor nothing dictionary-encodes, so the
  // same queries go through the len+memcmp kernel path.
  const columnar::RecordBatch plain = BuildFuzzBatch(rng, 12, /*null_p=*/0.1);
  EXPECT_FALSE(plain.column(4).has_dictionary());
  for (const char* tag : {"red", "blue", "not-in-dict"}) {
    Query q;
    q.clauses.push_back(Clause::Of(SimplePredicate::Exact("t", tag)));
    ExpectMatchesOracle(plain, 12, q, rng);
  }
}

TEST(VectorizedEvalTest, CompileAndEvaluateErrors) {
  Query q;
  q.clauses.push_back(Clause::Of(SimplePredicate::KeyValue("ghost", 1)));
  EXPECT_TRUE(
      VectorizedQuery::Compile(q, FuzzSchema()).status().IsInvalidArgument());

  Rng rng(3);
  const columnar::RecordBatch batch = BuildFuzzBatch(rng, 10, 0.0);
  Query ok_query;
  ok_query.clauses.push_back(Clause::Of(SimplePredicate::Presence("i")));
  auto vq = VectorizedQuery::Compile(ok_query, FuzzSchema());
  ASSERT_TRUE(vq.ok());
  BitVector wrong_size(4);
  EXPECT_TRUE(
      vq->Evaluate(batch, 10, &wrong_size).status().IsInvalidArgument());
}

// ---------- Executor vs the scan oracle ----------

struct ExecutorFixture {
  workload::Dataset ds;
  std::vector<json::Value> parsed;
  PredicateRegistry registry;
  TableCatalog catalog;
  std::vector<Clause> pushed;

  explicit ExecutorFixture(size_t n = 500, bool partial = true)
      : ds(workload::GenerateWinLog({n, 77})), catalog(ds.schema) {
    for (const std::string& r : ds.records) {
      parsed.push_back(*json::Parse(r));
    }
    pushed = workload::MicroTierPredicates(0.35);
    pushed.resize(2);
    for (const Clause& c : pushed) {
      EXPECT_TRUE(registry.Register(c, 0.35, 1.0).ok());
    }
    PartialLoader loader(ds.schema, registry.size());
    LoadStats stats;
    const size_t chunk_size = 150;  // multiple groups, uneven tail
    for (size_t start = 0; start < ds.records.size(); start += chunk_size) {
      json::JsonChunk chunk;
      const size_t end = std::min(ds.records.size(), start + chunk_size);
      for (size_t i = start; i < end; ++i) {
        chunk.AppendSerialized(ds.records[i]);
      }
      BitVectorSet annotations(registry.size(), chunk.size());
      for (size_t p = 0; p < registry.size(); ++p) {
        const auto& program = registry.Get(static_cast<uint32_t>(p)).program;
        for (size_t r = 0; r < chunk.size(); ++r) {
          if (program.Matches(chunk.Record(r))) {
            annotations.mutable_vector(p)->Set(r, true);
          }
        }
      }
      EXPECT_TRUE(
          loader.IngestChunk(chunk, annotations, partial, &catalog, &stats)
              .ok());
    }
  }

  uint64_t BruteForceCount(const Query& q) const {
    uint64_t count = 0;
    for (const json::Value& v : parsed) {
      if (EvaluateQuery(q, v)) ++count;
    }
    return count;
  }
};

/// Expects `result` to carry the oracle's count and projection checksums.
void ExpectMatchesScanOracle(const TableCatalog& catalog, const Query& q,
                             const Result<QueryResult>& result,
                             const std::string& label) {
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  auto oracle = OracleScan(catalog, q);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(result->count, oracle->count) << label << " " << q.ToSql();
  EXPECT_EQ(result->projected_hashes, oracle->projected_hashes)
      << label << " " << q.ToSql();
}

TEST(VectorizedExecutorTest, AllPlanShapesMatchOracle) {
  ExecutorFixture fx(500, /*partial=*/true);
  ASSERT_GT(fx.catalog.raw_rows(), 0u) << "full scans must cover the sideline";
  QueryExecutor executor(&fx.catalog, &fx.registry);
  ExecutorOptions screened_opt;
  screened_opt.raw_prefilter = true;
  QueryExecutor screened(&fx.catalog, &fx.registry, screened_opt);

  const auto pool =
      workload::TemplatesFor(workload::DatasetKind::kWinLog).AllCandidates();
  const auto other = workload::MicroTierPredicates(0.15);
  const std::vector<std::string> cols = {"time", "level", "source", "info"};
  Rng rng(4242);

  std::vector<Query> queries;
  for (int i = 0; i < 15; ++i) {
    Query q;
    q.clauses.push_back(pool[rng.NextBounded(pool.size())]);
    if (rng.NextBool()) q.clauses.push_back(pool[rng.NextBounded(pool.size())]);
    queries.push_back(std::move(q));
  }
  {
    Query q;  // skipping-eligible: pushed AND non-pushed clause
    q.clauses = {fx.pushed[0], other[0]};
    queries.push_back(q);
    Query q2;
    q2.clauses = {fx.pushed[0], fx.pushed[1]};
    queries.push_back(q2);
  }
  for (Query& q : queries) {
    for (const std::string& c : cols) {
      if (rng.NextBool(0.4)) q.projected.push_back(c);
    }
  }

  for (const Query& q : queries) {
    auto planned = executor.Execute(q);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ExpectMatchesScanOracle(fx.catalog, q, planned, "planned");
    EXPECT_EQ(planned->count, fx.BruteForceCount(q)) << q.ToSql();
    ExpectMatchesScanOracle(fx.catalog, q, executor.ExecuteFullScan(q),
                            "full scan");
    ExpectMatchesScanOracle(fx.catalog, q, screened.ExecuteFullScan(q),
                            "screened full scan");
  }
}

TEST(VectorizedExecutorTest, StaleEpochVerifyPathMatchesOracle) {
  // Annotations are written under epoch 0; querying epoch 1 forces the
  // full typed verify of every group — the stale-segment path must use
  // the vectorized evaluator too and still be exact.
  ExecutorFixture fx(400, /*partial=*/false);
  QueryExecutor executor(&fx.catalog, &fx.registry);

  Query q;
  q.clauses = {fx.pushed[0]};
  q.projected = {"level", "source"};
  auto stale = executor.ExecuteWithSkipping(q, {0}, /*epoch_id=*/1);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ExpectMatchesScanOracle(fx.catalog, q, stale, "stale epoch");
  EXPECT_GT(stale->stats.groups_stale_annotations, 0u);
  EXPECT_EQ(stale->count, fx.BruteForceCount(q));
  ExpectMatchesScanOracle(fx.catalog, q,
                          executor.ExecuteWithSkipping(q, {0}, 0),
                          "fresh epoch");
}

// ---------- Concurrency: vectorized queries vs promotions (TSan) ----------

TEST(VectorizedEvalConcurrencyTest, QueriesDuringPromotionStayExact) {
  // Partial loading sidelines non-matching records; promotion then moves
  // them into columnar segments while query threads hammer both plan
  // shapes with the vectorized evaluator. Every count must be exact
  // before, during, and after the move (the combined snapshot property).
  ExecutorFixture fx(600, /*partial=*/true);
  ASSERT_GT(fx.catalog.raw_rows(), 0u);
  QueryExecutor executor(&fx.catalog, &fx.registry);  // vectorized default

  const auto other = workload::MicroTierPredicates(0.15);
  std::vector<Query> queries;
  {
    Query full;  // full scan: touches segments + sideline
    full.clauses = {other[1]};
    queries.push_back(full);
    Query skipping;
    skipping.clauses = {fx.pushed[0]};
    queries.push_back(skipping);
    Query both;
    both.clauses = {fx.pushed[1], other[2]};
    queries.push_back(both);
  }
  std::vector<uint64_t> expected;
  for (const Query& q : queries) expected.push_back(fx.BruteForceCount(q));

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<int> wrong{0};
  std::atomic<int> failed{0};
  std::atomic<bool> promoted{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t qi = (static_cast<size_t>(t) + i) % queries.size();
        auto result = executor.Execute(queries[qi]);
        if (!result.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (result->count != expected[qi]) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    JitStats jit;
    Status st = PromoteRawToColumnar(&fx.catalog, fx.registry,
                                     /*annotation_epoch=*/0, &jit);
    EXPECT_TRUE(st.ok()) << st.ToString();
    promoted.store(true, std::memory_order_release);
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_TRUE(promoted.load());
  EXPECT_EQ(fx.catalog.raw_rows(), 0u);

  // Still exact after the sideline is gone.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = executor.Execute(queries[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected[i]);
  }
}

}  // namespace
}  // namespace ciao
