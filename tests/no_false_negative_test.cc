// The load-bearing correctness property of client-assisted loading
// (paper §IV-B): the string-matching prefilter may report false
// positives, but NEVER false negatives — otherwise partial loading would
// silently drop records that queries need. This suite hammers that
// property across every dataset generator and every Table II predicate
// template, plus adversarial hand-built records.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "client/client_filter.h"
#include "common/random.h"
#include "core/system.h"
#include "costmodel/cost_model.h"
#include "engine/executor.h"
#include "json/chunk.h"
#include "json/parser.h"
#include "json/writer.h"
#include "predicate/pattern_compiler.h"
#include "predicate/registry.h"
#include "predicate/semantic_eval.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "workload/dataset.h"
#include "workload/templates.h"

namespace ciao {
namespace {

class NoFalseNegativeTest
    : public ::testing::TestWithParam<workload::DatasetKind> {};

TEST_P(NoFalseNegativeTest, AllTemplatePredicatesOnGeneratedRecords) {
  workload::GeneratorOptions opt;
  opt.num_records = 500;
  opt.seed = 1234;
  const workload::Dataset ds = workload::GenerateDataset(GetParam(), opt);
  const auto pool = workload::TemplatesFor(GetParam()).AllCandidates();

  // Pre-parse records once.
  std::vector<json::Value> parsed;
  parsed.reserve(ds.records.size());
  for (const std::string& r : ds.records) {
    auto v = json::Parse(r);
    ASSERT_TRUE(v.ok());
    parsed.push_back(std::move(v).value());
  }

  size_t semantic_hits = 0;
  size_t raw_hits = 0;
  for (const Clause& clause : pool) {
    auto program = RawClauseProgram::Compile(clause);
    ASSERT_TRUE(program.ok()) << clause.ToSql();
    for (size_t i = 0; i < ds.records.size(); ++i) {
      const bool semantic = EvaluateClause(clause, parsed[i]);
      const bool raw = program->Matches(ds.records[i]);
      if (semantic) {
        ++semantic_hits;
        ASSERT_TRUE(raw) << "FALSE NEGATIVE: " << clause.ToSql() << " on "
                         << ds.records[i];
      }
      if (raw) ++raw_hits;
    }
  }
  // Sanity: the property is not vacuous, and false positives exist but
  // are bounded (the prefilter is useful).
  EXPECT_GT(semantic_hits, 0u);
  EXPECT_GE(raw_hits, semantic_hits);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, NoFalseNegativeTest,
    ::testing::Values(workload::DatasetKind::kYelp,
                      workload::DatasetKind::kWinLog,
                      workload::DatasetKind::kYcsb),
    [](const auto& info) {
      return std::string(workload::DatasetKindName(info.param));
    });

TEST(NoFalseNegativeTest, DisjunctiveClausesOnGeneratedRecords) {
  const workload::Dataset ds = workload::GenerateYelp({300, 77});
  const auto pool =
      workload::TemplatesFor(workload::DatasetKind::kYelp).AllCandidates();
  Rng rng(55);
  for (int iter = 0; iter < 30; ++iter) {
    // Random 2-3 term disjunction assembled from template terms.
    std::vector<SimplePredicate> terms;
    const size_t n_terms = 2 + rng.NextBounded(2);
    for (size_t t = 0; t < n_terms; ++t) {
      const Clause& c = pool[rng.NextBounded(pool.size())];
      terms.push_back(c.terms[0]);
    }
    const Clause clause = Clause::Or(terms);
    auto program = RawClauseProgram::Compile(clause);
    ASSERT_TRUE(program.ok());
    for (const std::string& record : ds.records) {
      auto parsed = json::Parse(record);
      if (EvaluateClause(clause, *parsed)) {
        ASSERT_TRUE(program->Matches(record))
            << clause.ToSql() << " on " << record;
      }
    }
  }
}

TEST(NoFalseNegativeTest, AdversarialRecords) {
  // Records engineered to stress the windowing and escaping logic.
  struct Case {
    SimplePredicate predicate;
    json::Object fields;
  };
  std::vector<Case> cases;
  // Key suffix collision: the key pattern also matches a longer key first.
  cases.push_back({SimplePredicate::KeyValue("score", 42),
                   {{"linear_score", json::Value(int64_t{777})},
                    {"score", json::Value(int64_t{42})}}});
  // Value that shares digits with an earlier field.
  cases.push_back({SimplePredicate::KeyValue("b", 10),
                   {{"a", json::Value(int64_t{10})},
                    {"b", json::Value(int64_t{10})}}});
  // String value containing a comma.
  cases.push_back({SimplePredicate::KeyValue("s", json::Value("x,y")),
                   {{"s", json::Value("x,y")},
                    {"t", json::Value(int64_t{0})}}});
  // Escaped characters in the matched value.
  cases.push_back({SimplePredicate::Exact("s", "a\"b\\c"),
                   {{"s", json::Value("a\"b\\c")}}});
  // Substring spanning escape sequences.
  cases.push_back({SimplePredicate::Substring("s", "x\ny"),
                   {{"s", json::Value("wx\nyz")}}});
  // Unicode operand.
  cases.push_back({SimplePredicate::Exact("s", "caf\xC3\xA9"),
                   {{"s", json::Value("caf\xC3\xA9")}}});
  // Last field in the record (no trailing comma for the window scan).
  cases.push_back({SimplePredicate::KeyValue("z", 9),
                   {{"a", json::Value(int64_t{1})},
                    {"z", json::Value(int64_t{9})}}});
  // Nested object field.
  {
    json::Value inner{json::Object{}};
    inner.Add("city", "paris");
    cases.push_back({SimplePredicate::Exact("addr.city", "paris"),
                     {{"addr", std::move(inner)}}});
  }

  for (const Case& c : cases) {
    json::Value record{json::Object(c.fields)};
    ASSERT_TRUE(EvaluateSimple(c.predicate, record))
        << c.predicate.ToSql() << " should hold semantically";
    auto program = RawPredicateProgram::Compile(c.predicate);
    ASSERT_TRUE(program.ok());
    const std::string serialized = json::Write(record);
    EXPECT_TRUE(program->Matches(serialized))
        << "FALSE NEGATIVE: " << c.predicate.ToSql() << " on " << serialized;
  }
}

TEST(NoFalseNegativeTest, RandomizedKeyValueFuzz) {
  // Random flat records with colliding key names and values; every
  // semantically-true key-value predicate must raw-match.
  Rng rng(0xF00D);
  const std::vector<std::string> keys = {"a",  "ab",  "ba", "aa",
                                         "b",  "a_b", "ab_a"};
  for (int iter = 0; iter < 500; ++iter) {
    json::Value record{json::Object{}};
    std::vector<std::string> used;
    for (const std::string& k : keys) {
      if (rng.NextBool(0.6)) {
        record.Add(k, rng.NextInt(0, 12));
        used.push_back(k);
      }
    }
    if (used.empty()) continue;
    const std::string serialized = json::Write(record);
    for (const std::string& k : used) {
      const int64_t v = rng.NextInt(0, 12);
      const SimplePredicate p = SimplePredicate::KeyValue(k, v);
      if (EvaluateSimple(p, record)) {
        auto program = RawPredicateProgram::Compile(p);
        ASSERT_TRUE(program->Matches(serialized))
            << p.ToSql() << " on " << serialized;
      }
    }
  }
}

// ClientFilter end-to-end: bitvectors produced over a chunk have no false
// negatives and match per-record program evaluation bit-for-bit.
TEST(ClientFilterTest, BitvectorsMatchProgramEvaluation) {
  const workload::Dataset ds = workload::GenerateWinLog({300, 31});
  const auto pool =
      workload::TemplatesFor(workload::DatasetKind::kWinLog).AllCandidates();

  PredicateRegistry registry;
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(registry.Register(pool[i * 7], 0.1, 0.5).ok());
  }

  json::JsonChunk chunk;
  for (const auto& r : ds.records) chunk.AppendSerialized(r);

  ClientFilter filter(&registry);
  PrefilterStats stats;
  const BitVectorSet bits = filter.Evaluate(chunk, &stats);
  ASSERT_EQ(bits.num_predicates(), 5u);
  ASSERT_EQ(bits.num_records(), 300u);
  EXPECT_EQ(stats.records_filtered, 300u);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.MicrosPerRecord(), 0.0);

  for (size_t p = 0; p < 5; ++p) {
    const auto& program = registry.Get(static_cast<uint32_t>(p)).program;
    for (size_t r = 0; r < chunk.size(); ++r) {
      EXPECT_EQ(bits.vector(p).Get(r), program.Matches(chunk.Record(r)));
    }
  }
  EXPECT_GT(filter.ExpectedCostUs(), 0.0);
}

// Promotion must preserve the no-false-negative property end-to-end:
// after the raw sideline is promoted to columnar, the promoted rows'
// annotations (the registry re-evaluated on the raw bytes) carry no
// false negatives, so every skipping scan still returns exactly the
// brute-force count.
TEST(PromotionSoundnessTest, NoFalseNegativesAfterPromotion) {
  const workload::Dataset ds = workload::GenerateWinLog({400, 91});
  const auto pool = workload::MicroTierPredicates(0.15);

  PredicateRegistry registry;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.Register(pool[i], 0.15, 0.5).ok());
  }

  // Brute-force per-predicate counts.
  std::vector<uint64_t> expected(registry.size(), 0);
  for (const std::string& r : ds.records) {
    auto v = json::Parse(r);
    ASSERT_TRUE(v.ok());
    for (size_t p = 0; p < registry.size(); ++p) {
      if (EvaluateClause(registry.Get(static_cast<uint32_t>(p)).clause, *v)) {
        ++expected[p];
      }
    }
  }

  TableCatalog catalog(ds.schema);
  PartialLoader loader(ds.schema, registry.size());
  ClientFilter filter(&registry);
  LoadStats load_stats;
  PrefilterStats prefilter_stats;
  for (size_t start = 0; start < ds.records.size(); start += 64) {
    const size_t end = std::min(start + 64, ds.records.size());
    json::JsonChunk chunk;
    for (size_t i = start; i < end; ++i) {
      chunk.AppendSerialized(ds.records[i]);
    }
    const BitVectorSet bits = filter.Evaluate(chunk, &prefilter_stats);
    ASSERT_TRUE(loader
                    .IngestChunk(chunk, bits, /*partial_loading_enabled=*/
                                 true, &catalog, &load_stats)
                    .ok());
  }
  ASSERT_GT(catalog.raw_rows(), 0u) << "test needs a non-empty sideline";

  JitStats jit;
  ASSERT_TRUE(
      PromoteRawToColumnar(&catalog, registry, /*annotation_epoch=*/0, &jit)
          .ok());
  EXPECT_EQ(catalog.raw_rows(), 0u);
  EXPECT_EQ(catalog.loaded_rows(), ds.records.size());

  QueryExecutor executor(&catalog, &registry);
  for (size_t p = 0; p < registry.size(); ++p) {
    Query q;
    q.clauses = {registry.Get(static_cast<uint32_t>(p)).clause};
    auto skipping = executor.Execute(q);
    ASSERT_TRUE(skipping.ok());
    EXPECT_EQ(skipping->plan, PlanKind::kSkippingScan);
    EXPECT_EQ(skipping->count, expected[p])
        << "FALSE NEGATIVE after promotion: " << q.ToSql();
    // The forced full scan agrees — promotion lost no rows.
    auto full = executor.ExecuteFullScan(q);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->count, expected[p]);
  }
}

// A record whose schema fields carry the wrong JSON type (a double or a
// string where the schema says int64, a number where it says string, a
// string or number where it says bool) loads those fields as NULL. A
// full scan must count and hash such records the same whether they sit
// on the raw sideline or were loaded — by promotion, by the storage
// compactor, or by loading everything up front — so moving a record
// between the two never changes an answer.
TEST(RawSidelineSemanticsTest, MistypedRecordsAnswerAlikeRawOrLoaded) {
  const columnar::Schema schema({{"x", columnar::ColumnType::kInt64},
                                 {"flag", columnar::ColumnType::kBool},
                                 {"name", columnar::ColumnType::kString}});
  const std::vector<std::string> records = {
      R"({"x":5.0,"flag":"true","name":"a"})",
      R"({"x":"7","flag":true,"name":7})",
      R"({"x":3,"flag":false,"name":"b"})",
      R"({"x":9007199254740993,"flag":1,"name":"c"})",
      R"({"x":true,"flag":"false","name":false})",
  };
  const std::vector<std::string> all = {"x", "flag", "name"};
  std::vector<Query> queries;
  for (const Clause& clause :
       {Clause::Of(SimplePredicate::Presence("x")),
        Clause::Of(SimplePredicate::Presence("flag")),
        Clause::Of(SimplePredicate::Presence("name")),
        Clause::Of(SimplePredicate::KeyValue("x", 5)),
        Clause::Of(SimplePredicate::KeyValue("flag", true)),
        Clause::Of(SimplePredicate::RangeLess("x", 10))}) {
    Query q;
    q.clauses = {clause};
    q.projected = all;
    queries.push_back(std::move(q));
  }
  using Answers = std::vector<std::pair<uint64_t, std::vector<uint64_t>>>;
  const auto answer = [&](const auto& run) {
    Answers out;
    for (const Query& q : queries) {
      Result<QueryResult> r = run(q);
      EXPECT_TRUE(r.ok()) << q.ToSql() << ": " << r.status().ToString();
      if (!r.ok()) return Answers{};
      out.emplace_back(r->count, r->projected_hashes);
    }
    return out;
  };

  // Loaded up front: budget 0 pushes nothing, so every record loads.
  CiaoConfig config;
  config.budget_us = 0.0;
  Workload workload;
  workload.queries = queries;
  auto eager = CiaoSystem::Bootstrap(schema, workload, records, config,
                                     CostModel::Default());
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_TRUE((*eager)->IngestRecords(records).ok());
  ASSERT_EQ((*eager)->catalog().raw_rows(), 0u);
  const Answers loaded =
      answer([&](const Query& q) { return (*eager)->ExecuteQuery(q); });
  ASSERT_EQ(loaded.size(), queries.size());
  EXPECT_EQ(loaded[0].first, 2u);  // x loads only from 3 and 2^53+1

  // On the raw sideline, then promoted.
  PredicateRegistry registry;
  TableCatalog catalog(schema);
  for (const std::string& r : records) catalog.mutable_raw()->Append(r);
  QueryExecutor executor(&catalog, &registry);
  const auto full_scan = [&](const Query& q) {
    return executor.ExecuteFullScan(q);
  };
  EXPECT_EQ(answer(full_scan), loaded) << "sideline";
  ExecutorOptions screened_opt;
  screened_opt.raw_prefilter = true;
  QueryExecutor screened(&catalog, &registry, screened_opt);
  EXPECT_EQ(answer([&](const Query& q) { return screened.ExecuteFullScan(q); }),
            loaded)
      << "screened sideline";
  JitStats jit;
  ASSERT_TRUE(PromoteRawToColumnar(&catalog, registry, 0, &jit).ok());
  ASSERT_EQ(catalog.raw_rows(), 0u);
  EXPECT_EQ(answer(full_scan), loaded) << "promoted";

  // Sidelined by partial loading (the pushed clause matches no record),
  // then merged by the storage compactor.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ciao_mistyped_compact")
          .string();
  std::filesystem::remove_all(dir);
  CiaoConfig durable;
  durable.storage.enabled = true;
  durable.storage.dir = dir;
  Workload pushed_workload;
  const Clause never = Clause::Of(SimplePredicate::Exact("name", "zzz"));
  pushed_workload.queries.resize(1);
  pushed_workload.queries[0].clauses = {never};
  {
    auto system = CiaoSystem::BootstrapManual(
        schema, pushed_workload, {never}, records, durable,
        CostModel::Default());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_TRUE((*system)->IngestRecords(records).ok());
    ASSERT_EQ((*system)->catalog().raw_rows(), records.size());
    const auto run = [&](const Query& q) {
      return (*system)->ExecuteQuery(q);
    };
    EXPECT_EQ(answer(run), loaded) << "system sideline";
    ASSERT_TRUE((*system)->CompactAndCheckpoint().ok());
    ASSERT_EQ((*system)->catalog().raw_rows(), 0u);
    EXPECT_EQ(answer(run), loaded) << "compacted";
  }
  std::filesystem::remove_all(dir);
}

TEST(ClientFilterTest, SubsetFilterEvaluatesOnlyAssignedIds) {
  const workload::Dataset ds = workload::GenerateWinLog({50, 33});
  const auto pool = workload::MicroTierPredicates(0.35);
  PredicateRegistry registry;
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(registry.Register(pool[i], 0.35, 0.5).ok());
  }
  ClientFilter filter(&registry, {1, 3});
  EXPECT_EQ(filter.num_predicates(), 2u);
  json::JsonChunk chunk;
  for (const auto& r : ds.records) chunk.AppendSerialized(r);
  PrefilterStats stats;
  const BitVectorSet bits = filter.Evaluate(chunk, &stats);
  EXPECT_EQ(bits.num_predicates(), 2u);
  EXPECT_EQ(filter.evaluated_ids(), (std::vector<uint32_t>{1, 3}));
}

}  // namespace
}  // namespace ciao
