// ciao_perfbench: the repository benchmark. One single-threaded process
// drives CiaoSystem on generated data for one workload:
//
//   ycsb_load     ingest-bound: long YCSB records, ~270 pushed predicates,
//                 everything loaded, every query on the skipping plan.
//   winlog_skip   query-bound: Windows-log records at the paper's headline
//                 budget of 1 us/record; most records stay on the raw
//                 sideline, and an ad-hoc share of the query stream falls
//                 back to the full scan.
//   ycsb_durable  storage-bound: WAL fsync per acknowledged batch, spill,
//                 explicit compaction + checkpoints, a mapping cache 16x
//                 smaller than the data, then a clean shutdown and reopen.
//
// Usage: ciao_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --work-dir <dir>
//
// A run repeats whole rounds (bootstrap, ingest, queries) until --seconds
// have elapsed. It reports each end-to-end metric from its best round:
// background load on a shared host moves the same round between two speed
// levels for spells of tens of seconds, and the best round tracks the
// program while a median tracks how much of the run fell in slow spells.
// setup_s, sampled at least 21 times, is the median. With --trace 0 the last stdout line carries the
// end-to-end metrics. With --trace 1 untraced and traced rounds alternate:
// the traced rounds record spans around every call into the system and
// yield the per-layer metrics; the untraced ones give the overhead base
// and must reproduce the traced answers exactly.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/file_reader.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/system.h"
#include "costmodel/autotune.h"
#include "costmodel/cost_model.h"
#include "oracle.h"
#include "storage/segment_file.h"
#include "storage/segment_store.h"
#include "storage/wal.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
#include "workload/templates.h"

namespace ciao::perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions

struct WorkloadDef {
  const char* name;
  workload::DatasetKind kind;
  size_t records;
  /// Table III preset the plan is made for: 'A' (Zipfian) or 'C' (uniform).
  char planned_mix;
  double budget_us;
  /// Records per IngestRecords call.
  size_t batch_records;
  /// Closed-loop queries per round (durable: spread over the batches).
  size_t queries_per_round;
  /// Every n-th stream query is an ad-hoc one, drawn from workload C under
  /// another seed, so the plan may not cover it. 0 = none.
  size_t adhoc_every;
  bool durable;
  /// Durable only: CompactAndCheckpoint after every n-th batch.
  size_t checkpoint_every;
};

// Sizes keep one round near 1 s on a 4-core container, so a run holds
// many rounds for the medians. Each round runs at least 200 queries, so
// its own p95 has at least 10 samples beyond it. winlog_skip's ad-hoc
// share puts ~17% of queries on the full scan: p95 then lies well inside
// the full scans, and p50 inside the skipping plan's latencies away from
// the gap between its cheap and its costly queries.
const WorkloadDef kWorkloads[] = {
    {"ycsb_load", workload::DatasetKind::kYcsb, 60000, 'C', 100.0, 10000, 200,
     0, false, 0},
    {"winlog_skip", workload::DatasetKind::kWinLog, 50000, 'A', 1.0, 10000,
     200, 5, false, 0},
    {"ycsb_durable", workload::DatasetKind::kYcsb, 30000, 'A', 50.0, 5000,
     210, 0, true, 2},
};

constexpr size_t kMinSetupSamples = 21;
constexpr size_t kSampleSize = 2000;
constexpr uint64_t kQuerySeed = 42;
constexpr uint64_t kAdhocQuerySeed = 7919;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

double NowSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

size_t SamplesBeyondP95(size_t n) {
  return n - static_cast<size_t>(std::ceil(0.95 * static_cast<double>(n)));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Inputs, all derived from --seed

struct Inputs {
  workload::Dataset ds;
  uint64_t json_bytes = 0;
  /// The prospective workload the plan is made for.
  Workload planned;
  /// One round's query stream, in execution order.
  std::vector<Query> stream;
  std::vector<bool> adhoc;
  std::vector<std::vector<std::string>> batches;
  /// Stream queries run after batch b: [slice_begin[b], slice_begin[b+1]).
  std::vector<size_t> slice_begin;
  /// expected[q]: the oracle count of stream query q over the records
  /// ingested before it runs.
  std::vector<uint64_t> expected;
  uint64_t memory_budget_bytes = 0;
};

Inputs MakeInputs(const WorkloadDef& def, uint64_t seed) {
  Inputs in;
  workload::GeneratorOptions gen;
  gen.num_records = def.records;
  gen.seed = seed;
  in.ds = workload::GenerateDataset(def.kind, gen);
  in.json_bytes = in.ds.TotalBytes();

  // The seed draws the records; the query mix is part of the workload's
  // definition and stays fixed, so every seed plans the same kind of
  // pushdown and runs comparable queries.
  const std::vector<Clause> pool =
      workload::TemplatesFor(def.kind).AllCandidates();
  in.planned = def.planned_mix == 'A'
                   ? workload::WorkloadA(pool, kQuerySeed)
                   : workload::WorkloadC(pool, kQuerySeed);
  const Workload adhoc_pool = workload::WorkloadC(pool, kAdhocQuerySeed);
  size_t next_planned = 0;
  size_t next_adhoc = 0;
  for (size_t i = 0; i < def.queries_per_round; ++i) {
    const bool adhoc =
        def.adhoc_every > 0 && i % def.adhoc_every == def.adhoc_every - 1;
    Query q = adhoc ? adhoc_pool.queries[next_adhoc++ % adhoc_pool.queries.size()]
                    : in.planned.queries[next_planned++ %
                                         in.planned.queries.size()];
    if (def.durable) {
      // Project one column per query so recovery is checked on value
      // checksums, not only counts.
      q.projected = {in.ds.schema.field(i % in.ds.schema.num_fields()).name};
    }
    in.stream.push_back(std::move(q));
    in.adhoc.push_back(adhoc);
  }

  for (size_t begin = 0; begin < in.ds.records.size();
       begin += def.batch_records) {
    const size_t end = std::min(in.ds.records.size(), begin + def.batch_records);
    in.batches.emplace_back(in.ds.records.begin() + begin,
                            in.ds.records.begin() + end);
  }
  // In-RAM workloads query once after the last batch; the durable one
  // runs an equal slice of the stream after every batch.
  const size_t num_batches = in.batches.size();
  in.slice_begin.assign(num_batches + 1, 0);
  for (size_t b = 0; b <= num_batches; ++b) {
    if (def.durable) {
      in.slice_begin[b] = def.queries_per_round * b / num_batches;
    } else {
      in.slice_begin[b] = b == num_batches ? def.queries_per_round : 0;
    }
  }

  // Oracle, outside every timed section: per-batch counts accumulated, so
  // a query sees exactly the records ingested before it.
  in.expected.assign(in.stream.size(), 0);
  std::vector<uint64_t> cumulative(in.stream.size(), 0);
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<uint64_t> counts = OracleCounts(in.batches[b], in.stream);
    for (size_t q = 0; q < counts.size(); ++q) cumulative[q] += counts[q];
    for (size_t q = in.slice_begin[b]; q < in.slice_begin[b + 1]; ++q) {
      in.expected[q] = cumulative[q];
    }
  }

  if (def.durable) {
    in.memory_budget_bytes = std::max<uint64_t>(in.json_bytes / 16, 64 << 10);
  }
  return in;
}

CiaoConfig MakeConfig(const WorkloadDef& def, const Inputs& in,
                      const std::string& store_dir) {
  CiaoConfig config;
  config.budget_us = def.budget_us;
  config.chunk_size = 1000;
  config.sample_size = kSampleSize;
  config.query_scan_threads = 1;
  if (def.durable) {
    config.storage.enabled = true;
    config.storage.dir = store_dir;
    config.storage.memory_budget_bytes = in.memory_budget_bytes;
    // Flush policy: one fsync per acknowledged ingest batch.
    config.storage.wal_sync = true;
    // Checkpoints happen only where a round calls them, never on a timer
    // or a WAL-size trigger.
    config.storage.checkpoint_wal_bytes = 0;
    config.storage.compaction_interval_ms = 0;
  }
  return config;
}

std::unique_ptr<CiaoSystem> BootstrapOrDie(const Inputs& in,
                                           const CiaoConfig& config) {
  auto system = CiaoSystem::Bootstrap(in.ds.schema, in.planned, in.ds.records,
                                      config, CostModel::Default());
  if (!system.ok()) Die("bootstrap: " + system.status().ToString());
  return std::move(*system);
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's calls into the system,
// kept in memory and written out at the end of the run.

struct Span {
  std::string name;
  /// Where the duration comes from: "span" (timed here around a call),
  /// "stats" (per-call delta of a stats struct the facade exposes).
  const char* source = "span";
  int parent = -1;
  double start = 0.0;
  double seconds = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const std::string& name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, "span", parent, NowSeconds(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[id].seconds = NowSeconds() - spans_[id].start;
  }
  /// A child whose duration is a facade stats delta (no own timestamps).
  void AddStat(const std::string& name, int parent, double seconds) {
    if (!enabled_ || parent < 0) return;
    spans_.push_back(
        Span{name, "stats", parent, spans_[parent].start, seconds});
  }

  /// Self time per span name over the subtree below `root` (exclusive).
  std::map<std::string, double> SelfSecondsBelow(int root) const {
    std::vector<double> child_sum(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_sum[s.parent] += s.seconds;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (IsBelow(static_cast<int>(i), root)) {
        self[spans_[i].name] += spans_[i].seconds - child_sum[i];
      }
    }
    return self;
  }
  double Seconds(int id) const { return id >= 0 ? spans_[id].seconds : 0.0; }

  void WriteJson(const fs::path& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"source\": \"%s\", "
                    "\"parent\": %d, \"start_s\": %.9f, \"dur_s\": %.9f}%s\n",
                    i, s.name.c_str(), s.source, s.parent, s.start, s.seconds,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  bool IsBelow(int id, int root) const {
    for (int p = spans_[id].parent; p >= 0; p = spans_[p].parent) {
      if (p == root) return true;
    }
    return false;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics

/// Per-layer metric table: unit and the source each value comes from.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* source;
};

const LayerMetricDef kLayerMetrics[] = {
    {"optimizer.plan_s", "s", "direct"},
    {"optimizer.predicates_pushed", "count", "direct"},
    {"client.prefilter_s", "s", "stats"},
    {"client.records", "count", "stats"},
    {"client.mb_per_s", "MB/s", "stats"},
    {"loader.parse_s", "s", "stats"},
    {"loader.encode_s", "s", "stats"},
    {"loader.other_s", "s", "span-stats"},
    {"loader.parse_mb_per_s", "MB/s", "stats"},
    {"loader.parse_pct_of_ceiling", "%", "stats+calibration"},
    {"loader.records_loaded", "count", "stats"},
    {"loader.records_sidelined", "count", "stats"},
    {"loader.loading_ratio", "ratio", "stats"},
    {"loader.parse_errors", "count", "stats"},
    {"catalog.columnar_bytes", "bytes", "stats"},
    {"catalog.raw_bytes", "bytes", "stats"},
    {"catalog.segments", "count", "stats"},
    {"wal.append_s", "s", "direct"},
    {"wal.appends", "count", "direct"},
    {"wal.bytes", "bytes", "direct"},
    {"store.segments_spilled", "count", "stats"},
    {"store.checkpoints", "count", "stats"},
    {"store.compact_checkpoint_s", "s", "span"},
    {"store.mappings_created", "count", "stats"},
    {"store.segments_mapped", "count", "stats"},
    {"store.bytes_mapped", "bytes", "stats"},
    {"store.pin_verify_s", "s", "direct"},
    {"store.pin_verify_mb_per_s", "MB/s", "direct"},
    {"store.recover_s", "s", "span"},
    {"engine.skipping_query_s", "s", "span"},
    {"engine.full_scan_query_s", "s", "span"},
    {"engine.skipping_share", "ratio", "stats"},
    {"engine.groups_considered", "count", "stats"},
    {"engine.groups_skipped", "count", "stats"},
    {"engine.groups_skipped_zonemap", "count", "stats"},
    {"engine.groups_counted_exact", "count", "stats"},
    {"engine.skip_frac", "ratio", "stats"},
    {"engine.rows_decoded", "count", "stats"},
    {"engine.rows_evaluated", "count", "stats"},
    {"engine.bytes_decoded", "bytes", "stats"},
    {"engine.bytes_decode_waste", "bytes", "stats"},
    {"engine.raw_records_scanned", "count", "stats"},
    {"engine.matches_per_row_evaluated", "ratio", "stats"},
    {"decode.s", "s", "direct"},
    {"decode.mb_per_s", "MB/s", "direct"},
    {"decode.pct_of_ceiling", "%", "direct+calibration"},
    {"trace.overhead_frac", "ratio", "span"},
};

bool IsStorageMetric(const std::string& name) {
  return name.rfind("wal.", 0) == 0 || name.rfind("store.", 0) == 0;
}

// ---------------------------------------------------------------------------
// One round

struct PushedSet {
  size_t count = 0;
  uint64_t fingerprint = 0;
  bool operator==(const PushedSet&) const = default;
};

struct RoundResult {
  double setup_s = 0.0;
  double ingest_s = 0.0;
  double e2e_s = 0.0;
  double recover_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double client_us_per_record = 0.0;
  double stored_bytes_per_input_byte = 0.0;
  std::vector<double> latencies_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t recovery_mismatches = 0;
  /// Answers, for the traced/untraced consistency check.
  std::vector<uint64_t> counts;
  uint64_t loaded_rows = 0;
  PushedSet pushed;
  size_t skipping_queries = 0;
  size_t full_scan_queries = 0;
  size_t adhoc_queries = 0;
  double loading_ratio = 0.0;
  /// Traced rounds only.
  uint64_t sidelined_bytes = 0;
  std::map<std::string, double> layers;
  double traced_self_sum = 0.0;
};

struct QueryTotals {
  ScanStats stats;
  uint64_t matches = 0;
  double skipping_s = 0.0;
  double full_scan_s = 0.0;
};

class Runner {
 public:
  Runner(const WorkloadDef& def, const Inputs& in, fs::path run_dir)
      : def_(def), in_(in), run_dir_(std::move(run_dir)) {}

  RoundResult RunRound(size_t round, Tracer* tracer) {
    RoundResult r;
    const fs::path store = run_dir_ / ("store-" + std::to_string(round));
    fs::remove_all(store);
    const CiaoConfig config = MakeConfig(def_, in_, store.string());

    const int setup_span = tracer->Begin("setup", -1);
    Stopwatch setup_watch;
    std::unique_ptr<CiaoSystem> system = BootstrapOrDie(in_, config);
    r.setup_s = setup_watch.ElapsedSeconds();
    tracer->End(setup_span);
    r.pushed = PushedSet{system->registry().size(),
                         RegistryFingerprint(system->registry())};

    QueryTotals totals;
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> last_answers;
    PrefilterStats prefilter_before = system->prefilter_stats();
    LoadStats load_before = system->load_stats();

    const int e2e_span = tracer->Begin("e2e", -1);
    Stopwatch e2e_watch;
    for (size_t b = 0; b < in_.batches.size(); ++b) {
      const uint64_t raw_before =
          tracer->enabled() ? system->catalog().raw().byte_size() : 0;
      const int ingest_span = tracer->Begin("ingest", e2e_span);
      Stopwatch ingest_watch;
      const Status st = system->IngestRecords(in_.batches[b]);
      r.ingest_s += ingest_watch.ElapsedSeconds();
      tracer->End(ingest_span);
      ++r.attempted;
      if (!st.ok()) {
        ++r.failed;
        std::fprintf(stderr, "ingest batch %zu failed: %s\n", b,
                     st.ToString().c_str());
      }
      if (tracer->enabled()) {
        const PrefilterStats pf = system->prefilter_stats();
        const LoadStats& ls = system->load_stats();
        tracer->AddStat("client.prefilter", ingest_span,
                        pf.seconds - prefilter_before.seconds);
        tracer->AddStat("loader.parse", ingest_span,
                        ls.parse_seconds - load_before.parse_seconds);
        tracer->AddStat("loader.encode", ingest_span,
                        ls.encode_seconds - load_before.encode_seconds);
        prefilter_before = pf;
        load_before = ls;
        r.sidelined_bytes += system->catalog().raw().byte_size() - raw_before;
      }

      for (size_t q = in_.slice_begin[b]; q < in_.slice_begin[b + 1]; ++q) {
        const int query_span = tracer->Begin("query", e2e_span);
        Stopwatch query_watch;
        Result<QueryResult> result = system->ExecuteQuery(in_.stream[q]);
        const double seconds = query_watch.ElapsedSeconds();
        tracer->End(query_span);
        r.latencies_ms.push_back(seconds * 1e3);
        ++r.attempted;
        if (in_.adhoc[q]) ++r.adhoc_queries;
        if (!result.ok()) {
          ++r.failed;
          r.counts.push_back(UINT64_MAX);
          std::fprintf(stderr, "query %zu failed: %s\n", q,
                       result.status().ToString().c_str());
          continue;
        }
        r.counts.push_back(result->count);
        if (result->count != in_.expected[q]) {
          ++r.failed;
          ++r.mismatches;
          std::fprintf(stderr,
                       "oracle mismatch: query %zu (%s) count %llu, oracle "
                       "%llu\n",
                       q, in_.stream[q].ToSql().c_str(),
                       static_cast<unsigned long long>(result->count),
                       static_cast<unsigned long long>(in_.expected[q]));
        }
        const bool skipping = result->plan == PlanKind::kSkippingScan;
        (skipping ? r.skipping_queries : r.full_scan_queries) += 1;
        totals.stats.MergeFrom(result->stats);
        totals.matches += result->count;
        (skipping ? totals.skipping_s : totals.full_scan_s) += seconds;
        if (b + 1 == in_.batches.size()) {
          last_answers.emplace_back(result->count, result->projected_hashes);
        }
      }

      if (def_.durable && def_.checkpoint_every > 0 &&
          (b + 1) % def_.checkpoint_every == 0) {
        const int span = tracer->Begin("store.compact_checkpoint", e2e_span);
        const Status st = system->CompactAndCheckpoint();
        tracer->End(span);
        ++r.attempted;
        if (!st.ok()) {
          ++r.failed;
          std::fprintf(stderr, "CompactAndCheckpoint failed: %s\n",
                       st.ToString().c_str());
        }
      }
    }
    r.e2e_s = e2e_watch.ElapsedSeconds();
    tracer->End(e2e_span);
    r.p50_ms = Percentile(r.latencies_ms, 50);
    r.p95_ms = Percentile(r.latencies_ms, 95);

    const TableCatalog& catalog = system->catalog();
    r.client_us_per_record = system->prefilter_stats().MicrosPerRecord();
    r.loaded_rows = catalog.loaded_rows();
    r.loading_ratio = system->load_stats().LoadingRatio();
    r.stored_bytes_per_input_byte =
        static_cast<double>(catalog.columnar_bytes() + catalog.raw().byte_size()) /
        static_cast<double>(in_.json_bytes);

    if (tracer->enabled()) {
      CollectFacadeLayers(*system, totals, *tracer, e2e_span, &r);
      CollectDirectLayers(*system, config, &r);
    }

    if (def_.durable) {
      const int shutdown_span = tracer->Begin("store.shutdown_checkpoint", -1);
      system.reset();  // clean shutdown: final checkpoint
      tracer->End(shutdown_span);
      r.stored_bytes_per_input_byte =
          static_cast<double>(DirectoryBytes(store)) /
          static_cast<double>(in_.json_bytes);

      const int recover_span = tracer->Begin("store.recover", -1);
      Stopwatch recover_watch;
      std::unique_ptr<CiaoSystem> reopened = BootstrapOrDie(in_, config);
      r.recover_s = recover_watch.ElapsedSeconds();
      tracer->End(recover_span);
      if (reopened->load_stats().records_in != 0) {
        ++r.failed;
        ++r.recovery_mismatches;
        std::fprintf(stderr, "recovery replayed WAL after a clean shutdown\n");
      }
      // Pass over the recovered image: the last slice again, answers
      // (counts and projected checksums) must equal the pre-shutdown ones.
      const size_t lo = in_.slice_begin[in_.batches.size() - 1];
      for (size_t q = lo; q < in_.stream.size(); ++q) {
        Result<QueryResult> result = reopened->ExecuteQuery(in_.stream[q]);
        ++r.attempted;
        const auto& before = last_answers[q - lo];
        if (!result.ok() || result->count != before.first ||
            result->projected_hashes != before.second) {
          ++r.failed;
          ++r.recovery_mismatches;
          std::fprintf(stderr, "recovery mismatch on query %zu\n", q);
        }
      }
      if (tracer->enabled()) {
        r.layers["store.compact_checkpoint_s"] +=
            tracer->Seconds(shutdown_span);
        r.layers["store.recover_s"] = tracer->Seconds(recover_span);
      }
      reopened.reset();
    } else {
      // Nothing is kept across a restart: a restarted in-RAM system
      // re-plans and re-ingests, which is this round's set-up plus ingest.
      r.recover_s = r.setup_s + r.ingest_s;
    }
    fs::remove_all(store);
    return r;
  }

  /// Bootstrap only (extra set-up samples).
  double SetupOnce(size_t index) {
    const fs::path store = run_dir_ / ("setup-" + std::to_string(index));
    fs::remove_all(store);
    const CiaoConfig config = MakeConfig(def_, in_, store.string());
    Stopwatch watch;
    std::unique_ptr<CiaoSystem> system = BootstrapOrDie(in_, config);
    const double seconds = watch.ElapsedSeconds();
    system.reset();
    fs::remove_all(store);
    return seconds;
  }

 private:
  /// Per-layer metrics taken from the per-call stats deltas and the
  /// counters the facade exposes.
  void CollectFacadeLayers(const CiaoSystem& system, const QueryTotals& totals,
                           const Tracer& tracer, int e2e_span,
                           RoundResult* r) const {
    std::map<std::string, double>& m = r->layers;
    const std::map<std::string, double> self = tracer.SelfSecondsBelow(e2e_span);
    auto self_of = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    for (const auto& [name, seconds] : self) r->traced_self_sum += seconds;

    const PrefilterStats pf = system.prefilter_stats();
    const LoadStats& ls = system.load_stats();
    const TableCatalog& catalog = system.catalog();
    const double raw_bytes = static_cast<double>(catalog.raw().byte_size());

    m["client.prefilter_s"] = self_of("client.prefilter");
    m["client.records"] = static_cast<double>(pf.records_filtered);
    m["client.mb_per_s"] =
        pf.seconds > 0 ? static_cast<double>(in_.json_bytes) / pf.seconds / 1e6
                       : 0.0;

    m["loader.parse_s"] = self_of("loader.parse");
    m["loader.encode_s"] = self_of("loader.encode");
    m["loader.other_s"] = self_of("ingest");
    // Only loaded records are parsed; sidelined ones stay raw bytes.
    const double parsed_bytes =
        static_cast<double>(in_.json_bytes - r->sidelined_bytes);
    m["loader.parse_mb_per_s"] =
        ls.parse_seconds > 0 ? parsed_bytes / ls.parse_seconds / 1e6 : 0.0;
    m["loader.records_loaded"] = static_cast<double>(ls.records_loaded);
    m["loader.records_sidelined"] = static_cast<double>(ls.records_sidelined);
    m["loader.loading_ratio"] = ls.LoadingRatio();
    m["loader.parse_errors"] = static_cast<double>(ls.parse_errors);

    m["catalog.columnar_bytes"] = static_cast<double>(catalog.columnar_bytes());
    m["catalog.raw_bytes"] = raw_bytes;
    m["catalog.segments"] = static_cast<double>(catalog.num_segments());

    const ScanStats& s = totals.stats;
    const double queries =
        static_cast<double>(r->skipping_queries + r->full_scan_queries);
    m["engine.skipping_query_s"] = totals.skipping_s;
    m["engine.full_scan_query_s"] = totals.full_scan_s;
    m["engine.skipping_share"] =
        queries > 0 ? static_cast<double>(r->skipping_queries) / queries : 0.0;
    m["engine.groups_considered"] = static_cast<double>(s.groups_considered);
    m["engine.groups_skipped"] = static_cast<double>(s.groups_skipped);
    m["engine.groups_skipped_zonemap"] =
        static_cast<double>(s.groups_skipped_zonemap);
    m["engine.groups_counted_exact"] =
        static_cast<double>(s.groups_counted_exact);
    m["engine.skip_frac"] =
        s.groups_considered > 0
            ? static_cast<double>(s.groups_skipped + s.groups_skipped_zonemap) /
                  static_cast<double>(s.groups_considered)
            : 0.0;
    m["engine.rows_decoded"] = static_cast<double>(s.rows_decoded);
    m["engine.rows_evaluated"] = static_cast<double>(s.rows_evaluated);
    m["engine.bytes_decoded"] = static_cast<double>(s.bytes_decoded);
    m["engine.bytes_decode_waste"] = static_cast<double>(s.bytes_decode_waste);
    m["engine.raw_records_scanned"] =
        static_cast<double>(s.raw_records_scanned);
    const double evaluated =
        static_cast<double>(s.rows_evaluated + s.raw_records_scanned);
    m["engine.matches_per_row_evaluated"] =
        evaluated > 0 ? static_cast<double>(totals.matches) / evaluated : 0.0;

    m["store.segments_mapped"] = static_cast<double>(s.segments_mapped);
    m["store.bytes_mapped"] = static_cast<double>(s.bytes_mapped);
    m["store.compact_checkpoint_s"] = self_of("store.compact_checkpoint");
    if (const SegmentStore* store = system.segment_store()) {
      m["store.segments_spilled"] =
          static_cast<double>(store->segments_spilled());
      m["store.checkpoints"] = static_cast<double>(store->checkpoints_completed());
      m["store.mappings_created"] =
          static_cast<double>(store->cache()->mappings_created());
    }
    // The in-RAM workloads have no WAL and no store: their wal.* and
    // store.* metrics are absent and read 0.
    for (const LayerMetricDef& lm : kLayerMetrics) {
      if (IsStorageMetric(lm.name)) m.emplace(lm.name, 0.0);
    }
  }

  /// Per-layer metrics from direct calls to a layer's public entry point
  /// on the same inputs, made after the round's timed work.
  void CollectDirectLayers(const CiaoSystem& system, const CiaoConfig& config,
                           RoundResult* r) const {
    std::map<std::string, double>& m = r->layers;

    // optimizer: PlanPushdown, the planning step inside Bootstrap.
    {
      Stopwatch watch;
      Result<PlanningOutcome> outcome = PlanPushdown(
          in_.planned, in_.ds.records, config, CostModel::Default());
      m["optimizer.plan_s"] = watch.ElapsedSeconds();
      if (!outcome.ok()) Die("PlanPushdown: " + outcome.status().ToString());
      m["optimizer.predicates_pushed"] =
          static_cast<double>(outcome->registry.size());
    }

    const std::vector<SegmentRef> segments =
        system.catalog().SnapshotSegments();

    // decode: TableReader::ReadBatchProjected over every loaded row group,
    // all columns (trusted bytes, as the executor reads in-memory ones).
    {
      const std::vector<bool> wanted(in_.ds.schema.num_fields(), true);
      columnar::DecodeStats stats;
      double seconds = 0.0;
      for (const SegmentRef& seg : segments) {
        Result<PinnedSegment> pin = PinSegment(*seg);
        if (!pin.ok()) Die("PinSegment: " + pin.status().ToString());
        Stopwatch watch;
        auto reader = columnar::TableReader::OpenBorrowed(
            pin->bytes, columnar::ChecksumMode::kTrust);
        if (!reader.ok()) Die("TableReader: " + reader.status().ToString());
        for (size_t g = 0; g < reader->num_row_groups(); ++g) {
          auto batch = reader->ReadBatchProjected(g, wanted, &stats);
          if (!batch.ok()) Die("decode: " + batch.status().ToString());
        }
        seconds += watch.ElapsedSeconds();
      }
      m["decode.s"] = seconds;
      m["decode.mb_per_s"] =
          seconds > 0 ? static_cast<double>(stats.bytes_decoded) / seconds / 1e6
                      : 0.0;
    }

    if (!def_.durable) return;

    // store: MappingCache::Pin on a cold cache = mmap + CRC of every group.
    {
      MappingCache cold(UINT64_MAX);
      uint64_t bytes = 0;
      Stopwatch watch;
      for (const SegmentRef& seg : segments) {
        if (seg->disk == nullptr) continue;
        Result<PinnedSegment> pin = cold.Pin(*seg->disk);
        if (!pin.ok()) Die("Pin: " + pin.status().ToString());
        bytes += pin->bytes.size();
      }
      const double seconds = watch.ElapsedSeconds();
      m["store.pin_verify_s"] = seconds;
      m["store.pin_verify_mb_per_s"] =
          seconds > 0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
    }

    // wal: WriteAheadLog::Append of the same batches, same sync policy.
    {
      const fs::path dir = run_dir_ / "wal-probe";
      fs::remove_all(dir);
      fs::create_directories(dir);
      auto wal = WriteAheadLog::Open((dir / "wal.log").string(),
                                     config.storage.wal_sync
                                         ? WalSyncMode::kAlways
                                         : WalSyncMode::kNever);
      if (!wal.ok()) Die("WAL open: " + wal.status().ToString());
      Stopwatch watch;
      for (size_t b = 0; b < in_.batches.size(); ++b) {
        CheckOk((*wal)->Append(b + 1, in_.batches[b]), "WAL append");
      }
      m["wal.append_s"] = watch.ElapsedSeconds();
      m["wal.appends"] = static_cast<double>(in_.batches.size());
      m["wal.bytes"] = static_cast<double>((*wal)->tail_bytes());
      wal->reset();
      fs::remove_all(dir);
    }
  }

  const WorkloadDef& def_;
  const Inputs& in_;
  fs::path run_dir_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// ---------------------------------------------------------------------------

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Die("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) Die("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
      have_dir = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_dir) {
    Die("usage: ciao_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --work-dir <dir>");
  }
  return o;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opt.workload == w.name) def = &w;
  }
  if (def == nullptr) Die("unknown workload " + opt.workload);
  if (SamplesBeyondP95(def->queries_per_round) < 10) {
    Die("a round needs at least 10 query samples beyond p95");
  }

  // Fixed plan: no hardware profile re-prices the optimizer or re-dispatches
  // kernels during timed work (an explicit install also suppresses the
  // CIAO_PROFILE environment load).
  SetActiveHardwareProfile(nullptr);

  const fs::path work_dir = fs::absolute(opt.work_dir);
  const fs::path run_dir = work_dir / ("run-" + std::to_string(getpid()));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);

  const double input_start = NowSeconds();
  const Inputs in = MakeInputs(*def, opt.seed);
  std::printf("workload %s seed %llu: %zu records, %.1f MB JSON, %zu batches, "
              "%zu queries/round (inputs + oracle %.2f s)\n",
              def->name, static_cast<unsigned long long>(opt.seed),
              in.ds.records.size(), in.json_bytes / 1e6, in.batches.size(),
              in.stream.size(), NowSeconds() - input_start);

  Runner runner(*def, in, run_dir);
  Tracer tracer(true);
  Tracer no_tracer(false);
  // One unreported round first, so page cache, allocator arenas and lazy
  // initialisation are warm before anything is measured. Its answers are
  // still checked.
  std::vector<RoundResult> warmup;
  warmup.push_back(runner.RunRound(0, &no_tracer));
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  const double start = NowSeconds();
  size_t round = 1;
  while (true) {
    // Traced rounds alternate with untraced ones, in alternating order, so
    // the overhead estimate does not favour either side.
    const bool traced_first = opt.trace && plain.size() % 2 == 1;
    if (traced_first) traced.push_back(runner.RunRound(round++, &tracer));
    plain.push_back(runner.RunRound(round++, &no_tracer));
    if (opt.trace && !traced_first) {
      traced.push_back(runner.RunRound(round++, &tracer));
    }
    if (NowSeconds() - start >= opt.seconds) break;
  }
  const double measured_s = NowSeconds() - start;

  std::vector<double> setup;
  for (const RoundResult& r : plain) setup.push_back(r.setup_s);
  for (const RoundResult& r : traced) setup.push_back(r.setup_s);
  while (setup.size() < kMinSetupSamples) {
    setup.push_back(runner.SetupOnce(setup.size()));
  }

  // ---- correctness ----
  uint64_t attempted = 0, failed = 0, mismatches = 0, recovery_mismatches = 0;
  bool pushed_stable = true;
  bool answers_repeat = true;
  const RoundResult& first = warmup.front();
  for (const std::vector<RoundResult>* rounds : {&warmup, &plain, &traced}) {
    for (const RoundResult& r : *rounds) {
      attempted += r.attempted;
      failed += r.failed;
      mismatches += r.mismatches;
      recovery_mismatches += r.recovery_mismatches;
      pushed_stable = pushed_stable && r.pushed == first.pushed;
      answers_repeat = answers_repeat && r.counts == first.counts &&
                       r.loaded_rows == first.loaded_rows;
    }
  }
  std::printf("plan: %zu predicates pushed, fingerprint %016llx (%s across "
              "%zu bootstraps)\n",
              first.pushed.count,
              static_cast<unsigned long long>(first.pushed.fingerprint),
              pushed_stable ? "stable" : "DRIFTED",
              warmup.size() + plain.size() + traced.size());

  // ---- workload properties ----
  const double queries = static_cast<double>(first.skipping_queries +
                                             first.full_scan_queries);
  std::printf("properties: mean record %.1f B, loading ratio %.4f, skipping "
              "plan %.1f%%, full scan %.1f%%, ad-hoc %.1f%%",
              in.ds.MeanRecordLength(), first.loading_ratio,
              100.0 * first.skipping_queries / queries,
              100.0 * first.full_scan_queries / queries,
              100.0 * first.adhoc_queries / queries);
  if (def->durable) {
    std::printf(", data/memory budget %.1fx",
                static_cast<double>(in.json_bytes) /
                    static_cast<double>(in.memory_budget_bytes));
  }
  std::printf("\n");

  auto values_of = [&](double RoundResult::*field) {
    std::vector<double> v;
    for (const RoundResult& r : plain) v.push_back(r.*field);
    return v;
  };
  auto best_of = [&](double RoundResult::*field) {
    const std::vector<double> v = values_of(field);
    return *std::min_element(v.begin(), v.end());
  };
  std::printf("e2e_s per untraced round:");
  for (const RoundResult& r : plain) std::printf(" %.4f", r.e2e_s);
  std::printf("\n");
  const double failed_op_frac =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  std::printf("rounds: %zu untraced, %zu traced in %.2f s; %zu query samples "
              "per round (%zu beyond p95); %zu set-up samples\n",
              plain.size(), traced.size(), measured_s, in.stream.size(),
              SamplesBeyondP95(in.stream.size()), setup.size());
  std::printf("ops: %llu attempted, %llu failed (%llu oracle mismatches, %llu "
              "recovery mismatches), failed_op_frac %.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(recovery_mismatches),
              failed_op_frac);

  // Every round, traced or not, must reproduce the first round's answers
  // and loaded-row count exactly.
  if (!answers_repeat) {
    std::fprintf(stderr, "rounds disagree on query counts or loaded rows\n");
  }
  const bool correct = failed == 0 && pushed_stable && answers_repeat;

  std::vector<Metric> out;
  if (!opt.trace) {
    const double ingest_rps =
        static_cast<double>(in.ds.records.size()) / best_of(&RoundResult::ingest_s);
    out = {
        {"setup_s", Median(setup), "s"},
        {"ingest_records_per_s", ingest_rps, "1/s"},
        {"query_p50_ms", best_of(&RoundResult::p50_ms), "ms"},
        {"query_p95_ms", best_of(&RoundResult::p95_ms), "ms"},
        {"e2e_s", best_of(&RoundResult::e2e_s), "s"},
        {"client_us_per_record", best_of(&RoundResult::client_us_per_record),
         "us"},
        {"stored_bytes_per_input_byte",
         best_of(&RoundResult::stored_bytes_per_input_byte), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"recover_s", best_of(&RoundResult::recover_s), "s"},
    };
    for (const Metric& metric : out) {
      std::printf("%-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit);
    }
  } else {
    // Ceilings: the median of three quick host calibrations, run after all
    // timed work. Their profiles are only read, never installed.
    AutotuneOptions calib;
    calib.quick = true;
    calib.seed = opt.seed;
    std::vector<double> parse_ceiling, decode_ceiling;
    for (int pass = 0; pass < 3; ++pass) {
      Result<HardwareProfile> profile = CalibrateHost(calib);
      if (!profile.ok()) Die("CalibrateHost: " + profile.status().ToString());
      parse_ceiling.push_back(profile->tape_parse_mbps);
      decode_ceiling.push_back(profile->columnar_decode_mbps);
    }
    if (ActiveHardwareProfile() != nullptr) Die("a hardware profile is active");
    const double tape_parse_mbps = Median(parse_ceiling);
    const double columnar_decode_mbps = Median(decode_ceiling);

    std::map<std::string, std::vector<double>> per_round;
    std::vector<double> traced_e2e, self_sum;
    for (const RoundResult& r : traced) {
      for (const auto& [name, value] : r.layers) per_round[name].push_back(value);
      traced_e2e.push_back(r.e2e_s);
      self_sum.push_back(r.traced_self_sum);
    }
    std::map<std::string, double> m;
    for (const auto& [name, values] : per_round) m[name] = Median(values);
    m["loader.parse_pct_of_ceiling"] =
        100.0 * m["loader.parse_mb_per_s"] / tape_parse_mbps;
    m["decode.pct_of_ceiling"] =
        100.0 * m["decode.mb_per_s"] / columnar_decode_mbps;
    const double plain_e2e = Median(values_of(&RoundResult::e2e_s));
    const double e2e = Median(traced_e2e);
    m["trace.overhead_frac"] = e2e / plain_e2e - 1.0;

    std::printf("ceilings (quick calibration): tape parse %.1f MB/s, columnar "
                "decode %.1f MB/s\n",
                tape_parse_mbps, columnar_decode_mbps);
    std::printf("trace: span self-time sum %.4f s of traced e2e %.4f s "
                "(%.1f%% covered); untraced e2e %.4f s\n",
                Median(self_sum), e2e, 100.0 * Median(self_sum) / e2e,
                plain_e2e);
    const double ingest_layers = m["client.prefilter_s"] + m["loader.parse_s"] +
                                 m["loader.encode_s"] + m["loader.other_s"];
    const double engine = m["engine.skipping_query_s"] + m["engine.full_scan_query_s"];
    const double storage = m["wal.append_s"] + m["store.compact_checkpoint_s"] +
                           m["store.pin_verify_s"] + m["store.recover_s"];
    std::printf("dominance: ingest layers (client+loader) %.1f%% of e2e, "
                "engine %.1f%% of e2e, wal+store %.4f s\n",
                100.0 * ingest_layers / e2e, 100.0 * engine / e2e, storage);

    std::printf("%-36s %14s %-6s %s\n", "layer metric", "value", "unit",
                "source");
    for (const LayerMetricDef& lm : kLayerMetrics) {
      auto it = m.find(lm.name);
      if (it == m.end()) Die(std::string("layer metric not produced: ") + lm.name);
      const bool absent = !def->durable && IsStorageMetric(lm.name);
      std::printf("%-36s %14.6g %-6s %s\n", lm.name, it->second, lm.unit,
                  absent ? "absent: no WAL or store on this workload"
                         : lm.source);
      out.push_back({lm.name, it->second, lm.unit});
    }
    const fs::path trace_dir = work_dir / "traces";
    fs::create_directories(trace_dir);
    tracer.WriteJson(trace_dir / (std::string(def->name) + "-" +
                                  std::to_string(opt.seed) + ".json"));
  }
  fs::remove_all(run_dir);
  PrintResultLine(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ciao::perfbench

int main(int argc, char** argv) { return ciao::perfbench::Main(argc, argv); }
