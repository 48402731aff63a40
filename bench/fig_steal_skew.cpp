// The work-stealing morsel scheduler under stratum skew: ONE hot stratum
// carries most of the load, so static worker↔channel binding drowns one
// worker while the rest idle (stratum-affine routing sends the whole hot
// sub-stream to a single channel — exactly the skew of the paper's §5.7
// long-tail workloads, taken to its worst case). With stealing enabled,
// idle workers pull the hot channel's backlog off the loaded worker's deque
// and absorb it into their own OASRS samplers, which merge at slide close —
// so throughput should approach the balanced case while per-window
// records_seen stays identical (tests/parallel_equivalence_test.cpp proves
// the identity; this bench measures the speed).
//
// Three schedules over the same workload and worker count:
//   static       work_stealing=false — the PR 2 baseline;
//   steal        work_stealing=true, one exchange;
//   steal-2x     work_stealing=true, two exchange shards splitting the
//                partition poll/route work.
//
// Writes BENCH_steal_skew.json (schema shared with fig_parallel_scaling;
// scripts/check_bench_json.py validates both). The ≥1.5x steal-vs-static
// acceptance ratio only shows on a multi-core machine — a single-core
// container collapses every schedule to the same throughput.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/table.h"
#include "core/stream_approx.h"
#include "ingest/broker.h"
#include "workload/synthetic.h"

namespace {

using namespace streamapprox;

std::uint32_t ingest_rounds() {
  const char* env = std::getenv("SA_INGEST_ROUNDS");
  if (env == nullptr) return 64;
  const long value = std::atol(env);
  return value >= 0 ? static_cast<std::uint32_t>(value) : 64;
}

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kPartitions = 8;
constexpr std::size_t kStrata = 16;
constexpr double kHotShare = 0.85;  ///< fraction of load on stratum 0

/// One hot stratum at kHotShare of the total rate; the rest split evenly.
std::vector<workload::SubStreamSpec> hot_stratum_substreams(
    double total_rate) {
  std::vector<workload::SubStreamSpec> specs;
  specs.reserve(kStrata);
  for (std::size_t i = 0; i < kStrata; ++i) {
    workload::SubStreamSpec spec;
    spec.id = static_cast<sampling::StratumId>(i);
    spec.dist = workload::Gaussian{100.0 * static_cast<double>(i + 1),
                                   10.0 * static_cast<double>(i + 1)};
    spec.rate_per_sec =
        i == 0 ? total_rate * kHotShare
               : total_rate * (1.0 - kHotShare) /
                     static_cast<double>(kStrata - 1);
    specs.push_back(spec);
  }
  return specs;
}

struct Run {
  double throughput = 0.0;
  double wall_seconds = 0.0;
  std::size_t windows = 0;
  core::ShardedRunStats stats;
};

Run run_schedule(const std::vector<engine::Record>& records,
                 bool work_stealing, std::size_t exchanges) {
  ingest::Broker broker;
  broker.create_topic("skew", kPartitions);
  {
    ingest::Producer producer(broker, "skew");
    producer.send_batch(records);
    producer.finish();
  }

  core::StreamApproxConfig config;
  config.topic = "skew";
  config.budget = estimation::QueryBudget::fraction(0.4);
  config.window = {2'000'000, 1'000'000};
  config.workers = kWorkers;
  config.work_stealing = work_stealing;
  config.exchanges = exchanges;
  config.ingest_cost = {ingest_rounds()};
  config.seed = 1234;
  config.queries.aggregate("mean", {core::Aggregation::kMean, false});

  Run run;
  core::StreamApprox system(broker, config);
  Stopwatch watch;
  system.run([&](const core::WindowOutput&) { ++run.windows; });
  run.wall_seconds = watch.seconds();
  run.throughput = run.wall_seconds > 0.0
                       ? static_cast<double>(records.size()) / run.wall_seconds
                       : 0.0;
  run.stats = system.last_run_stats();
  return run;
}

bench::Json run_json(const std::string& mode, const Run& run) {
  auto entry = bench::Json::object();
  entry.set("mode", mode);
  entry.set("workers", kWorkers);
  entry.set("throughput", run.throughput);
  entry.set("wall_seconds", run.wall_seconds);
  entry.set("windows", run.windows);
  entry.set("exchanges", run.stats.exchanges);
  entry.set("owner_pops", run.stats.owner_pops);
  entry.set("steals", run.stats.steals);
  entry.set("injector_pushes", run.stats.injector_pushes);
  entry.set("injector_pops", run.stats.injector_pops);
  entry.set("batches_absorbed", run.stats.batches_absorbed);
  entry.set("records_absorbed", run.stats.records_absorbed);
  auto per_worker = bench::Json::array();
  for (const std::uint64_t records : run.stats.per_worker_records) {
    per_worker.push(run.wall_seconds > 0.0
                        ? static_cast<double>(records) / run.wall_seconds
                        : 0.0);
  }
  entry.set("records_per_sec_per_worker", per_worker);
  std::vector<double> lag;
  lag.reserve(run.stats.watermark_lag_us.size());
  for (const std::int64_t us : run.stats.watermark_lag_us) {
    lag.push_back(static_cast<double>(us));
  }
  auto lag_json = bench::Json::object();
  lag_json.set("p50_us", bench::percentile(lag, 50.0));
  lag_json.set("p90_us", bench::percentile(lag, 90.0));
  lag_json.set("p99_us", bench::percentile(lag, 99.0));
  lag_json.set("samples", lag.size());
  entry.set("watermark_lag", lag_json);
  return entry;
}

/// Max / mean of the per-worker record counts: 1.0 is a perfectly balanced
/// schedule; kWorkers means one worker absorbed everything.
double imbalance(const core::ShardedRunStats& stats) {
  if (stats.per_worker_records.empty()) return 0.0;
  std::uint64_t max = 0, sum = 0;
  for (const std::uint64_t r : stats.per_worker_records) {
    max = std::max(max, r);
    sum += r;
  }
  if (sum == 0) return 0.0;
  return static_cast<double>(max) * static_cast<double>(kWorkers) /
         static_cast<double>(sum);
}

}  // namespace

int main() {
  const std::size_t hardware = std::thread::hardware_concurrency();
  std::printf(
      "Steal vs static under skew: 1 hot stratum (%.0f%%), %zu workers "
      "(scale %.2f, ingest rounds %u, %zu hardware threads)\n",
      kHotShare * 100.0, kWorkers, bench::bench_scale(), ingest_rounds(),
      hardware);

  workload::SyntheticStream stream(
      hot_stratum_substreams(bench::scaled_rate(300000.0)), 47);
  const auto records = stream.generate(8.0);
  std::printf("workload: %zu records over 8 s event time, %zu strata\n\n",
              records.size(), kStrata);

  auto runs_json = bench::Json::array();
  Table table("Morsel schedules under a hot stratum",
              {"Schedule", "Throughput", "Wall s", "Steals", "Injector",
               "Imbalance", "Speedup"});

  const auto statically = run_schedule(records, /*work_stealing=*/false,
                                       /*exchanges=*/1);
  runs_json.push(run_json("static", statically));
  const double base = statically.throughput;
  const auto add_row = [&](const char* label, const Run& run) {
    table.add_row({label, bench::format_throughput(run.throughput),
                   Table::num(run.wall_seconds),
                   std::to_string(run.stats.steals),
                   std::to_string(run.stats.injector_pops),
                   Table::num(imbalance(run.stats)) + "x",
                   Table::num(base > 0.0 ? run.throughput / base : 0.0) +
                       "x"});
  };
  add_row("static", statically);

  const auto stealing = run_schedule(records, /*work_stealing=*/true,
                                     /*exchanges=*/1);
  runs_json.push(run_json("steal", stealing));
  add_row("steal", stealing);

  const auto sharded = run_schedule(records, /*work_stealing=*/true,
                                    /*exchanges=*/2);
  runs_json.push(run_json("steal-2x", sharded));
  add_row("steal-2x", sharded);

  table.print();

  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("ingest_rounds", ingest_rounds());
  meta.set("hardware_threads", hardware);
  meta.set("records", records.size());
  meta.set("strata", kStrata);
  meta.set("hot_share", kHotShare);
  auto body = bench::Json::object();
  body.set("meta", meta);
  body.set("runs", runs_json);
  bench::write_bench_json("steal_skew", body);

  bench::paper_shape(
      "Morsel-driven expectation (Leis et al. SIGMOD'14): work stealing "
      "recovers near-balanced throughput under skew that strands a static "
      "schedule on one worker — here >=1.5x over static binding on a "
      "multi-core machine, with per-window records_seen identical by the "
      "equivalence suite.");
  return 0;
}
