// Sampler-kernel microbenchmarks (google-benchmark): per-item cost of each
// sampling algorithm in isolation, plus the ablations DESIGN.md calls out
// (Algorithm R vs the adaptive reservoir kernel, OASRS allocation policies,
// ScaSRS vs Bernoulli, grouping cost of STS).
//
// Before the google-benchmark suite runs, main() measures the sampling-kernel
// ablation and saves it to BENCH_micro_samplers.json, so CI can schema-check
// and archive the trajectory like the fig_* benches. Each row is one cell
// (stream shape × effective sampling fraction) run by one kernel (pinned
// Algorithm R, or the adaptive kernel OASRS runs by default) through one
// offer path (per-record offer, or offer_run over same-stratum runs).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "engine/record.h"
#include "sampling/oasrs.h"
#include "sampling/reservoir.h"
#include "sampling/scasrs.h"
#include "sampling/streaming_bernoulli.h"
#include "sampling/sts.h"
#include "workload/synthetic.h"

namespace {

using streamapprox::engine::Record;
using namespace streamapprox;

std::vector<Record> bench_stream(std::size_t n) {
  workload::SyntheticStream stream(workload::gaussian_substreams(30000.0),
                                   424242);
  return stream.generate_count(n);
}

// ---- Reservoir: pinned Algorithm R vs the adaptive kernel (Algorithm R
// draws until k/seen < 1/kSkipAheadRatio, Algorithm L skips after).

void BM_ReservoirAlgorithmR(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  const auto capacity = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sampling::ReservoirSampler<Record> reservoir(capacity, 7,
                                                 /*skip_ahead=*/false);
    for (const auto& record : records) reservoir.offer(record);
    benchmark::DoNotOptimize(reservoir.items().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ReservoirAlgorithmR)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ReservoirAdaptive(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  const auto capacity = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sampling::ReservoirSampler<Record> reservoir(capacity, 7);
    for (const auto& record : records) reservoir.offer(record);
    benchmark::DoNotOptimize(reservoir.items().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ReservoirAdaptive)->Arg(64)->Arg(1024)->Arg(16384);

// The adaptive kernel's offer_run on exchange-shaped runs: in the Algorithm
// L phase it touches only the geometric acceptance positions of each run.

void BM_ReservoirAdaptiveOfferRun(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  const auto capacity = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRun = 1024;
  for (auto _ : state) {
    sampling::ReservoirSampler<Record> reservoir(capacity, 7);
    for (std::size_t i = 0; i < records.size(); i += kRun) {
      reservoir.offer_run(records.data() + i,
                          std::min(kRun, records.size() - i));
    }
    benchmark::DoNotOptimize(reservoir.items().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ReservoirAdaptiveOfferRun)->Arg(64)->Arg(1024)->Arg(16384);

// ---- OASRS end-to-end offer cost (3 strata, budget = 10% of stream).

void BM_OasrsOffer(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  for (auto _ : state) {
    sampling::OasrsConfig config;
    config.total_budget = records.size() / 10;
    config.seed = 9;
    auto sampler = sampling::make_oasrs<Record>(config);
    for (const auto& record : records) sampler.offer(record);
    auto sample = sampler.take();
    benchmark::DoNotOptimize(sample.strata.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_OasrsOffer);

// ---- Batch samplers at fraction 60% (the paper's default).

void BM_ScaSrsBatch(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  Rng rng(11);
  for (auto _ : state) {
    auto result = sampling::scasrs_sample(records, 0.6, rng);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ScaSrsBatch);

void BM_BernoulliBatch(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  Rng rng(12);
  for (auto _ : state) {
    auto result = sampling::bernoulli_sample(records, 0.6, rng);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_BernoulliBatch);

void BM_StsLocalBatch(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  Rng rng(13);
  for (auto _ : state) {
    auto sample = sampling::sts_sample_local(
        records, streamapprox::engine::RecordStratum{}, 0.6, rng, true);
    benchmark::DoNotOptimize(sample.strata.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_StsLocalBatch);

// The grouping step alone — the data arrangement STS pays for even before
// sampling (the shuffle adds synchronisation on top in the full engine).

void BM_GroupByStratum(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  for (auto _ : state) {
    auto groups = sampling::group_by_stratum(
        records, streamapprox::engine::RecordStratum{});
    benchmark::DoNotOptimize(&groups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_GroupByStratum);

// ---- Streaming Bernoulli (lower-bound baseline).

void BM_StreamingBernoulli(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  for (auto _ : state) {
    sampling::StreamingBernoulliSampler<Record> sampler(0.6, 15);
    for (const auto& record : records) sampler.offer(record);
    benchmark::DoNotOptimize(sampler.items().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_StreamingBernoulli);

// ---- OASRS allocation policy ablation (equal vs proportional).

void BM_OasrsAllocationPolicy(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  const auto policy = static_cast<sampling::AllocationPolicy>(state.range(0));
  for (auto _ : state) {
    sampling::OasrsConfig config;
    config.total_budget = records.size() / 10;
    config.policy = policy;
    config.seed = 17;
    auto sampler = sampling::make_oasrs<Record>(config);
    for (const auto& record : records) sampler.offer(record);
    auto sample = sampler.take();
    benchmark::DoNotOptimize(sample.strata.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_OasrsAllocationPolicy)
    ->Arg(static_cast<int>(sampling::AllocationPolicy::kEqual))
    ->Arg(static_cast<int>(sampling::AllocationPolicy::kProportional));

// ---- Saved sampling-kernel ablation: BENCH_micro_samplers.json -----------

/// The two stream shapes of the ablation. "chunked": same-stratum runs of
/// 1024 records rotating over 4 strata, the run shape the exchange stamps on
/// bursty input. "interleaved": 64 strata in turn, runs of one record, the
/// shape of record-by-record interleaved input.
struct StreamShape {
  const char* name;
  std::size_t strata;
  std::size_t run_length;
};
constexpr StreamShape kShapes[] = {{"chunked", 4, 1024}, {"interleaved", 64, 1}};

std::vector<Record> shaped_stream(const StreamShape& shape, std::size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Record{
        static_cast<sampling::StratumId>((i / shape.run_length) %
                                         shape.strata),
        static_cast<double>(i % 1000), static_cast<std::int64_t>(i) * 100});
  }
  return records;
}

sampling::OasrsConfig ablation_config(std::size_t budget, bool skip_ahead) {
  sampling::OasrsConfig config;
  config.total_budget = budget;
  config.seed = 0xbeef;
  config.skip_ahead = skip_ahead;
  return config;
}

/// Wall time of `passes` fresh samplers over the whole stream, summed
/// across passes (one untimed warm-up first).
template <typename OfferAll>
double time_passes(std::size_t budget, int passes, bool skip_ahead,
                   OfferAll&& offer_all) {
  const auto one_pass = [&] {
    auto sampler =
        sampling::make_oasrs<Record>(ablation_config(budget, skip_ahead));
    offer_all(sampler);
    auto sample = sampler.take();
    benchmark::DoNotOptimize(sample.strata.data());
  };
  one_pass();  // warm-up
  Stopwatch watch;
  for (int p = 0; p < passes; ++p) one_pass();
  return watch.seconds();
}

/// The sampling-kernel ablation: {pinned Algorithm R, adaptive kernel} ×
/// {offer, offer_run} per (stream, fraction) cell. At 1% the reservoirs end
/// far past the R → L switch (seen/k = 100); at 40–50% they never reach it.
/// ratio_vs_algorithm_r divides a row's throughput by the Algorithm R row of
/// the same cell and offer path.
void write_kernel_ablation_json() {
  const std::size_t n = bench::scaled(std::size_t{1} << 20);
  const int passes = 5;
  const double fractions[] = {0.01, 0.10, 0.40, 0.50};

  auto runs = bench::Json::array();
  for (const StreamShape& shape : kShapes) {
    const auto records = shaped_stream(shape, n);
    const auto per_record = [&](auto& sampler) {
      for (const auto& record : records) sampler.offer(record);
    };
    const auto per_run = [&](auto& sampler) {
      for (std::size_t i = 0; i < records.size(); i += shape.run_length) {
        const std::size_t len =
            std::min(shape.run_length, records.size() - i);
        sampler.offer_run(records[i].stratum, records.data() + i, len);
      }
    };
    for (const double fraction : fractions) {
      const auto budget = static_cast<std::size_t>(
          std::max(4.0, static_cast<double>(n) * fraction));
      for (const char* path : {"offer", "offer_run"}) {
        const bool by_run = std::string(path) == "offer_run";
        double algorithm_r_throughput = 0.0;
        for (const bool skip_ahead : {false, true}) {
          const double wall =
              by_run ? time_passes(budget, passes, skip_ahead, per_run)
                     : time_passes(budget, passes, skip_ahead, per_record);
          const double throughput =
              wall > 0.0 ? static_cast<double>(n) * passes / wall : 0.0;
          if (!skip_ahead) algorithm_r_throughput = throughput;
          const std::string kernel = skip_ahead ? "adaptive" : "algorithm_r";
          auto run = bench::Json::object();
          run.set("mode", kernel + "_" + path);
          run.set("kernel", kernel);
          run.set("path", path);
          run.set("stream", shape.name);
          run.set("workers", 1);
          run.set("fraction", fraction);
          run.set("budget", static_cast<std::uint64_t>(budget));
          run.set("throughput", throughput);
          run.set("ratio_vs_algorithm_r",
                  algorithm_r_throughput > 0.0
                      ? throughput / algorithm_r_throughput
                      : 0.0);
          run.set("wall_seconds", wall);
          run.set("records_per_pass", static_cast<std::uint64_t>(n));
          run.set("passes", passes);
          runs.push(std::move(run));
        }
      }
    }
  }

  auto body = bench::Json::object();
  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("records_per_pass", static_cast<std::uint64_t>(n));
  meta.set("passes", passes);
  meta.set("skip_ahead_ratio", sampling::kSkipAheadRatio);
  body.set("meta", std::move(meta));
  body.set("runs", std::move(runs));
  const std::string path = bench::write_bench_json("micro_samplers", body);
  if (!path.empty()) {
    std::printf("sampling-kernel ablation saved to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  write_kernel_ablation_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
