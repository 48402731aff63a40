// Sketch-vs-sample ablation: the three mergeable sketch kinds (Count-Min
// heavy hitters, HyperLogLog distinct count, log-bucket quantiles) against
// the same query classes answered from a 10% OASRS stratified sample
// (estimation/sample_queries.h). The axes are the key regime (Zipf-skewed /
// uniform) and the key universe ("strata"), because that is what separates
// the two approaches structurally: weight-scaled sample counts track heavy
// hitters well under skew, but a sample cannot see the distinct keys it
// dropped and its tail quantiles degrade with the sampling fraction — the
// gap the full-stream sketch sinks close at a fixed small memory cost.
//
// Sketch rows digest through SlideSketchState::absorb, the path the sketch
// sinks run on every worker, so the digest rates include the run-at-a-time
// kernels (one Count-Min update per run of equal keys).
//
// Writes BENCH_micro_sketches.json (schema-gated by
// scripts/check_bench_json.py): one run per (method, sketch kind, regime,
// universe) cell with digest throughput and the measured error against the
// exact stream answer. Count-Min sketch rows also carry the guarantee
// Count-Min actually makes: the share of the universe's keys whose estimate
// overshoots the exact count by more than ε·N ("overshoot_share"), which
// the checker gates at ≤ δ ("delta"). Scale the workload with
// SA_BENCH_SCALE.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/table.h"
#include "engine/record.h"
#include "estimation/sample_queries.h"
#include "sampling/oasrs.h"
#include "sketch/sketch_query.h"

namespace {

using namespace streamapprox;
using engine::Record;

constexpr int kPasses = 3;
constexpr std::size_t kTopK = 10;
constexpr double kSampleFraction = 0.10;
constexpr double kCmEpsilon = 0.005;
constexpr double kCmDelta = 0.01;
constexpr double kHllEpsilon = 0.02;
constexpr double kQuantileAlpha = 0.02;
const std::vector<double> kProbes = {0.5, 0.95, 0.99};

/// Keys drawn from the regime over [0, universe); values lognormal so the
/// quantile ablation has a heavy tail to chase.
std::vector<Record> make_stream(const std::string& regime, std::size_t count,
                                std::uint64_t universe) {
  Rng rng(0x5ee7ULL + universe + (regime == "zipf" ? 1 : 0));
  std::vector<Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Record record;
    record.stratum = static_cast<sampling::StratumId>(
        regime == "zipf" ? rng.zipf(universe, 1.2) : rng.uniform_int(universe));
    record.value = rng.lognormal(3.0, 1.0);
    record.event_time_us = static_cast<std::int64_t>(i);
    records.push_back(record);
  }
  return records;
}

/// Exact stream answers, computed once per cell.
struct GroundTruth {
  std::map<std::uint64_t, std::uint64_t> counts;
  std::vector<std::uint64_t> top_keys;  // true top-K, count desc / key asc
  std::size_t distinct = 0;
  std::vector<double> quantiles;  // exact value at each probe
};

GroundTruth exact_answers(const std::vector<Record>& records) {
  GroundTruth truth;
  for (const auto& record : records) ++truth.counts[record.stratum];
  truth.distinct = truth.counts.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked(
      truth.counts.begin(), truth.counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < std::min(kTopK, ranked.size()); ++i) {
    truth.top_keys.push_back(ranked[i].first);
  }
  std::vector<double> values;
  values.reserve(records.size());
  for (const auto& record : records) values.push_back(record.value);
  std::sort(values.begin(), values.end());
  for (const double q : kProbes) {
    truth.quantiles.push_back(values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))]);
  }
  return truth;
}

/// Mean relative error of the estimated counts of the TRUE top-K keys (a
/// missing key estimates 0) — the heavy-hitter accuracy both methods chase.
/// Count-Min promises no relative error (a light key's estimate may be many
/// times its count); its guarantee is overshoot_share below.
double heavy_hitter_error(
    const GroundTruth& truth,
    const std::map<std::uint64_t, double>& estimated) {
  double total = 0.0;
  for (const std::uint64_t key : truth.top_keys) {
    const double exact = static_cast<double>(truth.counts.at(key));
    const auto it = estimated.find(key);
    const double est = it == estimated.end() ? 0.0 : it->second;
    total += std::abs(est - exact) / exact;
  }
  return truth.top_keys.empty()
             ? 0.0
             : total / static_cast<double>(truth.top_keys.size());
}

/// Share of the universe's keys whose Count-Min estimate exceeds the exact
/// count by more than ε·N — the event Count-Min bounds by δ per key.
double overshoot_share(const GroundTruth& truth,
                       const sketch::CountMinSketch& cm,
                       std::uint64_t universe) {
  const double slack = kCmEpsilon * static_cast<double>(cm.total());
  std::size_t over = 0;
  for (std::uint64_t key = 0; key < universe; ++key) {
    const auto it = truth.counts.find(key);
    const std::uint64_t exact = it == truth.counts.end() ? 0 : it->second;
    if (static_cast<double>(cm.estimate(key) - exact) > slack) ++over;
  }
  return static_cast<double>(over) / static_cast<double>(universe);
}

/// A sketch spec keyed on the record's stratum.
sketch::SketchSpec spec_for(sketch::SketchSpec::Kind kind, double epsilon) {
  sketch::SketchSpec spec;
  spec.kind = kind;
  spec.key = sketch::SketchSpec::KeySource::kStratum;
  spec.epsilon = epsilon;
  spec.delta = kCmDelta;
  spec.top_k = kTopK;
  spec.seed = 7;
  return spec;
}

/// Fresh state for `spec` with the whole stream absorbed in one call.
sketch::SlideSketchState digest_stream(const sketch::SketchSpec& spec,
                                       const std::vector<Record>& records) {
  auto state = sketch::SlideSketchState::make(spec);
  state.absorb(records.data(), records.size());
  return state;
}

/// Mean relative error over the probe grid.
double quantile_error(const GroundTruth& truth,
                      const std::vector<double>& answers) {
  double total = 0.0;
  for (std::size_t i = 0; i < kProbes.size(); ++i) {
    total += std::abs(answers[i] - truth.quantiles[i]) /
             std::abs(truth.quantiles[i]);
  }
  return total / static_cast<double>(kProbes.size());
}

struct Measured {
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  double measured_error = 0.0;
};

/// Best-of-kPasses timing of `digest` (which rebuilds its state each pass);
/// the error comes from `error_of` over the last pass's state (all paths are
/// deterministic, so every pass answers identically).
template <typename DigestFn, typename ErrorFn>
Measured measure(std::size_t n, const DigestFn& digest,
                 const ErrorFn& error_of) {
  Measured best;
  for (int pass = 0; pass < kPasses; ++pass) {
    Stopwatch watch;
    digest();
    const double wall = watch.seconds();
    if (pass == 0 || wall < best.wall_seconds) best.wall_seconds = wall;
  }
  best.records_per_sec = best.wall_seconds > 0.0
                             ? static_cast<double>(n) / best.wall_seconds
                             : 0.0;
  best.measured_error = error_of();
  return best;
}

bench::Json run_json(const std::string& method, const std::string& sketch,
                     const std::string& regime, std::uint64_t universe,
                     std::size_t records, const Measured& measured) {
  auto entry = bench::Json::object();
  entry.set("mode", method + "-" + regime);
  entry.set("workers", 1);
  entry.set("throughput", measured.records_per_sec);
  entry.set("wall_seconds", measured.wall_seconds);
  entry.set("method", method);
  entry.set("sketch", sketch);
  entry.set("regime", regime);
  entry.set("strata", universe);
  entry.set("records", records);
  entry.set("records_per_sec", measured.records_per_sec);
  entry.set("measured_error", measured.measured_error);
  return entry;
}

sampling::StratifiedSample<Record> draw_sample(
    const std::vector<Record>& records) {
  sampling::OasrsConfig config;
  config.total_budget = static_cast<std::size_t>(
      std::max(16.0, static_cast<double>(records.size()) * kSampleFraction));
  config.seed = 0xab1e;
  auto sampler = sampling::make_oasrs<Record>(config);
  sampler.offer_batch(records.data(), records.size());
  return sampler.take();
}

}  // namespace

int main() {
  const std::size_t count = bench::scaled(std::size_t{1} << 18);
  std::printf(
      "Sketch-vs-sample ablation: Count-Min / HLL / quantile sketches vs a "
      "%.0f%% OASRS sample (%zu records/cell, best of %d passes, scale "
      "%.2f)\n\n",
      kSampleFraction * 100.0, count, kPasses, bench::bench_scale());

  struct Cell {
    const char* regime;
    std::uint64_t universe;
  };
  const std::vector<Cell> cells = {
      {"zipf", 256}, {"zipf", 4096}, {"uniform", 256}, {"uniform", 4096}};

  const auto key_fn = [](const Record& r) {
    return static_cast<std::uint64_t>(r.stratum);
  };

  auto runs_json = bench::Json::array();
  Table table("Sketch vs sample accuracy (mean relative error)",
              {"Regime", "Universe", "Query", "Sketch err", "Sample err",
               "Sketch rec/s", "Sample rec/s"});
  Table guarantee("Count-Min guarantee: share of keys overshooting eps*N",
                  {"Regime", "Universe", "Overshoot share", "Delta"});
  for (const auto& cell : cells) {
    const auto records = make_stream(cell.regime, count, cell.universe);
    const auto truth = exact_answers(records);
    const auto sample = draw_sample(records);

    // Timed once per cell: the sample path's digest is the OASRS offer loop
    // itself (shared by all three query classes), so each sample row
    // reports the same digest throughput with its own answer error.
    const auto sample_digest = [&] {
      auto drawn = draw_sample(records);
      (void)drawn;
    };

    // ---- Count-Min vs weight-scaled sample counts.
    const auto cm_spec = spec_for(sketch::SketchSpec::Kind::kCountMin,
                                  kCmEpsilon);
    sketch::SlideSketchState cm_state;
    const auto cm_measured = measure(
        records.size(), [&] { cm_state = digest_stream(cm_spec, records); },
        [&] {
          std::map<std::uint64_t, double> estimated;
          for (const std::uint64_t key : truth.top_keys) {
            estimated[key] =
                static_cast<double>(cm_state.count_min->estimate(key));
          }
          return heavy_hitter_error(truth, estimated);
        });
    const double cm_overshoot =
        overshoot_share(truth, *cm_state.count_min, cell.universe);
    const auto sample_hh = measure(records.size(), sample_digest, [&] {
      std::map<std::uint64_t, double> estimated;
      for (const auto& [key, est] :
           estimation::sample_heavy_hitters(sample, key_fn, kTopK)) {
        estimated[key] = est;
      }
      return heavy_hitter_error(truth, estimated);
    });
    auto cm_json = run_json("sketch", "count_min", cell.regime, cell.universe,
                            records.size(), cm_measured);
    cm_json.set("overshoot_share", cm_overshoot);
    cm_json.set("delta", kCmDelta);
    runs_json.push(cm_json);
    guarantee.add_row({cell.regime, std::to_string(cell.universe),
                       Table::num(cm_overshoot), Table::num(kCmDelta)});
    runs_json.push(run_json("sample", "count_min", cell.regime, cell.universe,
                            records.size(), sample_hh));
    table.add_row({cell.regime, std::to_string(cell.universe), "heavy hitters",
                   Table::num(cm_measured.measured_error),
                   Table::num(sample_hh.measured_error),
                   bench::format_throughput(cm_measured.records_per_sec),
                   bench::format_throughput(sample_hh.records_per_sec)});

    // ---- HyperLogLog vs distinct-keys-observed-in-sample.
    const auto hll_spec = spec_for(sketch::SketchSpec::Kind::kHyperLogLog,
                                   kHllEpsilon);
    sketch::SlideSketchState hll_state;
    const auto hll_measured = measure(
        records.size(), [&] { hll_state = digest_stream(hll_spec, records); },
        [&] {
          const double truth_d = static_cast<double>(truth.distinct);
          return std::abs(hll_state.hll->estimate() - truth_d) / truth_d;
        });
    const auto sample_distinct = measure(records.size(), sample_digest, [&] {
      const double truth_d = static_cast<double>(truth.distinct);
      const double est =
          static_cast<double>(estimation::sample_distinct(sample, key_fn));
      return std::abs(est - truth_d) / truth_d;
    });
    runs_json.push(run_json("sketch", "hll", cell.regime, cell.universe,
                            records.size(), hll_measured));
    runs_json.push(run_json("sample", "hll", cell.regime, cell.universe,
                            records.size(), sample_distinct));
    table.add_row({cell.regime, std::to_string(cell.universe), "distinct",
                   Table::num(hll_measured.measured_error),
                   Table::num(sample_distinct.measured_error),
                   bench::format_throughput(hll_measured.records_per_sec),
                   bench::format_throughput(sample_distinct.records_per_sec)});

    // ---- Log-bucket quantiles vs weight-expanded sample quantiles.
    const auto quant_spec = spec_for(sketch::SketchSpec::Kind::kQuantile,
                                     kQuantileAlpha);
    sketch::SlideSketchState quant_state;
    const auto quant_measured = measure(
        records.size(),
        [&] { quant_state = digest_stream(quant_spec, records); },
        [&] {
          std::vector<double> answers;
          for (const double q : kProbes) {
            answers.push_back(quant_state.quantile->quantile(q));
          }
          return quantile_error(truth, answers);
        });
    const auto sample_quant = measure(records.size(), sample_digest, [&] {
      std::vector<double> answers;
      for (const double q : kProbes) {
        answers.push_back(estimation::sample_quantile(sample, q));
      }
      return quantile_error(truth, answers);
    });
    runs_json.push(run_json("sketch", "kll", cell.regime, cell.universe,
                            records.size(), quant_measured));
    runs_json.push(run_json("sample", "kll", cell.regime, cell.universe,
                            records.size(), sample_quant));
    table.add_row({cell.regime, std::to_string(cell.universe), "quantiles",
                   Table::num(quant_measured.measured_error),
                   Table::num(sample_quant.measured_error),
                   bench::format_throughput(quant_measured.records_per_sec),
                   bench::format_throughput(sample_quant.records_per_sec)});
  }
  table.print();
  guarantee.print();

  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("records_per_cell", count);
  meta.set("passes", kPasses);
  meta.set("sample_fraction", kSampleFraction);
  meta.set("top_k", kTopK);
  meta.set("cm_epsilon", kCmEpsilon);
  meta.set("cm_delta", kCmDelta);
  meta.set("hll_epsilon", kHllEpsilon);
  meta.set("quantile_alpha", kQuantileAlpha);
  auto body = bench::Json::object();
  body.set("meta", meta);
  body.set("runs", runs_json);
  bench::write_bench_json("micro_sketches", body);

  bench::paper_shape(
      "Expected shape: the weight-scaled sample tracks Zipf heavy hitters "
      "but misses uniform ones; sample_distinct undercounts whenever the "
      "universe outruns the budget while HLL stays within its 2% band; and "
      "tail quantiles from the sample wobble where the deterministic "
      "log-bucket sketch holds its alpha bound — all at a fixed small "
      "memory cost and full-stream digest rates.");
  return 0;
}
