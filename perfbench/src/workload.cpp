// Workload definitions, input generation, the exact reference and the
// output checks.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

namespace {

using sketch::SketchSpec;

std::vector<Workload> make_workloads() {
  std::vector<Workload> workloads;
  // The single-threaded baseline: broker polling and the driver's
  // per-record offer path do nearly all of the work.
  workloads.push_back({.name = "seq_interleaved", .workers = 1});
  // The same job sharded: the exchange routes runs of about one record and
  // is the bottleneck; 1% is where skip-ahead sampling wins.
  workloads.push_back({.name = "sharded_interleaved", .workers = 2});
  // Bursty 256-record messages, 40% fraction and three sketch sinks: the
  // workers digesting sketches are the bottleneck, the exchange is mostly
  // idle, and long runs engage bulk routing and skip-ahead where it loses.
  workloads.push_back({.name = "sharded_sketch",
                       .workers = 2,
                       .fraction = 0.40,
                       .bursty = true,
                       .sketches = true});
  // An open loop at 1M records/s on a live topic: latency comes from the
  // wait/wake paths and broker appends. Runs by name only: its tail latency
  // follows the host's memory load too closely for BENCHMARK.json.
  workloads.push_back({.name = "live_paced",
                       .workers = 2,
                       .fraction = 0.10,
                       .live = true,
                       .slide_us = 10'000,
                       .window_us = 20'000,
                       .message_records = 200});
  return workloads;
}

/// Cumulative Zipf(kZipfExponent) distribution over the strata.
std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kStrata);
  double total = 0.0;
  for (std::uint64_t k = 0; k < kStrata; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::uint64_t draw_stratum(streamapprox::Rng& rng,
                           const std::vector<double>& cdf) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.uniform());
  return std::min<std::uint64_t>(it - cdf.begin(), kStrata - 1);
}

const core::QueryOutput* find_query(const core::WindowOutput& output,
                                    std::string_view name) {
  for (const auto& query : output.queries) {
    if (query.name == name) return &query;
  }
  return nullptr;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& workload : all_workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::size_t busy_threads(const Workload& workload) {
  return workload.workers <= 1 ? 1 : workload.workers + 2;
}

std::vector<Record> generate_input(const Workload& workload,
                                   std::uint64_t seed, std::size_t count) {
  static const std::vector<double> cdf = zipf_cdf();
  streamapprox::Rng rng(seed);
  std::vector<Record> records(count);
  std::uint64_t stratum = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!workload.bursty || i % workload.message_records == 0) {
      stratum = draw_stratum(rng, cdf);
    }
    // Per-stratum means spread over [20, 80]; values stay positive so the
    // quantile sketch's relative guarantee applies.
    const double mean = 20.0 + static_cast<double>((stratum * 37) % 61);
    records[i].stratum = stratum;
    records[i].value = std::max(0.5, rng.gaussian(mean, 5.0));
    records[i].event_time_us = static_cast<std::int64_t>(i);
  }
  return records;
}

sketch::SketchSpec sketch_spec(SketchSpec::Kind kind) {
  SketchSpec spec;
  spec.kind = kind;
  spec.key = kind == SketchSpec::Kind::kHyperLogLog
                 ? SketchSpec::KeySource::kValueInt
                 : SketchSpec::KeySource::kStratum;
  spec.epsilon = kSketchEpsilon;
  spec.delta = kSketchDelta;
  spec.top_k = 10;
  return spec;
}

core::QuerySet make_queries(const Workload& workload) {
  core::QuerySet queries;
  queries.aggregate(std::string(kSumQuery),
                    {core::Aggregation::kSum, /*per_stratum=*/true});
  queries.aggregate(std::string(kMeanQuery),
                    {core::Aggregation::kMean, /*per_stratum=*/false});
  queries.histogram(std::string(kHistogramQuery), {0.0, 100.0, 20});
  if (workload.sketches) {
    queries.sketch(std::string(kTopKQuery),
                   sketch_spec(SketchSpec::Kind::kCountMin));
    queries.sketch(std::string(kDistinctQuery),
                   sketch_spec(SketchSpec::Kind::kHyperLogLog));
    queries.sketch(std::string(kQuantileQuery),
                   sketch_spec(SketchSpec::Kind::kQuantile), kQuantileProbes);
  }
  return queries;
}

core::StreamApproxConfig make_config(const Workload& workload,
                                     const std::string& topic,
                                     std::uint64_t seed) {
  core::StreamApproxConfig config;
  config.topic = topic;
  config.queries = make_queries(workload);
  config.budget = streamapprox::estimation::QueryBudget::fraction(
      workload.fraction);
  config.window.size_us = workload.window_us;
  config.window.slide_us = workload.slide_us;
  config.workers = workload.workers;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------- ground truth

Truth compute_truth(const Workload& workload,
                    const std::vector<Record>& input) {
  streamapprox::engine::WindowConfig window;
  window.size_us = workload.window_us;
  window.slide_us = workload.slide_us;
  const auto exact = core::exact_window_results(input, window);
  Truth truth;
  truth.sums = core::evaluate_windows(
      exact, {core::Aggregation::kSum, /*per_stratum=*/true});
  const auto by_time = [](const Record& record, std::int64_t t) {
    return record.event_time_us < t;
  };
  std::vector<double> values;
  for (const auto& result : exact) {
    WindowTruth w;
    w.start_us = result.window_start_us;
    w.end_us = result.window_end_us;
    w.stratum_counts.assign(kStrata, 0);
    w.stratum_sums.assign(kStrata, 0.0);
    double total = 0.0;
    for (const auto& cell : result.cells) {
      w.records += cell.seen;
      w.stratum_counts.at(cell.stratum) += cell.seen;
      w.stratum_sums.at(cell.stratum) += cell.sum;
      total += cell.sum;
    }
    w.mean = w.records > 0 ? total / static_cast<double>(w.records) : 0.0;
    w.first = std::lower_bound(input.begin(), input.end(), w.start_us,
                               by_time) - input.begin();
    w.last = std::lower_bound(input.begin(), input.end(), w.end_us,
                              by_time) - input.begin();
    if (workload.sketches && w.last > w.first) {
      values.clear();
      for (std::size_t i = w.first; i < w.last; ++i) {
        values.push_back(input[i].value);
      }
      // The sketch reports the value at rank floor(q * (n - 1)).
      for (const double q : kQuantileProbes) {
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1));
        std::nth_element(values.begin(), values.begin() + rank, values.end());
        w.quantiles.push_back(values[rank]);
      }
    }
    truth.windows.push_back(std::move(w));
  }
  return truth;
}

void corrupt_truth(Truth& truth, Corruption corruption) {
  if (truth.windows.empty()) return;
  WindowTruth& first = truth.windows.front();
  switch (corruption) {
    case Corruption::kNone:
      break;
    case Corruption::kRecordCount:
      first.records += 1;
      break;
    case Corruption::kSketch: {
      auto top = std::max_element(first.stratum_counts.begin(),
                                  first.stratum_counts.end());
      *top += first.records;  // no Count-Min estimate can reach this
      if (!first.quantiles.empty()) first.quantiles.front() *= 1.5;
      break;
    }
  }
}

Observed observe(const core::WindowOutput& output, std::int64_t now_ns) {
  Observed seen;
  seen.emitted_ns = now_ns;
  seen.records_seen = output.records_seen;
  seen.end_us = output.estimate.window_end_us;
  if (const auto* q = find_query(output, kSumQuery)) {
    seen.sum = q->estimate;
    seen.sum_z = q->z;
    seen.end_us = q->estimate.window_end_us;
  }
  if (const auto* q = find_query(output, kMeanQuery)) {
    seen.mean = q->estimate;
    seen.mean_z = q->z;
  }
  if (const auto* q = find_query(output, kTopKQuery)) seen.topk = q->sketch;
  if (const auto* q = find_query(output, kQuantileQuery)) {
    seen.quantiles = q->sketch;
  }
  return seen;
}

// ------------------------------------------------------------------ checks

void Checker::problem(std::string text) {
  if (problems_.size() < 8) problems_.push_back(std::move(text));
}

bool Checker::window_ok(const WindowTruth& truth, const Observed& seen) {
  std::ostringstream where;
  where << "window ending " << truth.end_us << " us: ";
  if (seen.records_seen != truth.records) {
    problem(where.str() + "records_seen " + std::to_string(seen.records_seen) +
            " != exact " + std::to_string(truth.records));
    return false;
  }
  if (!seen.sum || !seen.mean) {
    problem(where.str() + "aggregate answer missing");
    return false;
  }
  if (!workload_.sketches) return true;
  if (!seen.topk || !seen.quantiles) {
    problem(where.str() + "sketch answer missing");
    return false;
  }
  // Count-Min never undercounts.
  for (const auto& [key, estimate] : seen.topk->heavy_hitters) {
    if (key >= kStrata || estimate < truth.stratum_counts[key]) {
      problem(where.str() + "Count-Min estimate " + std::to_string(estimate) +
              " for stratum " + std::to_string(key) + " below exact " +
              std::to_string(key < kStrata ? truth.stratum_counts[key] : 0));
      return false;
    }
  }
  // Every reported quantile is within α of the exact value.
  const auto& reported = seen.quantiles->quantiles;
  if (reported.size() != truth.quantiles.size()) {
    problem(where.str() + "quantile probe count differs");
    return false;
  }
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const double exact = truth.quantiles[i];
    const double slack = kSketchEpsilon * std::abs(exact) * (1.0 + 1e-9);
    if (std::abs(reported[i].second - exact) > slack) {
      std::ostringstream text;
      text << where.str() << "quantile " << reported[i].first << " = "
           << reported[i].second << " outside alpha of exact " << exact;
      problem(text.str());
      return false;
    }
  }
  return true;
}

void Checker::check_run(const std::vector<Observed>& windows) {
  std::map<std::int64_t, const Observed*> by_end;
  for (const auto& seen : windows) {
    if (!by_end.emplace(seen.end_us, &seen).second) {
      ++attempted_;
      ++failed_;
      problem("window ending " + std::to_string(seen.end_us) +
              " us emitted twice");
    }
  }
  std::vector<core::WindowEstimate> sums;
  sums.reserve(windows.size());
  for (const auto& truth : truth_.windows) {
    ++attempted_;
    const auto it = by_end.find(truth.end_us);
    if (it == by_end.end()) {
      ++failed_;
      problem("window ending " + std::to_string(truth.end_us) +
              " us not emitted");
      continue;
    }
    const Observed& seen = *it->second;
    by_end.erase(it);
    if (!window_ok(truth, seen)) ++failed_;
    if (seen.sum) {
      sums.push_back(*seen.sum);
      std::vector<bool> reported(kStrata, false);
      for (const auto& [stratum, result] : seen.sum->groups) {
        if (stratum >= kStrata) continue;
        reported[stratum] = true;
        covered_ += result.interval(seen.sum_z).contains(
            truth.stratum_sums[stratum]);
        ++estimates_;
      }
      for (std::uint64_t s = 0; s < kStrata; ++s) {
        estimates_ += !reported[s] && truth.stratum_counts[s] > 0;
      }
      double total = 0.0;
      for (const double v : truth.stratum_sums) total += v;
      covered_ += seen.sum->overall.interval(seen.sum_z).contains(total);
      ++estimates_;
    }
    if (seen.mean) {
      covered_ += seen.mean->overall.interval(seen.mean_z).contains(
          truth.mean);
      ++estimates_;
    }
  }
  for (const auto& [end, seen] : by_end) {
    ++attempted_;
    ++failed_;
    problem("unexpected window ending " + std::to_string(end) + " us");
  }
  loss_total_ += core::mean_accuracy_loss(
      sums, truth_.sums, {core::Aggregation::kSum, /*per_stratum=*/true});
  ++loss_runs_;
}

double Checker::accuracy_loss_pct() const {
  return loss_runs_ == 0 ? 0.0
                         : 100.0 * loss_total_ / static_cast<double>(loss_runs_);
}

double Checker::bound_coverage() const {
  return estimates_ == 0 ? 0.0
                         : static_cast<double>(covered_) /
                               static_cast<double>(estimates_);
}

}  // namespace perfbench
