// sa_perfbench: the repository benchmark. Runs one named workload through
// the StreamApprox facade, checks every emitted window against an exact
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output. See README.md.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Seconds of untimed work before any timing, so the timed runs never see
/// vCPUs that were idle (cold vCPUs ran at about a third of full speed for
/// the first ~2.5 s of a run).
constexpr double kWarmupSeconds = 3.0;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSaturatedSetups = 5;
constexpr int kLiveSetups = 101;
/// Records the sampling and sketch replays walk.
constexpr std::size_t kReplayRecords = 4'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  double warmup_seconds = kWarmupSeconds;
  std::size_t records = 0;  ///< 0 = the workload's default size
  Corruption corruption = Corruption::kNone;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = false;
  bool gross_failure = false;
  Metrics metrics;
  /// Informational numbers printed before the result line.
  std::map<std::string, std::string> detail;
};

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

std::string numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + number(values[i]);
  }
  return out + "]";
}

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// Outcome of the output checks, shared by every mode.
void finish_checks(const Checker& checker, Report& report) {
  report.attempted = checker.attempted();
  report.failed = checker.failed();
  report.gross_failure =
      report.attempted == 0 || 2 * report.failed > report.attempted;
  report.correct = report.failed == 0 && !report.gross_failure &&
                   checker.bound_coverage() >= 0.8 &&
                   checker.accuracy_loss_pct() < 10.0;
  report.detail["coverage_samples"] = std::to_string(
      checker.coverage_samples());
  std::string problems;
  for (const auto& p : checker.problems()) problems += "; " + p;
  if (!problems.empty()) report.detail["problems"] = problems.substr(2);
}

void add_quality(const Checker& checker, Metrics& metrics) {
  metrics.push_back({"accuracy_loss_pct", checker.accuracy_loss_pct(), "%"});
  metrics.push_back({"bound_coverage", checker.bound_coverage(), "share"});
  const double attempted = static_cast<double>(checker.attempted());
  metrics.push_back(
      {"window_ok_share",
       attempted > 0 ? 1.0 - static_cast<double>(checker.failed()) / attempted
                     : 0.0,
       "share"});
}

// ------------------------------------------------------- traced summaries

/// What the traced facade runs add up to.
struct FacadeTotals {
  double wall_s = 0.0;
  double caller_cpu_ns = 0.0;
  std::map<std::string, double> thread_cpu_ns;
  std::uint64_t steals = 0;
  std::uint64_t injector_pops = 0;
  std::uint64_t batches = 0;
  std::vector<double> worker_records;
  std::vector<double> lag_ms;
  std::uint64_t windows = 0;

  void add(double wall, std::int64_t caller_cpu,
           const std::vector<std::pair<std::string, std::int64_t>>& threads,
           const core::ShardedRunStats& stats, std::size_t emitted) {
    wall_s += wall;
    caller_cpu_ns += static_cast<double>(caller_cpu);
    for (const auto& [name, cpu] : threads) {
      thread_cpu_ns[name] += static_cast<double>(cpu);
    }
    steals += stats.steals;
    injector_pops += stats.injector_pops;
    batches += stats.batches_absorbed;
    worker_records.resize(
        std::max(worker_records.size(), stats.per_worker_records.size()));
    for (std::size_t w = 0; w < stats.per_worker_records.size(); ++w) {
      worker_records[w] += static_cast<double>(stats.per_worker_records[w]);
    }
    for (const auto lag : stats.watermark_lag_us) {
      lag_ms.push_back(static_cast<double>(lag) / 1e3);
    }
    windows += emitted;
  }

  double share(const std::string& prefix, bool max) const {
    double best = 0.0;
    double total = 0.0;
    std::size_t threads = 0;
    for (const auto& [name, cpu] : thread_cpu_ns) {
      if (name.rfind(prefix, 0) != 0) continue;
      const double s = cpu / 1e9 / std::max(wall_s, 1e-9);
      best = std::max(best, s);
      total += s;
      ++threads;
    }
    return max ? best : (threads ? total / static_cast<double>(threads) : 0.0);
  }
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const SendTimes* sends = nullptr;
  double poll_ns_per_rec = 0.0;
  ExchangeReplay exchange;
  DriverReplay driver;
  SamplingReplay sampling;
  SketchReplay sketches;
  FacadeTotals facade;
  const Tracer* facade_tracer = nullptr;
  double overhead_pct = 0.0;
};

Metrics layer_metrics(const LayerInputs& in) {
  Metrics m;
  const double sent = static_cast<double>(
      std::max<std::uint64_t>(1, in.sends->records));
  m.push_back({"broker.append_ns_per_rec", in.sends->total_ns / sent,
               "ns/rec"});
  m.push_back({"broker.send_p99_us", quantile(in.sends->message_us, 0.99),
               "us"});
  m.push_back({"broker.poll_ns_per_rec", in.poll_ns_per_rec, "ns/rec"});
  m.push_back({"exchange.route_ns_per_rec", in.exchange.route_ns_per_rec,
               "ns/rec"});
  m.push_back({"exchange.busy_share", in.facade.share("sa-exch", true),
               "share"});
  m.push_back({"exchange.records_per_run", in.exchange.records_per_run,
               "rec/run"});
  m.push_back({"exchange.probes_per_run", in.exchange.probes_per_run,
               "probes/run"});
  m.push_back({"sampling.offer_ns_per_rec", in.sampling.offer_ns_per_rec,
               "ns/rec"});
  m.push_back({"sampling.accept_share", in.sampling.accept_share, "share"});
  m.push_back({"sampling.skip_share", in.sampling.skip_share, "share"});
  m.push_back({"sampling.merge_us_per_slide", in.sampling.merge_us_per_slide,
               "us/slide"});
  m.push_back({"sketch.absorb_ns_per_rec.count_min",
               in.sketches.count_min_ns_per_rec, "ns/rec"});
  m.push_back({"sketch.absorb_ns_per_rec.hll", in.sketches.hll_ns_per_rec,
               "ns/rec"});
  m.push_back({"sketch.absorb_ns_per_rec.quantile",
               in.sketches.quantile_ns_per_rec, "ns/rec"});
  m.push_back({"sketch.merge_us_per_slide", in.sketches.merge_us_per_slide,
               "us/slide"});
  m.push_back({"sketch.cm_overshoot_share", in.sketches.cm_overshoot_share,
               "share"});
  m.push_back({"driver.offer_batch_ns_per_rec",
               in.driver.offer_batch_ns_per_rec, "ns/rec"});
  m.push_back({"driver.close_us_per_slide", in.driver.close_us_per_slide,
               "us/slide"});
  const auto totals = in.facade_tracer->totals();
  const double windows = static_cast<double>(
      std::max<std::uint64_t>(1, in.facade.windows));
  for (const char* kind : {"aggregate", "histogram", "sketch"}) {
    double ns = 0.0;
    for (const char* hook : {".on_slide", ".evaluate"}) {
      const auto it = totals.find(std::string("query.") + kind + hook);
      if (it != totals.end()) ns += it->second.total_ns;
    }
    m.push_back({std::string("query.evaluate_us_per_window.") + kind,
                 ns / 1e3 / windows, "us/window"});
  }
  const FacadeTotals& f = in.facade;
  m.push_back({"sched.worker_busy_share_max", f.share("sa-work", true),
               "share"});
  m.push_back({"sched.worker_busy_share_mean", f.share("sa-work", false),
               "share"});
  m.push_back({"sched.merger_busy_share",
               f.caller_cpu_ns / 1e9 / std::max(f.wall_s, 1e-9), "share"});
  const double batches = static_cast<double>(std::max<std::uint64_t>(
      1, f.batches));
  m.push_back({"sched.steal_share", static_cast<double>(f.steals) / batches,
               "share"});
  m.push_back({"sched.injector_share",
               static_cast<double>(f.injector_pops) / batches, "share"});
  double skew = 0.0;
  if (!f.worker_records.empty()) {
    double total = 0.0;
    for (const double r : f.worker_records) total += r;
    const double mean = total / static_cast<double>(f.worker_records.size());
    if (mean > 0.0) {
      skew = *std::max_element(f.worker_records.begin(),
                               f.worker_records.end()) /
             mean;
    }
  }
  m.push_back({"sched.worker_record_skew", skew, "ratio"});
  m.push_back({"sched.watermark_lag_p50_ms", quantile(f.lag_ms, 0.5), "ms"});
  m.push_back({"sched.watermark_lag_p99_ms", quantile(f.lag_ms, 0.99), "ms"});
  m.push_back({"trace.overhead_pct", in.overhead_pct, "%"});
  return m;
}

/// The replays every traced run ends with, over the workload's own topic
/// and input.
void run_replays(const Workload& workload, const Options& options,
                 ingest::Broker& broker, const std::vector<Record>& input,
                 const Truth& truth, Tracer& tracer, LayerInputs& in) {
  in.poll_ns_per_rec = replay_poll(broker, tracer);
  in.exchange = replay_exchange(broker, workload.workers, tracer);
  in.driver = replay_driver(workload, broker, options.seed, tracer);
  const std::span<const Record> prefix(
      input.data(), std::min(input.size(), kReplayRecords));
  in.sampling = replay_sampling(workload, prefix, options.seed, tracer);
  in.sketches = replay_sketches(workload, prefix, truth, tracer);
}

void write_traces(const Options& options, const Tracer& facade,
                  const Tracer& replays, Report& report) {
  for (const auto& [tracer, part] :
       {std::pair{&facade, "facade"}, std::pair{&replays, "replay"}}) {
    std::string self;
    for (const auto& [name, t] : tracer->totals()) {
      std::ostringstream line;
      line << name << " n=" << t.count << " total_ms=" << t.total_ns / 1e6
           << " self_ms=" << t.self_ns / 1e6;
      self += (self.empty() ? "" : "; ") + line.str();
    }
    report.detail[std::string("spans_") + part] = self;
    if (!options.trace_file.empty()) {
      tracer->write(options.trace_file + "." + part + ".jsonl");
    }
  }
}

// ------------------------------------------------------- saturated workloads

Report run_saturated(const Workload& workload, const Options& options) {
  Report report;
  const std::size_t records =
      options.records > 0 ? options.records : kSaturatedRecords;
  std::int64_t start = now_ns();
  const auto input = generate_input(workload, options.seed, records);
  report.detail["input_s"] = number(seconds_since(start));
  start = now_ns();
  Truth truth = compute_truth(workload, input);
  corrupt_truth(truth, options.corruption);
  report.detail["truth_s"] = number(seconds_since(start));
  report.detail["records_per_run"] = std::to_string(records);
  Checker checker(workload, truth);

  // The system's phase starts here: one set-up, then the runs. Peak RSS
  // covers exactly this phase; the further set-ups that setup_s takes its
  // median over happen after it is read, so freed heap memory of an earlier
  // set-up never hides or inflates the system's footprint.
  const bool peak_reset = reset_peak_rss();
  const double base_rss = rss_mb();
  std::vector<double> setups;
  SendTimes sends;
  const auto set_up = [&](SendTimes* times) {
    const std::int64_t begin = now_ns();
    auto topic = preload(workload, input, times);
    auto system = std::make_unique<core::StreamApprox>(
        *topic, make_config(workload, kTopic, options.seed));
    setups.push_back(seconds_since(begin));
    return std::pair{std::move(topic), std::move(system)};
  };
  auto [broker, facade] = set_up(options.trace ? &sends : nullptr);
  warm_up(options.warmup_seconds, busy_threads(workload), [&] {
    facade->run([](const core::WindowOutput&) {});
  });
  facade.reset();

  // Windows of a saturated run arrive back to back, so their latency is the
  // interval between consecutive windows: the time the pipeline spends per
  // window. A run emits only a handful, so the percentiles are taken within
  // each run and the median over runs is reported.
  std::vector<double> throughput;
  std::vector<double> interval_p50_ms;
  std::vector<double> interval_p99_ms;
  std::size_t intervals = 0;
  const auto measure = [&](RunSample& sample) {
    throughput.push_back(static_cast<double>(records) / sample.wall_s);
    std::vector<double> gaps_ms;
    for (std::size_t i = 1; i < sample.windows.size(); ++i) {
      gaps_ms.push_back(static_cast<double>(sample.windows[i].emitted_ns -
                                            sample.windows[i - 1].emitted_ns) /
                        1e6);
    }
    intervals += gaps_ms.size();
    interval_p50_ms.push_back(quantile(gaps_ms, 0.5));
    interval_p99_ms.push_back(quantile(gaps_ms, 0.99));
    checker.check_run(sample.windows);
  };

  if (!options.trace) {
    timed_runs(workload, *broker, options.seed, options.seconds, 3, nullptr,
               measure);
    report.metrics.push_back(
        {"throughput_rps", median(throughput), "rec/s"});
    report.metrics.push_back(
        {"emit_latency_p50_ms", median(interval_p50_ms), "ms"});
    report.metrics.push_back(
        {"emit_latency_p99_ms", median(interval_p99_ms), "ms"});
    add_quality(checker, report.metrics);
    const double peak = peak_rss_mb() - base_rss;
    broker.reset();
    while (setups.size() < kSaturatedSetups) set_up(nullptr);
    report.metrics.push_back({"setup_s", median(setups), "s"});
    report.metrics.push_back({"peak_rss_mb", peak, "MB"});
    report.detail["throughput_rps_runs"] = numbers(throughput);
    report.detail["setup_s_runs"] = numbers(setups);
    report.detail["latency_samples"] = std::to_string(intervals);
    report.detail["runs"] = std::to_string(throughput.size());
    report.detail["peak_rss_reset"] = peak_reset ? "yes" : "no";
    report.detail["base_rss_mb"] = number(base_rss);
    finish_checks(checker, report);
    return report;
  }

  // Traced: untraced runs first, then the same runs with the instruments,
  // then the layer replays.
  timed_runs(workload, *broker, options.seed, options.seconds / 2, 3, nullptr,
             measure);
  const double untraced = median(throughput);
  throughput.clear();
  Tracer facade_tracer;
  TraceContext context(facade_tracer);
  LayerInputs in;
  timed_runs(workload, *broker, options.seed, options.seconds / 2, 3,
             &context, [&](RunSample& sample) {
               measure(sample);
               in.facade.add(sample.wall_s, sample.caller_cpu_ns,
                             sample.thread_cpu, sample.stats,
                             sample.windows.size());
             });
  const double traced = median(throughput);
  in.overhead_pct = traced > 0.0 ? 100.0 * (untraced / traced - 1.0) : 0.0;
  in.sends = &sends;
  in.facade_tracer = &facade_tracer;
  Tracer replay_tracer;
  run_replays(workload, options, *broker, input, truth, replay_tracer, in);
  report.metrics = layer_metrics(in);
  report.detail["throughput_rps_untraced"] = number(untraced);
  report.detail["throughput_rps_traced"] = number(traced);
  write_traces(options, facade_tracer, replay_tracer, report);
  finish_checks(checker, report);
  return report;
}

// ------------------------------------------------------------ live workload

/// How much of the latency tail follows a stalled producer send: the share
/// of windows at or above the p99 latency during whose wait (from the slide
/// before the window's end until the window was emitted) a send_batch took
/// at least 1 ms.
void describe_stalls(const LiveSample& live, Report& report) {
  constexpr double kStallUs = 1000.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> stalls;  // start, end
  double longest_us = 0.0;
  for (std::size_t i = 0; i < live.sends.message_us.size(); ++i) {
    const double us = live.sends.message_us[i];
    longest_us = std::max(longest_us, us);
    if (us >= kStallUs) {
      stalls.emplace_back(live.send_start_ns[i],
                          live.send_start_ns[i] +
                              static_cast<std::int64_t>(us * 1e3));
    }
  }
  const double p99 = quantile(live.latency_ms, 0.99);
  const std::int64_t slide_ns = live.windows.size() > 1
      ? (live.windows[1].end_us - live.windows[0].end_us) * 1000
      : 0;
  std::size_t tail = 0;
  std::size_t after_stall = 0;
  for (std::size_t w = 0; w < live.windows.size(); ++w) {
    if (live.latency_ms[w] < p99) continue;
    ++tail;
    const std::int64_t from = live.window_due_ns[w] - slide_ns;
    const std::int64_t to = live.windows[w].emitted_ns;
    after_stall += std::any_of(stalls.begin(), stalls.end(), [&](auto s) {
      return s.first < to && s.second > from;
    });
  }
  report.detail["broker_send_max_us"] = number(longest_us);
  report.detail["broker_sends_over_1ms"] = std::to_string(stalls.size());
  report.detail["p99_windows_after_send_stall"] =
      std::to_string(after_stall) + " of " + std::to_string(tail);
}

Report run_live_workload(const Workload& workload, const Options& options) {
  Report report;
  // The traced run makes two live runs (untraced, traced) of half the
  // length each.
  const double seconds =
      options.trace ? std::max(1.0, options.seconds / 2) : options.seconds;
  const std::size_t records =
      options.records > 0
          ? options.records
          : static_cast<std::size_t>(seconds * kRecordsPerSecond);
  std::int64_t start = now_ns();
  const auto input = generate_input(workload, options.seed, records);
  report.detail["input_s"] = number(seconds_since(start));
  start = now_ns();
  Truth truth = compute_truth(workload, input);
  corrupt_truth(truth, options.corruption);
  report.detail["truth_s"] = number(seconds_since(start));
  report.detail["records_per_run"] = std::to_string(records);
  Checker checker(workload, truth);

  const bool peak_reset = reset_peak_rss();
  const double base_rss = rss_mb();
  warm_up(options.warmup_seconds, 0, {});
  std::vector<double> setups;
  for (int k = 0; k < kLiveSetups; ++k) {
    setups.push_back(live_setup_seconds(workload, options.seed));
  }

  if (!options.trace) {
    const LiveSample live = run_live(workload, input, options.seed, nullptr);
    checker.check_run(live.windows);
    report.metrics.push_back({"throughput_rps",
                              static_cast<double>(records) / live.wall_s,
                              "rec/s"});
    report.metrics.push_back(
        {"emit_latency_p50_ms", quantile(live.latency_ms, 0.5), "ms"});
    report.metrics.push_back(
        {"emit_latency_p99_ms", quantile(live.latency_ms, 0.99), "ms"});
    add_quality(checker, report.metrics);
    report.metrics.push_back({"setup_s", median(setups), "s"});
    report.metrics.push_back(
        {"peak_rss_mb", peak_rss_mb() - base_rss, "MB"});
    report.detail["latency_samples"] = std::to_string(live.latency_ms.size());
    report.detail["gen_sleep_overshoot_p50_us"] =
        number(quantile(live.overshoot_us, 0.5));
    report.detail["gen_sleep_overshoot_p99_us"] =
        number(quantile(live.overshoot_us, 0.99));
    report.detail["gen_late_messages"] = std::to_string(live.late_messages);
    report.detail["broker_send_p99_us"] =
        number(quantile(live.sends.message_us, 0.99));
    describe_stalls(live, report);
    report.detail["peak_rss_reset"] = peak_reset ? "yes" : "no";
    report.detail["base_rss_mb"] = number(base_rss);
    finish_checks(checker, report);
    return report;
  }

  LiveSample untraced = run_live(workload, input, options.seed, nullptr);
  checker.check_run(untraced.windows);
  untraced.broker.reset();
  Tracer facade_tracer;
  TraceContext context(facade_tracer);
  const LiveSample traced = run_live(workload, input, options.seed, &context);
  checker.check_run(traced.windows);
  LayerInputs in;
  in.facade.add(traced.wall_s, traced.caller_cpu_ns, traced.thread_cpu,
                traced.stats, traced.windows.size());
  const double base_p50 = quantile(untraced.latency_ms, 0.5);
  const double traced_p50 = quantile(traced.latency_ms, 0.5);
  in.overhead_pct = base_p50 > 0.0 ? 100.0 * (traced_p50 / base_p50 - 1.0)
                                   : 0.0;
  in.sends = &traced.sends;
  in.facade_tracer = &facade_tracer;
  report.detail["gen_sleep_overshoot_p99_us"] =
      number(quantile(traced.overshoot_us, 0.99));
  Tracer replay_tracer;
  run_replays(workload, options, *traced.broker, input, truth, replay_tracer,
              in);
  report.metrics = layer_metrics(in);
  report.detail["emit_latency_p50_ms_untraced"] = number(base_p50);
  report.detail["emit_latency_p50_ms_traced"] = number(traced_p50);
  write_traces(options, facade_tracer, replay_tracer, report);
  finish_checks(checker, report);
  return report;
}

Report run_workload(const Workload& workload, const Options& options) {
  return workload.live ? run_live_workload(workload, options)
                       : run_saturated(workload, options);
}

void print_report(const Report& report) {
  for (const auto& [key, value] : report.detail) {
    std::cout << "# " << key << ": " << value << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// --------------------------------------------------------------- self-test

/// Runs every workload at a tiny scale three ways: against the true
/// reference (must pass), and against a reference corrupted on purpose
/// (must be caught). Returns the number of expectations that failed.
int self_test() {
  int failures = 0;
  for (Workload workload : all_workloads()) {
    Options options;
    options.seed = 7;
    options.seconds = 0.2;
    options.warmup_seconds = 0.0;
    if (workload.live) {
      options.records = 300'000;
    } else {
      workload.slide_us = 50'000;
      workload.window_us = 100'000;
      options.records = 400'000;
    }
    std::vector<Corruption> cases = {Corruption::kNone,
                                     Corruption::kRecordCount};
    if (workload.sketches) cases.push_back(Corruption::kSketch);
    for (const Corruption corruption : cases) {
      options.corruption = corruption;
      const Report report = run_workload(workload, options);
      const bool clean = corruption == Corruption::kNone;
      const bool ok = clean ? report.correct && report.failed == 0
                            : report.failed > 0 && !report.correct;
      std::cout << (ok ? "ok   " : "FAIL ") << workload.name << " reference="
                << (clean ? "exact" : corruption == Corruption::kRecordCount
                                          ? "wrong-count"
                                          : "wrong-sketch")
                << " attempted=" << report.attempted
                << " failed=" << report.failed << "\n";
      if (!ok) {
        ++failures;
        for (const auto& [key, value] : report.detail) {
          std::cout << "    " << key << ": " << value << "\n";
        }
      }
    }
  }
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << std::endl;
  return failures;
}

int usage() {
  std::cerr << "usage: sa_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n"
               "       sa_perfbench --selftest\nworkloads:";
  for (const auto& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return self_test() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-file") {
      options.trace_file = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr || !(options.seconds > 0.0)) return usage();
  const Report report = run_workload(*workload, options);
  if (report.gross_failure) {
    for (const auto& [key, value] : report.detail) {
      std::cerr << key << ": " << value << "\n";
    }
    std::cerr << "gross output failure: " << report.failed << " of "
              << report.attempted << " windows failed\n";
    return 3;
  }
  print_report(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "sa_perfbench: " << error.what() << "\n";
    return 1;
  }
}
