// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// The benchmark drives StreamApprox only through its public headers: the
// facade for end-to-end numbers, and the broker, exchange, sampler, sketch
// and driver classes for the traced per-layer replays.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline_driver.h"
#include "core/query.h"
#include "core/stream_approx.h"
#include "engine/record.h"
#include "ingest/broker.h"
#include "sketch/sketch_query.h"

namespace perfbench {

namespace core = streamapprox::core;
namespace ingest = streamapprox::ingest;
namespace sketch = streamapprox::sketch;
using streamapprox::engine::Record;

// ---------------------------------------------------------------- workloads

/// Topic shape shared by every workload.
inline constexpr std::size_t kPartitions = 8;
inline constexpr std::uint64_t kStrata = 64;
inline constexpr double kZipfExponent = 0.5;
/// Event-time rate of every generated stream: record i is stamped i µs.
inline constexpr double kRecordsPerSecond = 1e6;
/// Records per repetition of the saturated workloads (8 slides of 1 s).
inline constexpr std::size_t kSaturatedRecords = 8'000'000;
/// Quantile probes of the quantile sketch query.
inline const std::vector<double> kQuantileProbes = {0.5, 0.95, 0.99};
/// Error target of every sketch query (Count-Min ε, HLL error, quantile α).
inline constexpr double kSketchEpsilon = 0.01;
inline constexpr double kSketchDelta = 0.01;

struct Workload {
  std::string name;
  std::size_t workers = 1;        ///< 1 = the sequential path
  double fraction = 0.01;         ///< sampling fraction budget
  bool bursty = false;            ///< one Zipf-chosen stratum per message
  bool sketches = false;          ///< add Count-Min, HLL and quantile sinks
  bool live = false;              ///< open-loop generator on a live topic
  std::int64_t slide_us = 1'000'000;
  std::int64_t window_us = 2'000'000;
  std::size_t message_records = 256;  ///< records per producer message
};

/// The named workload, or nullptr.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// Threads the workload keeps busy: the sequential loop, or the exchange,
/// the workers and the merger.
std::size_t busy_threads(const Workload& workload);

/// Deterministic input of `count` records for `seed`.
std::vector<Record> generate_input(const Workload& workload,
                                   std::uint64_t seed, std::size_t count);

/// Query names, in registration order.
inline constexpr std::string_view kSumQuery = "sum_by_stratum";
inline constexpr std::string_view kMeanQuery = "mean";
inline constexpr std::string_view kHistogramQuery = "histogram";
inline constexpr std::string_view kTopKQuery = "topk";
inline constexpr std::string_view kDistinctQuery = "distinct";
inline constexpr std::string_view kQuantileQuery = "quantiles";

core::QuerySet make_queries(const Workload& workload);
core::StreamApproxConfig make_config(const Workload& workload,
                                     const std::string& topic,
                                     std::uint64_t seed);
sketch::SketchSpec sketch_spec(sketch::SketchSpec::Kind kind);

// ------------------------------------------------------------- ground truth

struct WindowTruth {
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t records = 0;
  std::vector<std::uint64_t> stratum_counts;  ///< kStrata entries
  std::vector<double> stratum_sums;           ///< kStrata entries
  double mean = 0.0;
  std::vector<double> quantiles;  ///< exact value per kQuantileProbes entry
  /// [begin, end) indices of the window's records in the input.
  std::size_t first = 0;
  std::size_t last = 0;
};

struct Truth {
  std::vector<WindowTruth> windows;
  /// Exact per-stratum SUM estimates, for core::mean_accuracy_loss.
  std::vector<core::WindowEstimate> sums;
};

Truth compute_truth(const Workload& workload, const std::vector<Record>& input);

/// Ways the self-test breaks the reference on purpose.
enum class Corruption {
  kNone,
  kRecordCount,  ///< window 0 expects one record more than was sent
  kSketch,       ///< window 0's top stratum and first quantile are wrong
};
void corrupt_truth(Truth& truth, Corruption corruption);

/// What the benchmark keeps of one emitted window. Copied inside the window
/// callback, so it stays small.
struct Observed {
  std::int64_t emitted_ns = 0;
  std::int64_t end_us = 0;
  std::uint64_t records_seen = 0;
  std::optional<core::WindowEstimate> sum;
  std::optional<core::WindowEstimate> mean;
  double sum_z = 2.0;
  double mean_z = 2.0;
  std::optional<sketch::SketchAnswer> topk;
  std::optional<sketch::SketchAnswer> quantiles;
};

Observed observe(const core::WindowOutput& output, std::int64_t now_ns);

/// Checks emitted windows against the reference, one run() at a time.
class Checker {
 public:
  Checker(const Workload& workload, const Truth& truth)
      : workload_(workload), truth_(truth) {}

  void check_run(const std::vector<Observed>& windows);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  double accuracy_loss_pct() const;
  double bound_coverage() const;
  std::uint64_t coverage_samples() const noexcept { return estimates_; }
  /// First few failure descriptions, for the report.
  const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  bool window_ok(const WindowTruth& truth, const Observed& seen);
  void problem(std::string text);

  const Workload& workload_;
  const Truth& truth_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double loss_total_ = 0.0;
  std::uint64_t loss_runs_ = 0;
  std::uint64_t covered_ = 0;
  std::uint64_t estimates_ = 0;
  std::vector<std::string> problems_;
};

// ------------------------------------------------------------ measurement

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

std::int64_t now_ns();
/// CPU time of the calling thread.
std::int64_t thread_cpu_ns();
/// On-CPU time of every thread of this process whose name starts "sa-".
std::vector<std::pair<std::string, std::int64_t>> runtime_thread_cpu();
/// Resets VmHWM to the current RSS; returns false when the kernel refuses.
bool reset_peak_rss();
double rss_mb();
double peak_rss_mb();

double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Keeps every vCPU warm: runs `work` repeatedly for `seconds` while
/// spinning threads occupy the vCPUs the workload leaves idle.
void warm_up(double seconds, std::size_t busy,
             const std::function<void()>& work);

/// Per-message producer timings of one set-up or generator pass.
struct SendTimes {
  std::vector<double> message_us;
  double total_ns = 0.0;
  std::uint64_t records = 0;
};

/// Creates the topic and preloads `input` through a Producer in
/// message-sized batches, then seals it.
std::unique_ptr<ingest::Broker> preload(const Workload& workload,
                                        const std::vector<Record>& input,
                                        SendTimes* times);

inline const std::string kTopic = "bench";

/// Hooks a traced run installs into the facade run.
class TraceContext;

/// One timed facade run().
struct RunSample {
  double wall_s = 0.0;
  std::vector<Observed> windows;
  core::ShardedRunStats stats;
  std::int64_t caller_cpu_ns = 0;
  std::vector<std::pair<std::string, std::int64_t>> thread_cpu;
};

/// Repeats run() over the preloaded topic (fresh facade and seed each time)
/// until `seconds` have passed and at least `min_runs` ran; `each` sees
/// every sample as it completes.
void timed_runs(const Workload& workload, ingest::Broker& broker,
                std::uint64_t seed, double seconds, std::size_t min_runs,
                TraceContext* trace,
                const std::function<void(RunSample&)>& each);

/// One open-loop run on a fresh live topic; run_live in measure.cpp
/// describes the generator's schedule.
struct LiveSample {
  double wall_s = 0.0;
  std::vector<Observed> windows;
  std::vector<double> latency_ms;     ///< per window: emit − scheduled end
  std::vector<double> overshoot_us;   ///< generator wake − due, when it slept
  std::uint64_t late_messages = 0;    ///< messages the generator sent late
  SendTimes sends;
  std::vector<std::int64_t> send_start_ns;  ///< per message
  std::vector<std::int64_t> window_due_ns;  ///< per emitted window
  core::ShardedRunStats stats;
  std::int64_t caller_cpu_ns = 0;
  std::vector<std::pair<std::string, std::int64_t>> thread_cpu;
  std::unique_ptr<ingest::Broker> broker;  ///< sealed topic, for replays
};

LiveSample run_live(const Workload& workload, const std::vector<Record>& input,
                    std::uint64_t seed, TraceContext* trace);

/// One live set-up, timed: topic creation, facade construction, and the
/// pipeline's start and stop (a run() over an empty sealed topic).
double live_setup_seconds(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench
