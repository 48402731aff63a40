// The traced run's instruments: an in-memory span recorder, a delegating
// QuerySink that times each query's slide hook and window evaluation, and
// the per-layer replays that call each layer's public functions on their
// own over the workload's topic and input.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Spans recorded by one thread; kept in memory and written out at exit.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t slide = -1;
  };

  /// Opens a span under the innermost open span; returns its id.
  std::int32_t begin(const std::string& name, std::int64_t slide = -1);
  void end(std::int32_t id);

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::int64_t slide = -1)
        : tracer_(tracer), id_(tracer.begin(name, slide)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t id_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< duration minus the part child spans cover
  };
  /// Per span name.
  std::map<std::string, Totals> totals() const;
  Totals totals(const std::string& name) const;

  /// One JSON object per line: name, start/end (ns), parent index, slide.
  void write(const std::string& path) const;

 private:
  std::uint32_t intern(const std::string& name);

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Instruments a traced facade run: wraps every registered query in a
/// timing sink and samples the runtime threads' CPU in the window callback,
/// while the thread pool is still alive.
class TraceContext {
 public:
  explicit TraceContext(Tracer& tracer) : tracer_(tracer) {}

  /// A copy of `queries` with every sink wrapped in a timing sink.
  core::QuerySet wrap(const core::QuerySet& queries);

  /// Starts a run: forgets the previous run's thread readings.
  void begin_run();
  /// Called from the window callback; `cpu` receives the latest readings.
  void on_window(std::vector<std::pair<std::string, std::int64_t>>& cpu);
  /// Caller-thread CPU spent reading /proc in this run (subtracted from the
  /// merger's busy time).
  std::int64_t probe_cpu_ns() const noexcept { return probe_cpu_ns_; }

 private:
  Tracer& tracer_;
  std::int64_t probe_cpu_ns_ = 0;
};

// ------------------------------------------------------------------ replays

struct ExchangeReplay {
  double route_ns_per_rec = 0.0;
  double records_per_run = 0.0;
  double probes_per_run = 0.0;
};

/// Consumer::poll draining the whole topic; ns per record.
double replay_poll(ingest::Broker& broker, Tracer& tracer);

/// Exchange::run() on its own over the topic, a drain thread recycling its
/// batches.
ExchangeReplay replay_exchange(ingest::Broker& broker, std::size_t workers,
                               Tracer& tracer);

struct DriverReplay {
  double offer_batch_ns_per_rec = 0.0;
  double close_us_per_slide = 0.0;  ///< self time, query evaluation excluded
};

/// Consumer + PipelineDriver driven the way the sequential facade path
/// drives them, with spans around poll, offer_batch and advance/finish.
DriverReplay replay_driver(const Workload& workload, ingest::Broker& broker,
                           std::uint64_t seed, Tracer& tracer);

struct SamplingReplay {
  double offer_ns_per_rec = 0.0;
  double accept_share = 0.0;
  double skip_share = 0.0;
  double merge_us_per_slide = 0.0;
};

/// Per-slide OasrsSampler::offer_batch and two-shard merge over `input`.
SamplingReplay replay_sampling(const Workload& workload,
                               std::span<const Record> input,
                               std::uint64_t seed, Tracer& tracer);

struct SketchReplay {
  double count_min_ns_per_rec = 0.0;
  double hll_ns_per_rec = 0.0;
  double quantile_ns_per_rec = 0.0;
  double merge_us_per_slide = 0.0;
  double cm_overshoot_share = 0.0;
};

/// SlideSketches::absorb with one-spec plans, two-shard merges with the
/// full plan, and the Count-Min ε·N guarantee checked per window.
SketchReplay replay_sketches(const Workload& workload,
                             std::span<const Record> input,
                             const Truth& truth, Tracer& tracer);

}  // namespace perfbench
