// Timing, process probes, set-up, the timed facade runs and the open-loop
// live generator.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Joins a thread on scope exit, so no exit path leaves one running.
class JoinGuard {
 public:
  explicit JoinGuard(std::thread& thread) : thread_(thread) {}
  ~JoinGuard() {
    if (thread_.joinable()) thread_.join();
  }
  JoinGuard(const JoinGuard&) = delete;
  JoinGuard& operator=(const JoinGuard&) = delete;

 private:
  std::thread& thread_;
};

/// Pins the calling thread to one allowed vCPU at a time; restores the
/// original affinity on destruction.
class RotatingAffinity {
 public:
  explicit RotatingAffinity(bool enabled) {
    CPU_ZERO(&original_);
    if (!enabled ||
        sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~RotatingAffinity() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  RotatingAffinity(const RotatingAffinity&) = delete;
  RotatingAffinity& operator=(const RotatingAffinity&) = delete;

  void pin(std::size_t turn) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::vector<std::pair<std::string, std::int64_t>> runtime_thread_cpu() {
  std::vector<std::pair<std::string, std::int64_t>> threads;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    std::string name;
    std::ifstream(entry.path() / "comm") >> name;
    if (name.rfind("sa-", 0) != 0) continue;
    std::int64_t on_cpu_ns = 0;
    std::ifstream(entry.path() / "schedstat") >> on_cpu_ns;
    threads.emplace_back(name, on_cpu_ns);
  }
  return threads;
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

void warm_up(double seconds, std::size_t busy,
             const std::function<void()>& work) {
  const std::size_t vcpus =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners(vcpus > busy ? vcpus - busy : 0);
  std::vector<std::unique_ptr<JoinGuard>> guards;
  struct Stopper {
    std::atomic<bool>& stop;
    ~Stopper() { stop.store(true); }
  };
  for (auto& spinner : spinners) {
    spinner = std::thread([&stop] {
      volatile std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 4096; ++i) sink = sink + static_cast<unsigned>(i);
      }
    });
    guards.push_back(std::make_unique<JoinGuard>(spinner));
  }
  // Declared after the guards: stops the spinners before they are joined.
  const Stopper stopper{stop};
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    if (work) {
      work();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } while (now_ns() < until);
}

std::unique_ptr<ingest::Broker> preload(const Workload& workload,
                                        const std::vector<Record>& input,
                                        SendTimes* times) {
  auto broker = std::make_unique<ingest::Broker>();
  broker->create_topic(kTopic, kPartitions);
  ingest::Producer producer(*broker, kTopic);
  std::vector<Record> message;
  message.reserve(workload.message_records);
  for (std::size_t first = 0; first < input.size();
       first += workload.message_records) {
    const std::size_t last =
        std::min(first + workload.message_records, input.size());
    message.assign(input.begin() + first, input.begin() + last);
    if (times == nullptr) {
      producer.send_batch(message);
      continue;
    }
    const std::int64_t start = now_ns();
    producer.send_batch(message);
    const auto elapsed = static_cast<double>(now_ns() - start);
    times->message_us.push_back(elapsed / 1e3);
    times->total_ns += elapsed;
    times->records += last - first;
  }
  producer.finish();
  return broker;
}

void timed_runs(const Workload& workload, ingest::Broker& broker,
                std::uint64_t seed, double seconds, std::size_t min_runs,
                TraceContext* trace,
                const std::function<void(RunSample&)>& each) {
  // The sequential path runs on this thread alone. The speed of one vCPU
  // drifts as other tenants load its sibling hyperthread, so each run is
  // pinned to the next vCPU in turn and the median covers all of them. The
  // sharded path's threads inherit this thread's affinity, so it stays
  // unpinned there.
  const RotatingAffinity affinity(workload.workers <= 1);
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t run = 0; run < min_runs || now_ns() < until; ++run) {
    affinity.pin(run);
    // A fresh facade per run: each run samples with its own seed.
    auto config = make_config(workload, kTopic, seed * 1'000'003 + run);
    if (trace != nullptr) config.queries = trace->wrap(config.queries);
    core::StreamApprox system(broker, std::move(config));
    RunSample sample;
    sample.windows.reserve(64);
    if (trace != nullptr) trace->begin_run();
    const auto on_window = [&](const core::WindowOutput& output) {
      sample.windows.push_back(observe(output, now_ns()));
      if (trace != nullptr) trace->on_window(sample.thread_cpu);
    };
    const std::int64_t cpu_start = thread_cpu_ns();
    const std::int64_t start = now_ns();
    system.run(on_window);
    const std::int64_t end = now_ns();
    sample.caller_cpu_ns = thread_cpu_ns() - cpu_start -
                           (trace != nullptr ? trace->probe_cpu_ns() : 0);
    sample.wall_s = static_cast<double>(end - start) / 1e9;
    sample.stats = system.last_run_stats();
    each(sample);
  }
}

// -------------------------------------------------------------- live runs

LiveSample run_live(const Workload& workload, const std::vector<Record>& input,
                    std::uint64_t seed, TraceContext* trace) {
  LiveSample sample;
  sample.broker = std::make_unique<ingest::Broker>();
  sample.broker->create_topic(kTopic, kPartitions);
  auto config = make_config(workload, kTopic, seed);
  if (trace != nullptr) config.queries = trace->wrap(config.queries);
  core::StreamApprox system(*sample.broker, std::move(config));
  ingest::Producer producer(*sample.broker, kTopic);

  // The generator owns its schedule: the message holding records
  // [first, last) is due when its last record's event time has passed on
  // the wall clock, measured from `origin`. It never waits for the system,
  // so a stall shows as latency of later windows, not as a slower send rate.
  const std::size_t per_message = workload.message_records;
  const auto due_ns = [&](std::int64_t origin, std::size_t last) {
    return origin + static_cast<std::int64_t>(
                        static_cast<double>(last) * 1e9 / kRecordsPerSecond);
  };
  const std::int64_t origin = now_ns() + 5'000'000;
  std::exception_ptr generator_error;
  std::thread generator([&] {
    try {
      std::vector<Record> message;
      message.reserve(per_message);
      for (std::size_t first = 0; first < input.size();
           first += per_message) {
        const std::size_t last = std::min(first + per_message, input.size());
        const std::int64_t due = due_ns(origin, last);
        if (now_ns() < due) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          sample.overshoot_us.push_back(
              static_cast<double>(now_ns() - due) / 1e3);
        } else {
          ++sample.late_messages;
        }
        message.assign(input.begin() + first, input.begin() + last);
        const std::int64_t start = now_ns();
        producer.send_batch(message);
        const auto elapsed = static_cast<double>(now_ns() - start);
        sample.sends.message_us.push_back(elapsed / 1e3);
        sample.sends.total_ns += elapsed;
        sample.sends.records += last - first;
        sample.send_start_ns.push_back(start);
      }
    } catch (...) {
      generator_error = std::current_exception();
    }
    producer.finish();
  });
  const JoinGuard join(generator);

  sample.windows.reserve(input.size() / per_message + 64);
  if (trace != nullptr) trace->begin_run();
  const auto on_window = [&](const core::WindowOutput& output) {
    sample.windows.push_back(observe(output, now_ns()));
    if (trace != nullptr) trace->on_window(sample.thread_cpu);
  };
  const std::int64_t cpu_start = thread_cpu_ns();
  const std::int64_t start = now_ns();
  system.run(on_window);
  const std::int64_t end = now_ns();
  sample.caller_cpu_ns = thread_cpu_ns() - cpu_start -
                         (trace != nullptr ? trace->probe_cpu_ns() : 0);
  sample.wall_s = static_cast<double>(end - start) / 1e9;
  sample.stats = system.last_run_stats();
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);

  // A window is complete once the message carrying its last record is due.
  for (const auto& seen : sample.windows) {
    const auto last_record = static_cast<std::size_t>(seen.end_us - 1);
    const std::size_t message_end =
        std::min((last_record / per_message + 1) * per_message, input.size());
    sample.window_due_ns.push_back(due_ns(origin, message_end));
    sample.latency_ms.push_back(
        static_cast<double>(seen.emitted_ns - sample.window_due_ns.back()) /
        1e6);
  }
  return sample;
}

double live_setup_seconds(const Workload& workload, std::uint64_t seed) {
  const std::int64_t start = now_ns();
  ingest::Broker broker;
  broker.create_topic(kTopic, kPartitions).seal();
  core::StreamApprox system(broker, make_config(workload, kTopic, seed));
  system.run([](const core::WindowOutput&) {});
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace perfbench
