// Tests for the StreamApprox facade: live broker consumption, window
// outputs with error bounds, budget kinds, adaptive feedback.
#include "core/stream_approx.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ingest/replay.h"
#include "workload/synthetic.h"

namespace streamapprox::core {
namespace {

std::vector<engine::Record> make_stream(double seconds, double rate,
                                        std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

StreamApproxConfig base_config() {
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  // Idleness is not under test here and every stream is replayed-and-sealed;
  // a generous grace keeps a starved replay thread on a loaded CI box from
  // tripping the idleness rule mid-stream.
  config.idle_partition_timeout_ms = 30'000;
  return config;
}

TEST(StreamApprox, RequiresExistingTopic) {
  ingest::Broker broker;
  EXPECT_THROW(StreamApprox(broker, base_config()), std::out_of_range);
}

// A zero-record poll never drains the topic, so both poll loops would spin
// forever: the constructor rejects the config instead.
void expect_zero_poll_batch_rejected(std::size_t workers) {
  ingest::Broker broker;
  broker.create_topic("input", 2);
  auto config = base_config();
  config.workers = workers;
  config.poll_batch = 0;
  EXPECT_THROW(StreamApprox(broker, config), std::invalid_argument);
  config.poll_batch = 1;
  EXPECT_NO_THROW(StreamApprox(broker, config));
}

TEST(StreamApprox, RejectsZeroPollBatchSequential) {
  expect_zero_poll_batch_rejected(1);
}

TEST(StreamApprox, RejectsZeroPollBatchSharded) {
  expect_zero_poll_batch_rejected(2);
}

// The constructor rejects a config field with a std::invalid_argument whose
// message names that field.
void expect_rejected(const std::function<void(StreamApproxConfig&)>& mutate,
                     const std::string& field) {
  ingest::Broker broker;
  broker.create_topic("input", 2);
  auto config = base_config();
  mutate(config);
  try {
    StreamApprox system(broker, config);
    ADD_FAILURE() << "config with a bad " << field << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("StreamApprox: " + field),
              std::string::npos)
        << error.what();
  }
}

TEST(StreamApprox, RejectsOutOfRangeBudgetValue) {
  using estimation::QueryBudget;
  for (const QueryBudget budget :
       {QueryBudget::fraction(-0.1), QueryBudget::fraction(0.0),
        QueryBudget::fraction(1.5), QueryBudget::fraction(std::nan("")),
        QueryBudget::latency_ms(0.0), QueryBudget::tokens(-5.0),
        QueryBudget::relative_error(std::numeric_limits<double>::infinity())}) {
    expect_rejected([&](StreamApproxConfig& c) { c.budget = budget; },
                    "budget.value");
  }
  // A fraction of exactly 1 (sample everything) and a latency budget above
  // 1 ms are both valid.
  ingest::Broker broker;
  broker.create_topic("input", 2);
  auto config = base_config();
  config.budget = estimation::QueryBudget::fraction(1.0);
  EXPECT_NO_THROW(StreamApprox(broker, config));
  config.budget = estimation::QueryBudget::latency_ms(250.0);
  EXPECT_NO_THROW(StreamApprox(broker, config));
}

TEST(StreamApprox, RejectsNonPositiveOrNonFiniteZ) {
  for (const double z : {-1.0, 0.0, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    expect_rejected([&](StreamApproxConfig& c) { c.z = z; }, "z");
  }
}

TEST(StreamApprox, ProducesWindowsWithBounds) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(4.0, 20000.0, 1);
  ingest::ReplayTool replay(broker, "input", records, {});
  StreamApprox system(broker, base_config());
  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) { outputs.push_back(output); });
  replay.wait();

  ASSERT_GE(outputs.size(), 5u);
  for (const auto& output : outputs) {
    EXPECT_GT(output.records_seen, 0u);
    EXPECT_GT(output.records_sampled, 0u);
    EXPECT_LE(output.records_sampled, output.records_seen);
    EXPECT_GT(output.estimate.overall.estimate, 0.0);
  }
}

TEST(StreamApprox, MeanWithinErrorBoundMostWindows) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(5.0, 20000.0, 2);
  // True mean of the Gaussian mix = (10+1000+10000)/3 ≈ 3670.
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.budget = estimation::QueryBudget::fraction(0.5);
  StreamApprox system(broker, config);
  int within = 0;
  int total = 0;
  system.run([&](const WindowOutput& output) {
    ++total;
    const auto interval = output.estimate.overall.interval(3.0);
    if (interval.contains(3670.0)) ++within;
  });
  replay.wait();
  ASSERT_GT(total, 0);
  // 3-sigma coverage should be nearly always; allow some slack for the
  // noisy small first/last windows.
  EXPECT_GE(static_cast<double>(within) / total, 0.7);
}

TEST(StreamApprox, FractionBudgetControlsSampleSize) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(4.0, 20000.0, 3);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.budget = estimation::QueryBudget::fraction(0.1);
  StreamApprox system(broker, config);
  std::uint64_t seen = 0;
  std::uint64_t sampled = 0;
  system.run([&](const WindowOutput& output) {
    seen += output.records_seen;
    sampled += output.records_sampled;
  });
  replay.wait();
  ASSERT_GT(seen, 0u);
  // After the first adaptation, the sampled share should be near 10%.
  const double fraction = static_cast<double>(sampled) / seen;
  EXPECT_LT(fraction, 0.25);
}

TEST(StreamApprox, AccuracyBudgetAdaptsBudgetUpward) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  // High-variance stream + tight accuracy target => budget must grow from
  // its initial 1024.
  const auto records = make_stream(6.0, 30000.0, 4);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.budget = estimation::QueryBudget::relative_error(0.001);
  StreamApprox system(broker, config);
  std::vector<std::size_t> budgets;
  system.run([&](const WindowOutput& output) {
    budgets.push_back(output.budget_in_force);
  });
  replay.wait();
  ASSERT_GE(budgets.size(), 3u);
  EXPECT_GT(budgets.back(), budgets.front());
}

TEST(StreamApprox, MultiQueryRegistrySharesOneSampledStream) {
  // Three registered queries (mixed aggregations, one per-stratum, one
  // histogram) over one topic: every window output carries all three
  // results, and the sampling counters equal a single-query run's — the
  // stream is consumed and sampled exactly once.
  const auto records = make_stream(4.0, 20000.0, 6);

  const auto run = [&](const std::function<void(StreamApproxConfig&)>& mutate) {
    ingest::Broker broker;
    broker.create_topic("input", 3);
    ingest::ReplayTool replay(broker, "input", records, {});
    auto config = base_config();
    mutate(config);
    StreamApprox system(broker, config);
    std::vector<WindowOutput> outputs;
    system.run([&](const WindowOutput& output) { outputs.push_back(output); });
    replay.wait();
    return outputs;
  };

  const auto multi = run([](StreamApproxConfig& config) {
    config.queries = QuerySet{};
    config.queries.aggregate("sum by substream", {Aggregation::kSum, true});
    config.queries.aggregate("overall mean", {Aggregation::kMean, false});
    config.queries.histogram("values", {0.0, 12000.0, 24});
  });
  const auto single = run([](StreamApproxConfig& config) {
    config.queries = QuerySet{};
    config.queries.aggregate("overall mean", {Aggregation::kMean, false});
  });

  ASSERT_GE(multi.size(), 5u);
  ASSERT_EQ(multi.size(), single.size());
  for (std::size_t i = 0; i < multi.size(); ++i) {
    ASSERT_EQ(multi[i].queries.size(), 3u);
    EXPECT_EQ(multi[i].queries[0].name, "sum by substream");
    EXPECT_FALSE(multi[i].queries[0].estimate.groups.empty());
    EXPECT_TRUE(multi[i].queries[1].estimate.groups.empty());
    EXPECT_TRUE(multi[i].queries[2].histogram.has_value());
    // Sampled once: every record is SEEN exactly once per window whether 1
    // or 3 queries are registered. (Sampled counts and estimates are
    // compared bit-exactly in pipeline_driver_test, which drives the driver
    // deterministically; through the live broker the moment a slide's
    // sampler picks up the adapting budget is poll-timing-dependent.)
    EXPECT_EQ(multi[i].records_seen, single[i].records_seen) << "window " << i;
    EXPECT_EQ(multi[i].estimate.window_end_us, single[i].estimate.window_end_us)
        << "window " << i;
    // The two runs estimate the same window mean: agreement within summed
    // 3-sigma bounds.
    const auto& a = multi[i].queries[1].estimate.overall;
    const auto& b = single[i].queries[0].estimate.overall;
    EXPECT_LE(std::abs(a.estimate - b.estimate),
              a.error_bound(3.0) + b.error_bound(3.0))
        << "window " << i;
  }
}

TEST(StreamApprox, EmptyQuerySetStillEmitsWindows) {
  // No registered query: windows still flow with their sampling counters
  // and bounds, and the first-query mirror carries only the window bounds.
  const auto records = make_stream(3.0, 20000.0, 7);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const auto run = [&](bool with_query) {
      ingest::Broker broker;
      broker.create_topic("input", 3);
      ingest::ReplayTool replay(broker, "input", records, {});
      auto config = base_config();
      config.workers = workers;
      if (!with_query) config.queries = QuerySet{};
      StreamApprox system(broker, config);
      EXPECT_EQ(system.query_count(), with_query ? 1u : 0u);
      std::vector<WindowOutput> outputs;
      system.run(
          [&](const WindowOutput& output) { outputs.push_back(output); });
      replay.wait();
      return outputs;
    };
    const auto empty = run(false);
    const auto reference = run(true);
    ASSERT_GE(empty.size(), 3u) << "workers=" << workers;
    ASSERT_EQ(empty.size(), reference.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < empty.size(); ++i) {
      EXPECT_TRUE(empty[i].queries.empty());
      EXPECT_FALSE(empty[i].histogram.has_value());
      EXPECT_EQ(empty[i].estimate.overall.sample_size, 0u);
      EXPECT_EQ(empty[i].records_seen, reference[i].records_seen)
          << "window " << i;
      EXPECT_GT(empty[i].records_sampled, 0u) << "window " << i;
      EXPECT_EQ(empty[i].estimate.window_start_us,
                reference[i].estimate.window_start_us)
          << "window " << i;
      EXPECT_EQ(empty[i].estimate.window_end_us,
                reference[i].estimate.window_end_us)
          << "window " << i;
    }
  }
}

TEST(StreamApprox, PerStratumQuery) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(3.0, 20000.0, 5);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.queries = QuerySet{};
  config.queries.aggregate("query", {Aggregation::kMean, true});
  StreamApprox system(broker, config);
  std::size_t windows_with_all_groups = 0;
  std::size_t total = 0;
  system.run([&](const WindowOutput& output) {
    ++total;
    if (output.estimate.groups.size() == 3) ++windows_with_all_groups;
  });
  replay.wait();
  ASSERT_GT(total, 0u);
  EXPECT_EQ(windows_with_all_groups, total);  // no sub-stream overlooked
}

}  // namespace
}  // namespace streamapprox::core
