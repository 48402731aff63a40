// Tests for approximate HISTOGRAM queries: the weighted sample histogram
// must statistically recreate the population histogram, including through
// the StreamApprox facade.
#include "estimation/histogram_query.h"

#include <gtest/gtest.h>

#include "core/stream_approx.h"
#include "engine/record.h"
#include "ingest/replay.h"
#include "sampling/oasrs.h"
#include "workload/synthetic.h"

namespace streamapprox::estimation {
namespace {

using engine::Record;

TEST(WeightedHistogram, EmptySample) {
  sampling::StratifiedSample<Record> sample;
  const auto histogram = weighted_histogram(
      sample, engine::RecordValue{}, HistogramSpec{0.0, 10.0, 5});
  EXPECT_EQ(histogram.total(), 0.0);
}

TEST(WeightedHistogram, AppliesStratumWeights) {
  sampling::StratifiedSample<Record> sample;
  sampling::StratumSample<Record> a;
  a.stratum = 0;
  a.seen = 100;
  a.weight = 50.0;
  a.items = {Record{0, 1.0, 0}, Record{0, 2.0, 0}};
  sampling::StratumSample<Record> b;
  b.stratum = 1;
  b.seen = 3;
  b.weight = 1.0;
  b.items = {Record{1, 8.0, 0}};
  sample.strata = {a, b};

  const auto histogram = weighted_histogram(
      sample, engine::RecordValue{}, HistogramSpec{0.0, 10.0, 10});
  EXPECT_DOUBLE_EQ(histogram.bucket(1), 50.0);  // value 1.0
  EXPECT_DOUBLE_EQ(histogram.bucket(2), 50.0);  // value 2.0
  EXPECT_DOUBLE_EQ(histogram.bucket(8), 1.0);   // value 8.0
  EXPECT_DOUBLE_EQ(histogram.total(), 101.0);
}

TEST(WeightedHistogram, RecreatesPopulationShapeThroughOasrs) {
  // 100k Gaussian values sampled at ~5% should reproduce the population
  // histogram within a few percent L1 distance.
  streamapprox::Rng rng(21);
  Histogram exact(0.0, 100.0, 25);
  sampling::OasrsConfig config;
  config.total_budget = 5000;
  config.seed = 22;
  auto sampler = sampling::make_oasrs<Record>(config);
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.gaussian(50.0, 12.0);
    exact.add(v);
    sampler.offer(Record{static_cast<sampling::StratumId>(i % 3), v, 0});
  }
  const auto approx = weighted_histogram(
      sampler.take(), engine::RecordValue{}, HistogramSpec{0.0, 100.0, 25});
  EXPECT_LT(exact.l1_distance(approx), 0.06);
  EXPECT_NEAR(approx.total(), exact.total(), exact.total() * 0.02);
}

TEST(WeightedHistogram, FacadeDeliversWindowHistograms) {
  workload::SyntheticStream stream(
      {{0, workload::Gaussian{50.0, 10.0}, 20000.0},
       {1, workload::Gaussian{20.0, 5.0}, 20000.0}},
      23);
  const auto records = stream.generate(4.0);

  ingest::Broker broker;
  broker.create_topic("hist", 2);
  ingest::ReplayTool replay(broker, "hist", records, {});

  core::StreamApproxConfig config;
  config.topic = "hist";
  config.queries.aggregate("query", {core::Aggregation::kMean, false});
  config.budget = QueryBudget::fraction(0.2);
  config.window = {1'000'000, 500'000};
  config.queries.histogram("histogram", {0.0, 100.0, 20});

  core::StreamApprox system(broker, config);
  std::size_t with_histogram = 0;
  std::size_t windows = 0;
  system.run([&](const core::WindowOutput& output) {
    ++windows;
    if (!output.histogram) return;
    ++with_histogram;
    // Bimodal input: mass near 20 and near 50, nothing near 80.
    const auto& h = *output.histogram;
    EXPECT_GT(h.total(), 0.0);
    const double near20 = h.bucket(4);   // [20,25)
    const double near80 = h.bucket(16);  // [80,85)
    EXPECT_GT(near20, 10.0 * (near80 + 1.0));
    // Total mass estimates the window population (seen records).
    EXPECT_NEAR(h.total(), static_cast<double>(output.records_seen),
                0.05 * static_cast<double>(output.records_seen));
  });
  replay.wait();
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(with_histogram, windows);
}

TEST(WeightedHistogram, PreRunAttachedHistogramMatchesConfigRegistered) {
  // A HISTOGRAM query registered on the config's QuerySet and the same sink
  // attached before run() join the registry at the same boundary: a seeded
  // sequential run produces bucket-identical window histograms either way.
  workload::SyntheticStream stream(
      {{0, workload::Gaussian{50.0, 10.0}, 20000.0},
       {1, workload::Gaussian{20.0, 5.0}, 20000.0}},
      24);
  const auto records = stream.generate(3.0);

  const auto run = [&](bool via_config) {
    ingest::Broker broker;
    broker.create_topic("hist", 1);
    ingest::ReplayTool replay(broker, "hist", records, {});
    core::StreamApproxConfig config;
    config.topic = "hist";
    config.budget = QueryBudget::fraction(0.2);
    config.window = {1'000'000, 500'000};
    config.queries.aggregate("mean", {core::Aggregation::kMean, false});
    if (via_config) config.queries.histogram("hist", {0.0, 100.0, 20});
    core::StreamApprox system(broker, config);
    if (!via_config) {
      system.attach_query(std::make_unique<core::HistogramSink>(
          "hist", HistogramSpec{0.0, 100.0, 20}));
    }
    std::vector<Histogram> histograms;
    system.run([&](const core::WindowOutput& output) {
      ASSERT_TRUE(output.histogram.has_value());
      histograms.push_back(*output.histogram);
    });
    replay.wait();
    return histograms;
  };

  const auto attached = run(false);
  const auto configured = run(true);
  ASSERT_GT(attached.size(), 2u);
  ASSERT_EQ(attached.size(), configured.size());
  for (std::size_t i = 0; i < attached.size(); ++i) {
    ASSERT_EQ(attached[i].bucket_count(), configured[i].bucket_count());
    EXPECT_EQ(attached[i].total(), configured[i].total());
    for (std::size_t k = 0; k < attached[i].bucket_count(); ++k) {
      EXPECT_EQ(attached[i].bucket(k), configured[i].bucket(k))
          << i << "/" << k;
    }
  }
}

TEST(WeightedHistogram, QuantilesFromWeightedSampleMatchPopulation) {
  streamapprox::Rng rng(29);
  Histogram exact(0.0, 200.0, 50);
  sampling::OasrsConfig config;
  config.total_budget = 4000;
  config.seed = 30;
  auto sampler = sampling::make_oasrs<Record>(config);
  for (int i = 0; i < 80000; ++i) {
    const double v = rng.exponential(0.02);  // mean 50, skewed
    exact.add(v);
    sampler.offer(Record{0, v, 0});
  }
  const auto approx = weighted_histogram(
      sampler.take(), engine::RecordValue{}, HistogramSpec{0.0, 200.0, 50});
  EXPECT_NEAR(approx.quantile(0.5), exact.quantile(0.5), 4.0);
  EXPECT_NEAR(approx.quantile(0.9), exact.quantile(0.9), 10.0);
}

}  // namespace
}  // namespace streamapprox::estimation
