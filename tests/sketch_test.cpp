// Statistical acceptance tests for the sketch data structures: ε/δ sizing,
// fixed-seed error bounds on Zipf and uniform key streams, and merge
// property tests (associativity / commutativity / partition-exactness) over
// randomized splits — the properties the sharded runtime's bit-identity
// guarantee rests on. Oracle properties compare the run-at-a-time digests
// and the dense quantile store against the per-record / std::map forms they
// replaced, which live on here as references.
#include "sketch/sketches.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <map>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/record.h"
#include "sketch/sketch_sink.h"

namespace streamapprox::sketch {
namespace {

std::vector<std::uint64_t> zipf_keys(std::size_t n, std::uint64_t universe,
                                     double s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.zipf(universe, s));
  return keys;
}

std::vector<std::uint64_t> uniform_keys(std::size_t n, std::uint64_t universe,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.uniform_int(universe));
  return keys;
}

// ---------------------------------------------------------------- Count-Min

TEST(CountMin, SizingFollowsErrorTargets) {
  // width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉ — the classic guarantee-driven sizing.
  EXPECT_EQ(CountMinSketch::width_for(0.01), 272u);
  EXPECT_EQ(CountMinSketch::width_for(0.001), 2719u);
  EXPECT_EQ(CountMinSketch::depth_for(0.01), 5u);
  EXPECT_EQ(CountMinSketch::depth_for(0.1), 3u);
  EXPECT_THROW(CountMinSketch::width_for(0.0), std::invalid_argument);
  EXPECT_THROW(CountMinSketch::depth_for(1.0), std::invalid_argument);

  const auto cm = CountMinSketch::for_error(0.01, 0.01, 7);
  EXPECT_EQ(cm.width(), 272u);
  EXPECT_EQ(cm.depth(), 5u);
}

TEST(CountMin, NeverUndercounts) {
  CountMinSketch cm(64, 3, 42);  // deliberately narrow: collisions certain
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(11);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.zipf(500, 1.2);
    cm.update(key);
    ++exact[key];
  }
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cm.estimate(key), count);
  }
}

// Fixed-seed acceptance: the measured per-key error stays within the
// configured ε·N bound for at least a 1−δ fraction of probes (the guarantee
// is per-key probabilistic), on both skewed and uniform key streams.
void expect_count_min_error_bound(const std::vector<std::uint64_t>& keys,
                                  double epsilon, double delta,
                                  std::uint64_t seed) {
  auto cm = CountMinSketch::for_error(epsilon, delta, seed);
  std::map<std::uint64_t, std::uint64_t> exact;
  for (const std::uint64_t key : keys) {
    cm.update(key);
    ++exact[key];
  }
  ASSERT_EQ(cm.total(), keys.size());
  const double bound =
      epsilon * static_cast<double>(keys.size());
  std::size_t probes = 0;
  std::size_t within = 0;
  for (const auto& [key, count] : exact) {
    const std::uint64_t estimate = cm.estimate(key);
    ASSERT_GE(estimate, count);
    const double overcount = static_cast<double>(estimate - count);
    ++probes;
    if (overcount <= bound) ++within;
    // Even δ-tail failures stay within a small multiple of the bound at
    // these sizes — a hard backstop against gross hashing defects.
    EXPECT_LE(overcount, 5.0 * bound + 1.0);
  }
  EXPECT_GE(static_cast<double>(within),
            (1.0 - delta) * static_cast<double>(probes));
}

TEST(CountMin, ErrorWithinBoundOnZipfStream) {
  expect_count_min_error_bound(zipf_keys(200'000, 10'000, 1.2, 101),
                               /*epsilon=*/0.005, /*delta=*/0.01, 1);
}

TEST(CountMin, ErrorWithinBoundOnUniformStream) {
  expect_count_min_error_bound(uniform_keys(200'000, 5'000, 202),
                               /*epsilon=*/0.005, /*delta=*/0.01, 2);
}

// -------------------------------------------------------------- HyperLogLog

TEST(HyperLogLog, SizingFollowsErrorTarget) {
  // 1.04/√(2^p) ≤ ε, clamped to [4, 18].
  EXPECT_EQ(HyperLogLog::precision_for(0.3), 4);
  EXPECT_EQ(HyperLogLog::precision_for(0.02), 12);
  EXPECT_EQ(HyperLogLog::precision_for(1e-9), 18);
  EXPECT_THROW(HyperLogLog::precision_for(0.0), std::invalid_argument);

  const HyperLogLog hll(12, 7);
  EXPECT_EQ(hll.register_count(), 4096u);
  EXPECT_NEAR(hll.standard_error(), 1.04 / 64.0, 1e-12);
}

void expect_hll_error_bound(const std::vector<std::uint64_t>& keys,
                            double epsilon, std::uint64_t seed) {
  auto hll = HyperLogLog::for_error(epsilon, seed);
  std::set<std::uint64_t> exact;
  for (const std::uint64_t key : keys) {
    hll.add(key);
    exact.insert(key);
  }
  const double truth = static_cast<double>(exact.size());
  // 4σ acceptance on a fixed seed: σ = 1.04/√m ≤ ε by construction.
  EXPECT_NEAR(hll.estimate(), truth, 4.0 * epsilon * truth + 2.0)
      << "true distinct " << truth;
}

TEST(HyperLogLog, ErrorWithinBoundOnZipfStream) {
  // Zipf visits a heavy head plus a long sampled tail: the distinct set is
  // well below the universe and the estimate must still track it.
  expect_hll_error_bound(zipf_keys(300'000, 50'000, 1.1, 303), 0.02, 3);
}

TEST(HyperLogLog, ErrorWithinBoundOnUniformStream) {
  expect_hll_error_bound(uniform_keys(300'000, 40'000, 404), 0.02, 4);
}

TEST(HyperLogLog, SmallRangeUsesLinearCounting) {
  HyperLogLog hll(12, 9);
  for (std::uint64_t k = 0; k < 100; ++k) hll.add(k);
  EXPECT_NEAR(hll.estimate(), 100.0, 3.0);
}

// ---------------------------------------------------------------- Quantiles

TEST(Quantile, DeterministicRelativeErrorBound) {
  // The log-bucket guarantee is deterministic: EVERY reported quantile of a
  // nonzero-valued stream is within α of the exact quantile value.
  const double alpha = 0.01;
  for (const std::uint64_t seed : {55u, 56u}) {
    QuantileSketch sketch(alpha);
    Rng rng(seed);
    std::vector<double> values;
    for (int i = 0; i < 50'000; ++i) {
      // Mixed-sign heavy-tailed values exercise both bucket stores.
      const double v = rng.lognormal(2.0, 1.5) * (rng.uniform() < 0.25 ? -1 : 1);
      values.push_back(v);
      sketch.update(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      const double exact = values[static_cast<std::size_t>(
          q * static_cast<double>(values.size() - 1))];
      const double approx = sketch.quantile(q);
      EXPECT_NEAR(approx, exact, alpha * std::abs(exact) + 1e-9)
          << "q=" << q << " seed=" << seed;
    }
  }
}

TEST(Quantile, HandlesZerosAndEmpty) {
  QuantileSketch sketch(0.05);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  sketch.update(0.0);
  sketch.update(0.0);
  sketch.update(10.0);
  EXPECT_EQ(sketch.quantile(0.25), 0.0);
  EXPECT_NEAR(sketch.quantile(1.0), 10.0, 0.5);
}

// ---------------------------------------------- Merge property tests
//
// For each sketch: build one sketch over the whole stream, then split the
// stream into random parts, build one sketch per part, merge them in a
// random order/association, and require EXACT equality with the whole-stream
// sketch. Randomized splits + shuffled merge order cover commutativity and
// associativity in one property; equality (operator== over the full state,
// plus the digest) is the bit-identity the sharded runtime relies on.

template <typename Sketch, typename UpdateFn>
void expect_merge_partition_exact(const std::vector<std::uint64_t>& keys,
                                  const Sketch& reference,
                                  const UpdateFn& update,
                                  const std::function<Sketch()>& fresh) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t parts = 2 + rng.uniform_int(6);
    std::vector<Sketch> partial;
    for (std::size_t p = 0; p < parts; ++p) partial.push_back(fresh());
    // Random assignment of records to parts (workers), preserving nothing
    // about order or balance.
    for (const std::uint64_t key : keys) {
      update(partial[rng.uniform_int(parts)], key);
    }
    // Merge in random association: repeatedly fold a random sketch into
    // another random one until one remains.
    std::vector<std::size_t> alive(parts);
    std::iota(alive.begin(), alive.end(), 0u);
    while (alive.size() > 1) {
      const std::size_t a = rng.uniform_int(alive.size());
      std::size_t b = rng.uniform_int(alive.size() - 1);
      if (b >= a) ++b;
      partial[alive[a]].merge(partial[alive[b]]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(b));
    }
    const Sketch& merged = partial[alive.front()];
    EXPECT_EQ(merged, reference) << "trial " << trial;
    EXPECT_EQ(merged.digest(), reference.digest()) << "trial " << trial;
  }
}

TEST(SketchMerge, CountMinPartitionExact) {
  const auto keys = zipf_keys(30'000, 2'000, 1.1, 77);
  auto reference = CountMinSketch::for_error(0.01, 0.05, 5);
  for (const std::uint64_t key : keys) reference.update(key);
  expect_merge_partition_exact<CountMinSketch>(
      keys, reference,
      [](CountMinSketch& cm, std::uint64_t key) { cm.update(key); },
      [] { return CountMinSketch::for_error(0.01, 0.05, 5); });
}

TEST(SketchMerge, HyperLogLogPartitionExact) {
  const auto keys = uniform_keys(30'000, 10'000, 88);
  auto reference = HyperLogLog::for_error(0.03, 6);
  for (const std::uint64_t key : keys) reference.add(key);
  expect_merge_partition_exact<HyperLogLog>(
      keys, reference,
      [](HyperLogLog& hll, std::uint64_t key) { hll.add(key); },
      [] { return HyperLogLog::for_error(0.03, 6); });
}

TEST(SketchMerge, QuantilePartitionExact) {
  const auto keys = zipf_keys(30'000, 5'000, 1.0, 99);
  QuantileSketch reference(0.02);
  const auto update = [](QuantileSketch& s, std::uint64_t key) {
    // Signed value derived from the key so both stores participate.
    const double v = (key % 3 == 0 ? -1.0 : 1.0) *
                     (static_cast<double>(key) + 0.5);
    s.update(v);
  };
  for (const std::uint64_t key : keys) update(reference, key);
  expect_merge_partition_exact<QuantileSketch>(
      keys, reference, update, [] { return QuantileSketch(0.02); });
}

TEST(SketchMerge, IncompatibleShapesThrow) {
  auto a = CountMinSketch(64, 3, 1);
  auto b = CountMinSketch(64, 4, 1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  HyperLogLog h1(8, 1), h2(9, 1);
  EXPECT_THROW(h1.merge(h2), std::invalid_argument);
  QuantileSketch q1(0.01), q2(0.02);
  EXPECT_THROW(q1.merge(q2), std::invalid_argument);
}

// ------------------------------------------------------------ Oracles
//
// The references below are the per-record digest and the std::map quantile
// store the library used before its run-at-a-time kernels. The optimised
// code must leave exactly the same state and produce bit-identical answers.

std::uint64_t reference_fold(std::uint64_t acc, std::uint64_t tag,
                             std::uint64_t value) {
  return acc + mix64(tag * 0x9ddfea08eb382d69ULL + value);
}

/// Log-bucket quantile sketch over two std::map stores, one insert per value.
class ReferenceQuantileSketch {
 public:
  explicit ReferenceQuantileSketch(double alpha)
      : alpha_(alpha),
        gamma_((1.0 + alpha) / (1.0 - alpha)),
        log_gamma_(std::log(gamma_)) {}

  void update(double value) {
    ++count_;
    const double magnitude = std::abs(value);
    if (magnitude <= 1e-12) {
      ++zero_count_;
    } else if (value > 0.0) {
      ++positive_[bucket_index(magnitude)];
    } else {
      ++negative_[bucket_index(magnitude)];
    }
  }

  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_ - 1);
    std::uint64_t cumulative = 0;
    for (auto it = negative_.rbegin(); it != negative_.rend(); ++it) {
      cumulative += it->second;
      if (static_cast<double>(cumulative) > target) {
        return -representative(it->first);
      }
    }
    cumulative += zero_count_;
    if (static_cast<double>(cumulative) > target) return 0.0;
    for (const auto& [index, bucket_count] : positive_) {
      cumulative += bucket_count;
      if (static_cast<double>(cumulative) > target) {
        return representative(index);
      }
    }
    return positive_.empty() ? 0.0
                             : representative(positive_.rbegin()->first);
  }

  void merge(const ReferenceQuantileSketch& other) {
    count_ += other.count_;
    zero_count_ += other.zero_count_;
    for (const auto& [index, c] : other.positive_) positive_[index] += c;
    for (const auto& [index, c] : other.negative_) negative_[index] += c;
  }

  std::uint64_t digest() const {
    std::uint64_t acc = mix64(std::bit_cast<std::uint64_t>(alpha_));
    for (const auto& [index, c] : positive_) {
      acc = reference_fold(acc, static_cast<std::uint64_t>(index) * 2 + 2, c);
    }
    for (const auto& [index, c] : negative_) {
      acc = reference_fold(acc, static_cast<std::uint64_t>(index) * 2 + 3, c);
    }
    return mix64(acc ^ (count_ * 0x9e3779b97f4a7c15ULL) ^ zero_count_);
  }

  std::uint64_t count() const { return count_; }

 private:
  std::int32_t bucket_index(double magnitude) const {
    return static_cast<std::int32_t>(
        std::ceil(std::log(magnitude) / log_gamma_));
  }
  double representative(std::int32_t index) const {
    return 2.0 * std::pow(gamma_, static_cast<double>(index)) /
           (gamma_ + 1.0);
  }

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  std::map<std::int32_t, std::uint64_t> positive_;
  std::map<std::int32_t, std::uint64_t> negative_;
};

const std::vector<double> kProbeGrid = {0.0,  0.001, 0.01, 0.05, 0.1, 0.25,
                                        0.33, 0.5,   0.67, 0.75, 0.9, 0.95,
                                        0.99, 0.999, 1.0};

void expect_same_quantiles(const QuantileSketch& sketch,
                           const ReferenceQuantileSketch& reference,
                           const std::string& where) {
  EXPECT_EQ(sketch.count(), reference.count()) << where;
  EXPECT_EQ(sketch.digest(), reference.digest()) << where;
  for (const double q : kProbeGrid) {
    // Exact double equality: the same bucket must answer every probe.
    EXPECT_EQ(sketch.quantile(q), reference.quantile(q))
        << where << " q=" << q;
  }
}

/// Values of one oracle family, by name.
std::vector<double> quantile_family(const std::string& family,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (int i = 0; i < 4'000; ++i) {
    const double sign = rng.uniform() < 0.4 ? -1.0 : 1.0;
    double v = 0.0;
    if (family == "mixed") {
      switch (rng.uniform_int(5)) {
        case 0: v = 0.0; break;
        case 1: v = 1e-12 * (0.5 + rng.uniform()); break;  // around 1e-12
        case 2: v = DBL_MAX * (0.5 + 0.5 * rng.uniform()); break;
        case 3: v = 1e-12; break;
        default: v = rng.lognormal(0.0, 4.0); break;
      }
      v *= sign;
    } else {  // "wide": log-uniform over the whole representable range
      v = sign * std::exp(rng.uniform() * (709.0 + 27.0) - 27.0);
    }
    values.push_back(v);
  }
  values.push_back(DBL_MAX);
  values.push_back(-DBL_MAX);
  values.push_back(std::nextafter(1e-12, 1.0));
  return values;
}

TEST(SketchOracle, DenseQuantileStoreMatchesMapStore) {
  for (const std::string family : {"mixed", "wide"}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      auto values = quantile_family(family, seed);
      // Arrival orders: as drawn, ascending, and descending (the latter
      // grows each store at its front, bucket by bucket).
      std::vector<std::vector<double>> orders = {values, values, values};
      std::sort(orders[1].begin(), orders[1].end());
      std::sort(orders[2].begin(), orders[2].end(), std::greater<>());
      ReferenceQuantileSketch reference(0.01);
      for (const double v : values) reference.update(v);
      std::vector<QuantileSketch> built;
      for (std::size_t o = 0; o < orders.size(); ++o) {
        QuantileSketch sketch(0.01);
        for (const double v : orders[o]) sketch.update(v);
        expect_same_quantiles(sketch, reference,
                              family + " seed " + std::to_string(seed) +
                                  " order " + std::to_string(o));
        built.push_back(sketch);
      }
      // Different growth histories, same buckets: equal sketches.
      EXPECT_EQ(built[0], built[1]);
      EXPECT_EQ(built[0], built[2]);
    }
  }
}

TEST(SketchOracle, DenseQuantileMergeOfDisjointRangesMatchesMapStore) {
  Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    // Two parts whose bucket ranges never overlap (and, per sign, one part
    // may leave a store empty), merged in both directions and into empty.
    QuantileSketch low(0.02), high(0.02);
    ReferenceQuantileSketch ref_low(0.02), ref_high(0.02);
    for (int i = 0; i < 500; ++i) {
      const double small = std::exp(-20.0 + 6.0 * rng.uniform());
      const double large = std::exp(10.0 + 30.0 * rng.uniform());
      const double sign = trial % 2 == 0 && rng.uniform() < 0.5 ? -1.0 : 1.0;
      low.update(sign * small);
      ref_low.update(sign * small);
      high.update(large);
      ref_high.update(large);
    }
    QuantileSketch low_then_high = low;
    low_then_high.merge(high);
    QuantileSketch high_then_low = high;
    high_then_low.merge(low);
    QuantileSketch from_empty(0.02);
    from_empty.merge(high);
    from_empty.merge(low);
    ReferenceQuantileSketch reference = ref_low;
    reference.merge(ref_high);
    const std::string where = "trial " + std::to_string(trial);
    expect_same_quantiles(low_then_high, reference, where + " low+high");
    expect_same_quantiles(high_then_low, reference, where + " high+low");
    expect_same_quantiles(from_empty, reference, where + " empty+both");
    EXPECT_EQ(low_then_high, high_then_low) << where;
    EXPECT_EQ(low_then_high, from_empty) << where;
  }
}

TEST(SketchOracle, NonFiniteQuantileInputs) {
  QuantileSketch with_inf(0.01), with_max(0.01);
  with_inf.update(std::numeric_limits<double>::infinity());
  with_inf.update(-std::numeric_limits<double>::infinity());
  with_max.update(DBL_MAX);
  with_max.update(-DBL_MAX);
  EXPECT_EQ(with_inf, with_max);
  with_inf.update(std::nan(""));
  EXPECT_EQ(with_inf.count(), 2u);
  EXPECT_EQ(with_inf, with_max);
}

// ---- Count-Min / HyperLogLog run-at-a-time digests

using engine::Record;

std::uint64_t reference_key(const SketchSpec& spec, const Record& record) {
  return spec.key == SketchSpec::KeySource::kValueInt
             ? static_cast<std::uint64_t>(std::llround(record.value))
             : static_cast<std::uint64_t>(record.stratum);
}

/// The per-record digest: one update (and candidate insert) per record.
/// Quantile specs keep an empty state; their reference is the map store.
SlideSketchState reference_state(const SketchSpec& spec,
                                 const std::vector<Record>& records) {
  SlideSketchState state = SlideSketchState::make(spec);
  for (const Record& record : records) {
    ++state.seen;
    const std::uint64_t key = reference_key(spec, record);
    if (state.count_min) {
      state.count_min->update(key);
      state.candidates.insert(key);
    }
    if (state.hll) state.hll->add(key);
  }
  return state;
}

/// The answer the sink must report for a reference state (and, for
/// quantile specs, a reference quantile sketch).
SketchAnswer reference_answer(const SketchSpec& spec,
                              const SlideSketchState& state,
                              const ReferenceQuantileSketch& values,
                              const std::vector<double>& quantiles) {
  SketchAnswer answer;
  answer.kind = spec.kind;
  answer.epsilon = spec.epsilon;
  answer.stream_count = state.seen;
  if (state.count_min) {
    for (const std::uint64_t key : state.candidates) {
      answer.heavy_hitters.emplace_back(key, state.count_min->estimate(key));
    }
    std::sort(answer.heavy_hitters.begin(), answer.heavy_hitters.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (answer.heavy_hitters.size() > spec.top_k) {
      answer.heavy_hitters.resize(spec.top_k);
    }
  }
  if (state.hll) answer.distinct = state.hll->estimate();
  if (spec.kind == SketchSpec::Kind::kQuantile) {
    for (const double q : quantiles) {
      answer.quantiles.emplace_back(q, values.quantile(q));
    }
  }
  return answer;
}

/// Runs of equal keys with lengths drawn from {1, 2, 256}; the value of a
/// record rounds to its key, so both key sources see the same runs.
std::vector<Record> run_stream(std::uint64_t seed, std::size_t runs) {
  Rng rng(seed);
  const std::size_t lengths[] = {1, 2, 256};
  std::vector<Record> records;
  std::int64_t t = 0;
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t length = lengths[rng.uniform_int(3)];
    const std::uint64_t key = rng.zipf(24, 1.1);
    for (std::size_t i = 0; i < length; ++i) {
      const double value =
          static_cast<double>(key) + 0.8 * (rng.uniform() - 0.5);
      records.push_back(Record{static_cast<sampling::StratumId>(key), value,
                               t++});
    }
  }
  return records;
}

/// Absorb-call boundaries to try: the whole stream in one call, random
/// sizes, and one call per run (each batch is exactly one run).
std::vector<std::vector<std::size_t>> batch_splits(
    const std::vector<Record>& records, const SketchSpec& spec, Rng& rng) {
  std::vector<std::size_t> whole = {records.size()};
  std::vector<std::size_t> random;
  for (std::size_t left = records.size(); left > 0;) {
    const std::size_t n = std::min(left, 1 + rng.uniform_int(600));
    random.push_back(n);
    left -= n;
  }
  std::vector<std::size_t> per_run;
  for (std::size_t i = 0; i < records.size();) {
    std::size_t j = i + 1;
    while (j < records.size() && reference_key(spec, records[j]) ==
                                     reference_key(spec, records[i])) {
      ++j;
    }
    per_run.push_back(j - i);
    i = j;
  }
  return {whole, random, per_run};
}

TEST(SketchOracle, RunAtATimeDigestsMatchPerRecordDigest) {
  const std::vector<double> probes = {0.5, 0.95, 0.99};
  Rng rng(2024);
  for (const auto kind :
       {SketchSpec::Kind::kCountMin, SketchSpec::Kind::kHyperLogLog,
        SketchSpec::Kind::kQuantile}) {
    for (const auto source :
         {SketchSpec::KeySource::kStratum, SketchSpec::KeySource::kValueInt}) {
      for (const std::uint64_t seed : {7u, 8u}) {
        const auto records = run_stream(seed, 120);
        SketchSpec spec;
        spec.kind = kind;
        spec.key = source;
        spec.epsilon = kind == SketchSpec::Kind::kCountMin ? 0.05 : 0.02;
        spec.top_k = 8;
        const SlideSketchState reference = reference_state(spec, records);
        ReferenceQuantileSketch values(spec.epsilon);
        for (const Record& record : records) values.update(record.value);
        const SketchAnswer expected =
            reference_answer(spec, reference, values, probes);
        for (const auto& split : batch_splits(records, spec, rng)) {
          SketchSink sink("oracle", spec, probes);
          sink.mutable_sketch_spec()->id = 1;
          sink.bind(engine::WindowConfig{1'000'000, 1'000'000}, 1.96);
          SketchPlan plan;
          plan.specs.push_back(sink.spec());
          SlideSketches sketches(plan);
          std::size_t offset = 0;
          for (const std::size_t n : split) {
            sketches.absorb(records.data() + offset, n);
            offset += n;
          }
          const std::string where =
              "kind " + std::to_string(static_cast<int>(kind)) + " key " +
              std::to_string(static_cast<int>(source)) + " seed " +
              std::to_string(seed) + " batches " +
              std::to_string(split.size());
          const SlideSketchState* state = sketches.find(1);
          ASSERT_NE(state, nullptr) << where;
          EXPECT_EQ(state->seen, reference.seen) << where;
          EXPECT_EQ(state->count_min, reference.count_min) << where;
          EXPECT_EQ(state->candidates, reference.candidates) << where;
          EXPECT_EQ(state->hll, reference.hll) << where;
          if (state->quantile) {
            expect_same_quantiles(*state->quantile, values, where);
          }
          if (state->count_min) {
            EXPECT_EQ(state->count_min->digest(),
                      reference.count_min->digest()) << where;
          }
          if (state->hll) {
            EXPECT_EQ(state->hll->digest(), reference.hll->digest()) << where;
          }

          sink.on_slide({}, nullptr, &sketches);
          const auto output = sink.evaluate(engine::WindowResult{});
          ASSERT_TRUE(output.sketch.has_value()) << where;
          EXPECT_TRUE(*output.sketch == expected) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamapprox::sketch
