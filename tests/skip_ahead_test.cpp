// Tests for the adaptive reservoir kernel: Algorithm R draws while the
// acceptance rate k/seen is at least 1/kSkipAheadRatio, Algorithm L skips
// after. Bit-exact parity of the bulk offer path with per-record offers
// across the R → L switch, inclusion uniformity (every stream position
// sampled with probability k/n) before, at and after the switch and after a
// shrink / merge / take there, a bit-identical skip_ahead = false path
// against a reference Algorithm R kept here, bit-exact bookkeeping (seen /
// weight / per-window records_seen) against that path, and the
// ShardedRunStats kernel counters on the forced-steal sharded path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/stream_approx.h"
#include "ingest/replay.h"
#include "sampling/oasrs.h"
#include "sampling/reservoir.h"
#include "workload/synthetic.h"

namespace streamapprox {
namespace {

using sampling::kSkipAheadRatio;
using sampling::ReservoirSampler;

/// Vitter's Algorithm R exactly as the library ran it before the adaptive
/// kernel: one uniform_int(seen) per saturated offer, and the same shrink
/// and merge draws. skip_ahead = false must match it bit for bit.
template <typename T>
class ReferenceAlgorithmR {
 public:
  ReferenceAlgorithmR(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void offer(const T& item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    if (capacity_ == 0) return;
    const std::uint64_t j = rng_.uniform_int(seen_);
    if (j < capacity_) items_[j] = item;
  }

  void shrink_capacity(std::size_t new_capacity) {
    if (new_capacity >= capacity_) return;
    capacity_ = new_capacity;
    while (items_.size() > capacity_) {
      const std::uint64_t idx = rng_.uniform_int(items_.size());
      items_[idx] = std::move(items_.back());
      items_.pop_back();
    }
  }

  void merge_from(std::vector<T> theirs, std::uint64_t their_seen) {
    if (their_seen == 0) return;
    if (seen_ == 0) {
      items_ = std::move(theirs);
      seen_ = their_seen;
      return;
    }
    std::vector<T> mine = std::move(items_);
    const double share_mine = static_cast<double>(seen_) /
                              static_cast<double>(seen_ + their_seen);
    std::vector<T> merged;
    const std::size_t target =
        std::min(capacity_, mine.size() + theirs.size());
    while (merged.size() < target && (!mine.empty() || !theirs.empty())) {
      const bool pick_mine =
          !mine.empty() && (theirs.empty() || rng_.uniform() < share_mine);
      auto& source = pick_mine ? mine : theirs;
      const std::uint64_t idx = rng_.uniform_int(source.size());
      merged.push_back(std::move(source[idx]));
      source[idx] = std::move(source.back());
      source.pop_back();
    }
    items_ = std::move(merged);
    seen_ += their_seen;
  }

  void reset(std::size_t new_capacity) {
    capacity_ = new_capacity;
    items_.clear();
    seen_ = 0;
  }

  std::uint64_t seen() const { return seen_; }
  const std::vector<T>& items() const { return items_; }

 private:
  std::size_t capacity_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

std::vector<int> iota_stream(int n) {
  std::vector<int> stream(n);
  for (int i = 0; i < n; ++i) stream[i] = i;
  return stream;
}

/// Offers stream[from, to) through offer_run in chunks of 1 to max_chunk.
void offer_in_chunks(ReservoirSampler<int>& reservoir,
                     const std::vector<int>& stream, std::size_t from,
                     std::size_t to, Rng& rng, std::size_t max_chunk = 97) {
  while (from < to) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.uniform_int(max_chunk), to - from);
    reservoir.offer_run(stream.data() + from, n);
    from += n;
  }
}

/// Chi-square of per-position inclusion counts against the uniform law
/// (every position sampled trials·k/n times in expectation), over 100
/// near-equal buckets of positions: 99 dof, alpha = 0.001 critical ~148.2.
double inclusion_chi_square(const std::vector<double>& hits, int trials,
                            std::size_t capacity) {
  constexpr std::size_t kBuckets = 100;
  const std::size_t n = hits.size();
  std::vector<double> observed(kBuckets, 0.0);
  std::vector<double> expected(kBuckets, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t bucket = pos * kBuckets / n;
    observed[bucket] += hits[pos];
    expected[bucket] += static_cast<double>(trials) *
                        static_cast<double>(capacity) /
                        static_cast<double>(n);
  }
  return chi_square(observed, expected);
}
constexpr double kChiSquareCritical = 148.2;

// The per-record offer() and the bulk offer_run() walk the identical draw
// sequence — one uniform_int per Algorithm R position, then (prime,
// accept-slot, advance) with skipped records drawing nothing — so chunked
// bulk offers are BIT-identical to per-record offers, not merely
// distribution-identical.
TEST(SkipAheadKernel, OfferRunMatchesPerRecordOffer) {
  constexpr std::size_t kCapacity = 32;  // switches at position 512
  const auto stream = iota_stream(5000);

  ReservoirSampler<int> per_record(kCapacity, 77);
  ReservoirSampler<int> bulk(kCapacity, 77);
  for (int x : stream) per_record.offer(x);
  // Ragged chunk sizes cross the fill boundary and the R → L switch and land
  // acceptances both at chunk edges and interiors.
  const std::size_t chunks[] = {7, 64, 1, 130, 3, 500};
  std::size_t i = 0, c = 0;
  while (i < stream.size()) {
    const std::size_t n =
        std::min(chunks[c++ % 6], stream.size() - i);
    bulk.offer_run(stream.data() + i, n);
    i += n;
  }
  EXPECT_EQ(per_record.seen(), bulk.seen());
  EXPECT_EQ(per_record.items(), bulk.items());
  EXPECT_DOUBLE_EQ(per_record.weight(), bulk.weight());
}

// The same parity over random capacities and random splits, with a chunk
// boundary exactly at the switch position and a mid-stream shrink on both
// sides, compared after every chunk.
TEST(SkipAheadKernel, OfferRunMatchesOfferOverRandomSplits) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 1 + rng.uniform_int(24);
    const std::size_t switch_at = k * kSkipAheadRatio;
    const std::size_t n =
        switch_at * (1 + rng.uniform_int(4)) + rng.uniform_int(50);
    const auto stream = iota_stream(static_cast<int>(n));
    const std::size_t shrink_at = rng.uniform_int(n);
    const std::uint64_t seed = 500 + trial;
    ReservoirSampler<int> per_record(k, seed);
    ReservoirSampler<int> bulk(k, seed);
    std::size_t i = 0;
    while (i < n) {
      std::size_t len = 1 + rng.uniform_int(rng.uniform() < 0.5 ? 4 : 300);
      if (i < switch_at && i + len > switch_at) len = switch_at - i;
      len = std::min(len, n - i);
      for (std::size_t j = i; j < i + len; ++j) per_record.offer(stream[j]);
      bulk.offer_run(stream.data() + i, len);
      i += len;
      if (i >= shrink_at && k > 1 && per_record.capacity() == k) {
        per_record.shrink_capacity(k / 2);
        bulk.shrink_capacity(k / 2);
      }
      ASSERT_EQ(per_record.seen(), bulk.seen()) << "trial " << trial;
      ASSERT_EQ(per_record.items(), bulk.items())
          << "trial " << trial << " at " << i;
    }
  }
}

// Selection uniformity under the bulk kernel: every one of 2000 stream
// positions must land in the sample with probability N/n.
TEST(SkipAheadKernel, BulkSelectionIsUniform) {
  constexpr int kStream = 2000;
  constexpr std::size_t kCapacity = 50;  // switches at position 800
  constexpr int kTrials = 1000;
  const auto stream = iota_stream(kStream);
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(kCapacity, 31000 + t);
    for (int i = 0; i < kStream; i += 64) {
      reservoir.offer_run(stream.data() + i,
                          std::min<std::size_t>(64, kStream - i));
    }
    for (int item : reservoir.items()) hits[item] += 1.0;
  }
  EXPECT_LT(inclusion_chi_square(hits, kTrials, kCapacity),
            kChiSquareCritical);
}

// Inclusion uniformity with streams that end before the switch (pure
// Algorithm R), exactly at it, one record past it (the first Algorithm L
// position) and far past it, through both offer paths.
TEST(SkipAheadKernel, InclusionUniformAroundTheSwitch) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kSwitch = static_cast<int>(kCapacity * kSkipAheadRatio);
  constexpr int kTrials = 20000;
  for (const int n : {100, kSwitch, kSwitch + 1, 1000}) {
    const auto stream = iota_stream(n);
    for (const bool bulk : {false, true}) {
      std::vector<double> hits(n, 0.0);
      Rng chunks(n);
      for (int t = 0; t < kTrials; ++t) {
        ReservoirSampler<int> reservoir(kCapacity, 7000 + t);
        if (bulk) {
          offer_in_chunks(reservoir, stream, 0, n, chunks);
        } else {
          for (int x : stream) reservoir.offer(x);
        }
        for (int item : reservoir.items()) hits[item] += 1.0;
      }
      EXPECT_LT(inclusion_chi_square(hits, kTrials, kCapacity),
                kChiSquareCritical)
          << "n " << n << (bulk ? " offer_run" : " offer");
    }
  }
}

// shrink_capacity invalidates the skip state; the next saturated offer
// re-primes it from the exact conditional law W ~ Beta(k, s-k+1). If the
// re-prime were biased (e.g. the naive w=1 restart), positions right after
// the shrink would be systematically over-selected.
TEST(SkipAheadKernel, ShrinkRePrimeKeepsSelectionUniform) {
  constexpr int kStream = 2000;  // 1000 before the shrink, 1000 after
  constexpr int kTrials = 2000;
  const auto stream = iota_stream(kStream);
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(64, 64000 + t);
    reservoir.offer_run(stream.data(), 1000);
    reservoir.shrink_capacity(16);
    reservoir.offer_run(stream.data() + 1000, 1000);
    EXPECT_EQ(reservoir.seen(), 2000u);
    EXPECT_EQ(reservoir.items().size(), 16u);
    for (int item : reservoir.items()) hits[item] += 1.0;
  }
  EXPECT_LT(inclusion_chi_square(hits, kTrials, 16), kChiSquareCritical);
}

// A shrink exactly at the switch position and one record after it (once
// the skip state is primed) both leave every position uniform.
TEST(SkipAheadKernel, ShrinkAtTheSwitchKeepsSelectionUniform) {
  constexpr std::size_t kCapacity = 16;
  constexpr int kSwitch = static_cast<int>(kCapacity * kSkipAheadRatio);
  constexpr int kStream = 1000;
  constexpr int kTrials = 10000;
  const auto stream = iota_stream(kStream);
  for (const int at : {kSwitch, kSwitch + 1}) {
    std::vector<double> hits(kStream, 0.0);
    Rng chunks(at);
    for (int t = 0; t < kTrials; ++t) {
      ReservoirSampler<int> reservoir(kCapacity, 81000 + t);
      offer_in_chunks(reservoir, stream, 0, at, chunks);
      reservoir.shrink_capacity(kCapacity / 2);
      offer_in_chunks(reservoir, stream, at, kStream, chunks);
      for (int item : reservoir.items()) hits[item] += 1.0;
    }
    EXPECT_LT(inclusion_chi_square(hits, kTrials, kCapacity / 2),
              kChiSquareCritical)
        << "shrink at " << at;
  }
}

// A merge whose left side sits exactly at its switch: the merged reservoir
// (seen past the switch) re-primes and keeps every position uniform.
TEST(SkipAheadKernel, MergeAtTheSwitchKeepsSelectionUniform) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kSwitch = static_cast<int>(kCapacity * kSkipAheadRatio);
  constexpr int kStream = 1000;
  constexpr int kTrials = 20000;
  const auto stream = iota_stream(kStream);
  std::vector<double> hits(kStream, 0.0);
  Rng chunks(99);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> left(kCapacity, 120000 + 2 * t);
    ReservoirSampler<int> right(kCapacity, 120001 + 2 * t);
    offer_in_chunks(left, stream, 0, kSwitch, chunks);
    offer_in_chunks(right, stream, kSwitch, 2 * kSwitch, chunks);
    left.merge(std::move(right));
    offer_in_chunks(left, stream, 2 * kSwitch, kStream, chunks);
    EXPECT_EQ(left.seen(), static_cast<std::uint64_t>(kStream));
    for (int item : left.items()) hits[item] += 1.0;
  }
  EXPECT_LT(inclusion_chi_square(hits, kTrials, kCapacity),
            kChiSquareCritical);
}

// An interval closed (OasrsSampler::take: take_items + reset) exactly at the
// switch and one record after it: the next interval starts over in the
// Algorithm R phase and samples its own positions uniformly.
TEST(SkipAheadKernel, TakeAtTheSwitchKeepsNextIntervalUniform) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kSwitch = static_cast<int>(kCapacity * kSkipAheadRatio);
  constexpr int kStream = 1000;
  constexpr int kTrials = 20000;
  std::vector<engine::Record> stream;
  for (int i = 0; i < kStream; ++i) {
    stream.push_back(engine::Record{0, static_cast<double>(i), i});
  }
  for (const int at : {kSwitch, kSwitch + 1}) {
    std::vector<double> hits(kStream, 0.0);
    for (int t = 0; t < kTrials; ++t) {
      sampling::OasrsConfig config;
      config.per_stratum_capacity = kCapacity;
      config.seed = 150000 + t;
      auto sampler = sampling::make_oasrs<engine::Record>(config);
      sampler.offer_run(0, stream.data(), static_cast<std::size_t>(at));
      const auto first = sampler.take();
      ASSERT_EQ(first.strata.size(), 1u);
      ASSERT_EQ(first.strata[0].items.size(), kCapacity);
      for (int i = 0; i < kStream; i += 50) {
        sampler.offer_run(0, stream.data() + i, 50);
      }
      const auto second = sampler.take();
      ASSERT_EQ(second.strata.size(), 1u);
      for (const auto& record : second.strata[0].items) {
        hits[static_cast<std::size_t>(record.value)] += 1.0;
      }
    }
    EXPECT_LT(inclusion_chi_square(hits, kTrials, kCapacity),
              kChiSquareCritical)
        << "take at " << at;
  }
}

// skip_ahead = false pins Algorithm R: every offer, run, shrink, merge and
// reset draws exactly what the reference draws.
TEST(SkipAheadKernel, AlgorithmRPathBitIdenticalToReference) {
  Rng rng(4321);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = rng.uniform_int(20);  // includes capacity 0
    const auto stream = iota_stream(4000);
    const std::uint64_t seed = 900 + trial;
    ReservoirSampler<int> pinned(k, seed, /*skip_ahead=*/false);
    ReferenceAlgorithmR<int> reference(k, seed);
    ReservoirSampler<int> donor(k, seed + 1, /*skip_ahead=*/false);
    ReferenceAlgorithmR<int> donor_reference(k, seed + 1);
    for (int x = 3000; x < 4000; ++x) {
      donor.offer(x);
      donor_reference.offer(x);
    }
    std::size_t i = 0;
    int step = 0;
    while (i < 3000) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.uniform_int(200), 3000 - i);
      if (step++ % 2 == 0) {
        pinned.offer_run(stream.data() + i, len);
      } else {
        for (std::size_t j = i; j < i + len; ++j) pinned.offer(stream[j]);
      }
      for (std::size_t j = i; j < i + len; ++j) reference.offer(stream[j]);
      i += len;
      ASSERT_EQ(pinned.items(), reference.items()) << "trial " << trial;
      ASSERT_EQ(pinned.seen(), reference.seen()) << "trial " << trial;
      if (step == 5) {
        pinned.shrink_capacity(k / 2);
        reference.shrink_capacity(k / 2);
      }
      if (step == 8) {
        pinned.merge(donor);
        reference.merge_from(donor_reference.items(), donor_reference.seen());
      }
      ASSERT_EQ(pinned.items(), reference.items()) << "trial " << trial;
    }
    pinned.reset(k + 3);
    reference.reset(k + 3);
    for (int x = 0; x < 500; ++x) {
      pinned.offer(x);
      reference.offer(x);
    }
    EXPECT_EQ(pinned.items(), reference.items()) << "trial " << trial;
  }
}

// Counter parity with the Algorithm R path across the operations OASRS
// exercises: take_items, reset(new_capacity), shrink, zero capacity, merge.
TEST(SkipAheadKernel, CountersMatchAlgorithmRSemantics) {
  ReservoirSampler<int> r(8, 1, /*skip_ahead=*/false);
  ReservoirSampler<int> l(8, 1);
  for (int i = 0; i < 1000; ++i) {
    r.offer(i);
    l.offer(i);
  }
  EXPECT_EQ(l.seen(), r.seen());
  EXPECT_EQ(l.items().size(), r.items().size());
  EXPECT_DOUBLE_EQ(l.weight(), r.weight());

  auto taken_r = r.take_items();
  auto taken_l = l.take_items();
  EXPECT_EQ(taken_l.size(), taken_r.size());
  EXPECT_EQ(l.seen(), r.seen());  // counters survive the take
  EXPECT_TRUE(l.items().empty());

  r.reset(4);
  l.reset(4);
  EXPECT_EQ(l.seen(), 0u);
  EXPECT_EQ(l.capacity(), 4u);
  for (int i = 0; i < 50; ++i) {
    r.offer(i);
    l.offer(i);
  }
  r.shrink_capacity(2);
  l.shrink_capacity(2);
  EXPECT_EQ(l.items().size(), 2u);
  EXPECT_EQ(l.seen(), 50u);
  EXPECT_DOUBLE_EQ(l.weight(), 25.0);
  // Sampling continues cleanly after the shrink (re-prime path).
  for (int i = 50; i < 200; ++i) l.offer(i);
  EXPECT_EQ(l.seen(), 200u);
  EXPECT_EQ(l.items().size(), 2u);

  ReservoirSampler<int> zero(0, 2);
  int payload = 1;
  zero.offer(payload);
  zero.offer_run(&payload, 1);
  EXPECT_EQ(zero.seen(), 2u);
  EXPECT_TRUE(zero.items().empty());

  ReservoirSampler<int> a(10, 3);
  ReservoirSampler<int> b(10, 4);
  for (int i = 0; i < 200; ++i) a.offer(i);
  for (int i = 200; i < 300; ++i) b.offer(i);
  a.merge(b);
  EXPECT_EQ(a.seen(), 300u);
  EXPECT_EQ(a.items().size(), 10u);
  for (int i = 300; i < 800; ++i) a.offer(i);  // re-prime after merge
  EXPECT_EQ(a.seen(), 800u);
  EXPECT_EQ(a.items().size(), 10u);
}

// The consuming merge overload draws the same randomness as the copying one
// (so either call site gets the identical merged sample) and moves the
// donor's items instead of copying them.
TEST(SkipAheadKernel, ConsumingMergeMatchesCopyingMerge) {
  const auto fill = [](auto& reservoir, int from, int to) {
    for (int i = from; i < to; ++i) reservoir.offer(i);
  };
  ReservoirSampler<int> a1(12, 5), a2(12, 5), b1(12, 6), b2(12, 6);
  fill(a1, 0, 300);
  fill(a2, 0, 300);
  fill(b1, 300, 500);
  fill(b2, 300, 500);
  a1.merge(b1);             // copying
  a2.merge(std::move(b2));  // consuming
  EXPECT_EQ(a1.items(), a2.items());
  EXPECT_EQ(a1.seen(), a2.seen());
  EXPECT_FALSE(b1.items().empty());  // copy preserved the donor
  EXPECT_TRUE(b2.items().empty());   // move consumed it
}

std::vector<engine::Record> stratified_stream(int n) {
  // 4 strata in blocks of 64 — the run shape the exchange produces.
  std::vector<engine::Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    records.push_back(engine::Record{
        static_cast<sampling::StratumId>((i / 64) % 4),
        static_cast<double>(i), static_cast<std::int64_t>(i) * 100});
  }
  return records;
}

// OASRS bookkeeping exactness: with skip-ahead on, every per-stratum C_i,
// weight, sample SIZE (min(capacity, C_i) — deterministic either way),
// stratum discovery order, and the interval counter equal the Algorithm R
// path's. Only sample MEMBERSHIP is allowed to differ.
TEST(SkipAheadOasrs, CountersMatchAlgorithmRPath) {
  const auto records = stratified_stream(20000);
  sampling::OasrsConfig on;
  on.total_budget = 128;
  on.seed = 42;
  on.skip_ahead = true;
  sampling::OasrsConfig off = on;
  off.skip_ahead = false;
  auto fast = sampling::make_oasrs<engine::Record>(on);
  auto exact = sampling::make_oasrs<engine::Record>(off);
  fast.offer_batch(records);
  exact.offer_batch(records);
  EXPECT_EQ(fast.interval_seen(), exact.interval_seen());
  EXPECT_EQ(fast.interval_seen(), 20000u);
  EXPECT_EQ(fast.stratum_count(), exact.stratum_count());
  const auto a = fast.take();
  const auto b = exact.take();
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(a.strata[i].stratum, b.strata[i].stratum);
    EXPECT_EQ(a.strata[i].seen, b.strata[i].seen);
    EXPECT_EQ(a.strata[i].items.size(), b.strata[i].items.size());
    EXPECT_DOUBLE_EQ(a.strata[i].weight, b.strata[i].weight);
  }
  EXPECT_EQ(fast.interval_seen(), 0u);  // take() resets the running counter
}

// interval_seen() stays exact through merge (running counter, not map walk).
TEST(SkipAheadOasrs, IntervalSeenTracksOfferAndMerge) {
  sampling::OasrsConfig config;
  config.per_stratum_capacity = 16;
  auto a = sampling::make_oasrs<engine::Record>(config);
  auto b = sampling::make_oasrs<engine::Record>(config);
  const auto records = stratified_stream(1000);
  a.offer_batch(records.data(), 600);
  b.offer_batch(records.data() + 600, 400);
  EXPECT_EQ(a.interval_seen(), 600u);
  EXPECT_EQ(b.interval_seen(), 400u);
  a.merge(b);
  EXPECT_EQ(a.interval_seen(), 1000u);
}

// With skip-ahead on, the known-stratum offer_run path (what the sharded
// worker feeds from exchange run descriptors) is bit-identical to per-record
// offer(): same reservoirs, same RNG order.
TEST(SkipAheadOasrs, OfferRunWithDescriptorsMatchesPerRecordOffer) {
  const auto records = stratified_stream(8000);
  sampling::OasrsConfig config;
  config.total_budget = 96;
  config.seed = 9;
  auto per_record = sampling::make_oasrs<engine::Record>(config);
  auto via_runs = sampling::make_oasrs<engine::Record>(config);
  for (const auto& r : records) per_record.offer(r);
  for (std::size_t i = 0; i < records.size(); i += 64) {
    via_runs.offer_run(records[i].stratum, records.data() + i, 64);
  }
  EXPECT_GT(via_runs.kernel_stats().bulk_runs, 0u);
  EXPECT_EQ(via_runs.kernel_stats().accepted +
                via_runs.kernel_stats().skipped,
            8000u);
  const auto a = per_record.take();
  const auto b = via_runs.take();
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(a.strata[i].stratum, b.strata[i].stratum);
    EXPECT_EQ(a.strata[i].seen, b.strata[i].seen);
    EXPECT_EQ(a.strata[i].items, b.strata[i].items);
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level exactness: flipping skip_ahead_sampling must not move a
// single record between windows — records_seen, records_sampled (sample
// sizes are deterministic under a fraction budget) and window boundaries
// are identical; only which records the samples contain differs.

std::vector<engine::Record> make_stream(double seconds, double rate,
                                        std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

std::vector<core::WindowOutput> run_pipeline(
    const std::vector<engine::Record>& records, std::size_t workers,
    std::size_t partitions,
    const std::function<void(core::StreamApproxConfig&)>& mutate,
    core::ShardedRunStats* stats = nullptr) {
  ingest::Broker broker;
  broker.create_topic("input", partitions);
  ingest::ReplayTool replay(broker, "input", records, {});
  core::StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {core::Aggregation::kMean, false});
  config.workers = workers;
  config.seed = 99;
  config.idle_partition_timeout_ms = 30'000;
  if (mutate) mutate(config);
  core::StreamApprox system(broker, config);
  std::vector<core::WindowOutput> outputs;
  system.run([&](const core::WindowOutput& o) { outputs.push_back(o); });
  replay.wait();
  if (stats) *stats = system.last_run_stats();
  return outputs;
}

void expect_same_bookkeeping(const std::vector<core::WindowOutput>& a,
                             const std::vector<core::WindowOutput>& b) {
  ASSERT_GT(a.size(), 2u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].records_seen, b[i].records_seen) << "window " << i;
    EXPECT_EQ(a[i].records_sampled, b[i].records_sampled) << "window " << i;
    EXPECT_EQ(a[i].estimate.window_end_us, b[i].estimate.window_end_us)
        << "window " << i;
    EXPECT_EQ(a[i].budget_in_force, b[i].budget_in_force) << "window " << i;
  }
}

TEST(SkipAheadPipeline, SequentialBookkeepingMatchesAlgorithmR) {
  const auto records = make_stream(4.0, 24000.0, 31);
  const auto fast = run_pipeline(records, 1, 2, {});
  const auto exact = run_pipeline(records, 1, 2, [](auto& c) {
    c.skip_ahead_sampling = false;
  });
  expect_same_bookkeeping(fast, exact);
}

TEST(SkipAheadPipeline, ForcedStealShardedMatchesSequential) {
  // Tiny deques + per-record ingest cost force morsels through the injector
  // and steal paths (the WorkStealing test's recipe), with the bulk kernel
  // live end to end: watermarks, late-drops and per-window records_seen must
  // equal the sequential run's, and the kernel counters must show the bulk
  // path actually ran.
  const auto records = make_stream(3.0, 20000.0, 32);
  const auto sequential = run_pipeline(records, 1, 2, {});
  core::ShardedRunStats stats;
  const auto sharded = run_pipeline(
      records, 8, 2,
      [](auto& c) {
        c.steal_deque_capacity = 2;
        c.ingest_cost = {500};
      },
      &stats);
  ASSERT_GT(sequential.size(), 2u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              sharded[i].estimate.window_end_us)
        << "window " << i;
  }
  EXPECT_GT(stats.sampler_bulk_runs, 0u);
  EXPECT_GT(stats.sampler_accepts, 0u);
  // Every kernel-counted record was absorbed; late-dropped runs may make the
  // sum trail records_absorbed but never exceed it.
  EXPECT_LE(stats.sampler_accepts + stats.sampler_skipped,
            stats.records_absorbed);
  EXPECT_GT(stats.sampler_accepts + stats.sampler_skipped, 0u);
}

TEST(SkipAheadPipeline, ShardedAlgorithmREscapeHatchStillExact) {
  // The escape hatch composes with sharding: skip_ahead_sampling=false on
  // the exchange path reproduces the sequential Algorithm R bookkeeping.
  const auto records = make_stream(3.0, 20000.0, 33);
  const auto sequential = run_pipeline(records, 1, 2, [](auto& c) {
    c.skip_ahead_sampling = false;
  });
  core::ShardedRunStats stats;
  const auto sharded = run_pipeline(
      records, 4, 2, [](auto& c) { c.skip_ahead_sampling = false; }, &stats);
  ASSERT_GT(sequential.size(), 2u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
  }
  // The run-descriptor path feeds Algorithm R reservoirs too (same counters,
  // per-record draws inside offer_run) — bulk runs are still counted.
  EXPECT_GT(stats.sampler_bulk_runs, 0u);
}

}  // namespace
}  // namespace streamapprox
