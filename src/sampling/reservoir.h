// Reservoir sampling — paper Algorithm 1 as one adaptive kernel (Vitter's
// Algorithm R while most records are accepts, Li's Algorithm L skips with a
// bulk-offer path once they are rare), plus the distributed two-reservoir
// merge used by OASRS's synchronisation-free distributed execution (paper
// §3.2, "Distributed execution").
#pragma once

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace streamapprox::sampling {

/// Acceptance rate k/seen below which a reservoir leaves per-record
/// Algorithm R draws for Algorithm L skips: the switch happens once seen
/// reaches kSkipAheadRatio·k. Above the rate most records are accepts, and an
/// Algorithm R accept (one integer draw) is far cheaper than an Algorithm L
/// accept (a log, an exp and a log1p); below it the skipped records dominate
/// and Algorithm L never reads them. The value comes from the
/// micro_samplers cells (chunked and interleaved streams, 1–10% fractions,
/// both offer paths, one pinned core): 16 was best or within noise of the
/// best in every cell, 4 lost up to 27% at 10%, 8 up to 12%, and 32 tied.
inline constexpr std::uint64_t kSkipAheadRatio = 16;

/// Uniform fixed-capacity reservoir over an unbounded stream (paper
/// Algorithm 1): after item i every item of the stream prefix is in the
/// sample with probability k/i, k the capacity. One kernel in three phases:
///
/// 1. Fill: the first k items go straight in.
/// 2. Algorithm R (Vitter): item i draws j = uniform_int(i) and replaces
///    slot j when j < k — one integer draw per item, while k/i ≥
///    1/kSkipAheadRatio.
/// 3. Algorithm L (Li): past that rate the reservoir keeps the acceptance
///    state W and jumps a Geometric(W) number of guaranteed rejections
///    between accepts, so offer_run never reads the skipped records.
///
/// The R → L switch is exact. Algorithm L's W after s items is the k-th
/// smallest of s uniform keys, Beta(k, s−k+1)-distributed and independent of
/// which k items hold the smallest keys; an Algorithm R sample of s items is
/// that same uniform k-subset. prime() therefore draws W from Beta(k, s−k+1)
/// and every later position keeps inclusion probability k/i. The same
/// re-prime runs after shrink / merge / take_items, which invalidate W.
///
/// `skip_ahead = false` never leaves phase 2: the draw sequence is then
/// exactly Vitter's Algorithm R, the bit-exact reference the sampling tests
/// and the escape-hatch config pin.
template <typename T>
class ReservoirSampler {
 public:
  /// Creates a reservoir holding at most `capacity` items, drawing randomness
  /// from `seed`. `skip_ahead` allows the Algorithm L phase.
  explicit ReservoirSampler(std::size_t capacity, std::uint64_t seed = 1,
                            bool skip_ahead = true)
      : skip_ahead_(skip_ahead), rng_(seed) {
    set_capacity(capacity);
    items_.reserve(capacity_);
  }

  /// Offers one stream item. Bit-exact with offer_run over the same items:
  /// both walk the identical (R draw | prime, accept-slot, advance) sequence.
  void offer(const T& item) { offer_one(item); }

  /// Offers a contiguous run of n items occupying stream positions
  /// [seen+1, seen+n], the production hot path. Algorithm R positions draw
  /// one integer each; in the Algorithm L phase the kernel walks its
  /// geometric acceptance positions inside the range, touches only those
  /// records and advances `seen_` by the rest in one step. Returns the
  /// number of items written into the reservoir.
  std::size_t offer_run(const T* run, std::size_t n) {
    // Interleaved input arrives in runs of one record: skip the run setup.
    if (n == 1) return offer_one(*run) ? 1 : 0;
    return offer_many(run, n);
  }

  /// Number of items offered so far (the paper's per-interval counter C_i).
  std::uint64_t seen() const noexcept { return seen_; }

  /// The current sample (Y_i = items().size() <= capacity).
  const std::vector<T>& items() const noexcept { return items_; }

  /// Reservoir capacity N_i.
  std::size_t capacity() const noexcept { return capacity_; }

  /// Expansion weight per paper Eq. 1: C_i/N_i when the stratum over-filled,
  /// else 1 (every received item is in the sample and represents itself).
  double weight() const noexcept {
    if (items_.empty()) return 1.0;
    return seen_ > items_.size()
               ? static_cast<double>(seen_) /
                     static_cast<double>(items_.size())
               : 1.0;
  }

  /// Clears sample, counter and skip state for the next time interval. The
  /// capacity may be changed at the same time (adaptive feedback re-tunes
  /// it, §4.2).
  void reset(std::size_t new_capacity) {
    set_capacity(new_capacity);
    items_.clear();
    items_.reserve(capacity_);
    seen_ = 0;
    skipping_ = false;
  }

  /// Clears sample and counter, keeping the capacity.
  void reset() { reset(capacity_); }

  /// Shrinks the capacity mid-stream, discarding uniformly random items if
  /// the sample currently exceeds it. Statistically sound: a uniform random
  /// subsample of a uniform random sample is itself uniform, and the kernel
  /// keeps uniformity when continuing with the smaller N (Algorithm R
  /// directly, Algorithm L after an exact re-prime). Used by OASRS when a
  /// newly discovered stratum dilutes the shared budget (Algorithm 3's
  /// getSampleSize over a growing stratum set). Growing mid-stream is NOT
  /// offered — it would bias toward recent items; growth applies at reset.
  void shrink_capacity(std::size_t new_capacity) {
    if (new_capacity >= capacity_) return;
    set_capacity(new_capacity);
    while (items_.size() > capacity_) {
      const std::uint64_t idx = rng_.uniform_int(items_.size());
      items_[idx] = std::move(items_.back());
      items_.pop_back();
    }
    skipping_ = false;
  }

  /// Moves the sample out (leaving the reservoir empty but counters intact).
  std::vector<T> take_items() noexcept {
    skipping_ = false;
    return std::move(items_);
  }

  /// Merges another reservoir's (sample, stream count) into this one without
  /// re-scanning either stream: the result approximates a uniform sample of
  /// the union population of size min(capacity, combined sample size). Each
  /// output slot chooses its source with probability proportional to the
  /// source's STREAM count (binomial allocation of slots — the standard
  /// distributed reservoir merge, unbiased in expectation), then takes a
  /// uniformly random not-yet-taken item from that source.
  void merge_from(std::vector<T> theirs, std::uint64_t their_seen) {
    if (their_seen == 0) return;
    skipping_ = false;
    if (seen_ == 0) {
      items_ = std::move(theirs);
      seen_ = their_seen;
      return;
    }
    std::vector<T> mine = std::move(items_);
    const double share_mine =
        static_cast<double>(seen_) /
        static_cast<double>(seen_ + their_seen);
    std::vector<T> merged;
    const std::size_t target =
        std::min(capacity_, mine.size() + theirs.size());
    merged.reserve(target);
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

  /// Merge preserving `other` (copies its sample).
  void merge(const ReservoirSampler& other) {
    if (other.seen_ == 0) return;
    merge_from(other.items_, other.seen_);
  }

  /// Consuming merge: when the caller owns `other` (the sharded merger's
  /// slide-close path does), its sample moves instead of copying. Draws the
  /// same randomness as the copying overload.
  void merge(ReservoirSampler&& other) {
    if (other.seen_ == 0) return;
    merge_from(std::move(other.items_), other.seen_);
  }

 private:
  /// offer() proper; returns whether the item was written into the sample.
  bool offer_one(const T& item) {
    if (items_.size() < capacity_) {
      ++seen_;
      items_.push_back(item);
      return true;
    }
    if (seen_ < r_until_) {
      const std::uint64_t j = rng_.uniform_int(++seen_);
      if (j >= capacity_) return false;
      items_[j] = item;
      return true;
    }
    if (capacity_ == 0) {
      ++seen_;
      return false;
    }
    if (!skipping_) prime();
    if (++seen_ != next_accept_) return false;
    items_[rng_.uniform_int(capacity_)] = item;
    advance_local(rng_, inv_capacity_, w_, next_accept_);
    return true;
  }

  /// offer_run for n ≥ 2. Out of line so the one-record path inlined into
  /// callers stays small; a call is noise next to a run's work.
  [[gnu::noinline]] std::size_t offer_many(const T* run, std::size_t n) {
    std::size_t accepted = 0;
    std::size_t i = 0;
    while (i < n && items_.size() < capacity_) {
      ++seen_;
      items_.push_back(run[i]);
      ++i;
      ++accepted;
    }
    if (i == n) return accepted;
    if (capacity_ == 0) {
      seen_ += static_cast<std::uint64_t>(n - i);
      return accepted;
    }
    // The loops keep the counters and the RNG state in locals: writes into
    // items_ may alias the members under TBAA, so without the hoist every
    // iteration reloads and spills them.
    T* const slots = items_.data();
    const std::uint64_t k = capacity_;
    streamapprox::Rng rng = rng_;
    if (seen_ < r_until_) {
      std::uint64_t seen = seen_;
      const std::uint64_t r_end =
          seen + std::min(static_cast<std::uint64_t>(n - i), r_until_ - seen);
      while (seen < r_end) {
        const std::uint64_t j = rng.uniform_int(++seen);
        if (j < k) {
          slots[j] = run[i];
          ++accepted;
        }
        ++i;
      }
      seen_ = seen;
      rng_ = rng;
      if (i == n) return accepted;
    }
    if (!skipping_) {
      prime();
      rng = rng_;
    }
    const std::uint64_t base = seen_;
    const std::uint64_t end = base + static_cast<std::uint64_t>(n - i);
    std::uint64_t next = next_accept_;
    double w = w_;
    while (next <= end) {
      slots[rng.uniform_int(k)] =
          run[i + static_cast<std::size_t>(next - base - 1)];
      ++accepted;
      advance_local(rng, inv_capacity_, w, next);
    }
    rng_ = rng;
    next_accept_ = next;
    w_ = w;
    seen_ = end;
    return accepted;
  }

  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    inv_capacity_ = capacity > 0 ? 1.0 / static_cast<double>(capacity) : 0.0;
    const std::uint64_t k = capacity;
    if (k == 0) {
      r_until_ = 0;
    } else if (skip_ahead_ && k <= kNever / kSkipAheadRatio) {
      r_until_ = k * kSkipAheadRatio;
    } else {
      r_until_ = kNever;
    }
  }

  static double draw_positive(streamapprox::Rng& rng) {
    double u = 0.0;
    do {
      u = rng.uniform();
    } while (u <= 0.0);
    return u;
  }

  /// next += Geometric(log U / log(1-w)) + 1, guarding the double extremes:
  /// w rounded up to 1 accepts the very next item; w rounded down to 0 (or
  /// an astronomically long skip) parks the reservoir — correct to within
  /// probabilities far below double resolution. Static over caller-held
  /// state so the bulk kernel can keep (w, next) in registers.
  static void schedule_local(streamapprox::Rng& rng, double w,
                             std::uint64_t& next) {
    if (w >= 1.0) {
      ++next;
      return;
    }
    if (w <= 0.0) {
      next = kNever;
      return;
    }
    const double skip = std::floor(std::log(draw_positive(rng)) /
                                   std::log1p(-w));
    if (!(skip < 1e18)) {
      next = kNever;
      return;
    }
    next += static_cast<std::uint64_t>(skip) + 1;
  }

  /// One Algorithm L step after an acceptance: w *= U^(1/k), then skip a
  /// Geometric(w) run of guaranteed rejections. Out of line like prime():
  /// its transcendental calls dwarf a call, and inlined they would keep
  /// offer_one from inlining.
  [[gnu::noinline]] static void advance_local(streamapprox::Rng& rng,
                                              double inv_capacity, double& w,
                                              std::uint64_t& next) {
    w *= std::exp(std::log(draw_positive(rng)) * inv_capacity);
    schedule_local(rng, w, next);
  }

  /// Enters the Algorithm L phase at s = seen_ items: draws W from the exact
  /// law Beta(k, s−k+1) (see the class comment) and schedules the next
  /// accept. Runs once per phase switch, shrink, merge or take; kept out of
  /// line so the per-record offer path stays small enough to inline.
  [[gnu::noinline]] void prime() {
    const double g1 = rng_.gamma(static_cast<double>(capacity_), 1.0);
    const double g2 =
        rng_.gamma(static_cast<double>(seen_ - capacity_ + 1), 1.0);
    w_ = g1 / (g1 + g2);
    next_accept_ = seen_;
    schedule_local(rng_, w_, next_accept_);
    skipping_ = true;
  }

  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  // Hot fields of offer() first; the Algorithm L state after the RNG.
  std::vector<T> items_;
  std::size_t capacity_ = 0;
  std::uint64_t seen_ = 0;
  /// Positions seen_ < r_until_ take Algorithm R draws: kSkipAheadRatio·k
  /// with skip-ahead, kNever without, 0 at capacity 0 (nothing to draw).
  std::uint64_t r_until_ = 0;
  /// True while (w_, next_accept_) describe the current (seen_, capacity_):
  /// set by prime(), cleared by reset, shrink, merge and take.
  bool skipping_ = false;
  bool skip_ahead_;
  streamapprox::Rng rng_;
  std::uint64_t next_accept_ = 0;
  double w_ = 1.0;
  double inv_capacity_ = 0.0;
};

}  // namespace streamapprox::sampling
