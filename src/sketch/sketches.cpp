#include "sketch/sketches.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <stdexcept>

namespace streamapprox::sketch {
namespace {

constexpr double kEulersNumber = 2.718281828459045;

// Folds (tag, value) into an order-insensitive digest accumulator: each cell
// is mixed independently and the results are summed, so the digest depends
// only on the multiset of cells, matching the merge semantics.
std::uint64_t fold(std::uint64_t acc, std::uint64_t tag,
                   std::uint64_t value) noexcept {
  return acc + mix64(tag * 0x9ddfea08eb382d69ULL + value);
}

}  // namespace

// ---------------------------------------------------------------------------
// CountMinSketch

std::size_t CountMinSketch::width_for(double epsilon) {
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    throw std::invalid_argument("count-min epsilon must be in (0, 1)");
  }
  return static_cast<std::size_t>(std::ceil(kEulersNumber / epsilon));
}

std::size_t CountMinSketch::depth_for(double delta) {
  if (!(delta > 0.0) || delta >= 1.0) {
    throw std::invalid_argument("count-min delta must be in (0, 1)");
  }
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::log(1.0 / delta))));
}

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed)
    : width_(width), depth_(depth), seed_(seed) {
  if (width_ == 0 || depth_ == 0) {
    throw std::invalid_argument("count-min width and depth must be positive");
  }
  salts_.reserve(depth_);
  for (std::size_t row = 0; row < depth_; ++row) {
    salts_.push_back(mix64(seed_ + row));
  }
  counters_.assign(width_ * depth_, 0);
}

std::size_t CountMinSketch::index(std::size_t row,
                                  std::uint64_t key) const noexcept {
  const std::uint64_t h = mix64(key ^ salts_[row]);
  return row * width_ + static_cast<std::size_t>(h % width_);
}

void CountMinSketch::update(std::uint64_t key, std::uint64_t count) {
  for (std::size_t row = 0; row < depth_; ++row) {
    counters_[index(row, key)] += count;
  }
  total_ += count;
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint64_t best = counters_[index(0, key)];
  for (std::size_t row = 1; row < depth_; ++row) {
    best = std::min(best, counters_[index(row, key)]);
  }
  return best;
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_) {
    throw std::invalid_argument("count-min merge: incompatible sketches");
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  total_ += other.total_;
}

std::uint64_t CountMinSketch::digest() const noexcept {
  std::uint64_t acc = mix64(seed_ ^ (width_ * 131 + depth_));
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] != 0) acc = fold(acc, i, counters_[i]);
  }
  return mix64(acc ^ total_);
}

// ---------------------------------------------------------------------------
// HyperLogLog

int HyperLogLog::precision_for(double epsilon) {
  if (!(epsilon > 0.0)) {
    throw std::invalid_argument("hyperloglog epsilon must be positive");
  }
  for (int p = 4; p <= 18; ++p) {
    const double error = 1.04 / std::sqrt(static_cast<double>(1u << p));
    if (error <= epsilon) return p;
  }
  return 18;
}

HyperLogLog::HyperLogLog(int precision, std::uint64_t seed)
    : precision_(precision), seed_(seed), salt_(mix64(seed)) {
  if (precision_ < 4 || precision_ > 18) {
    throw std::invalid_argument("hyperloglog precision must be in [4, 18]");
  }
  registers_.assign(std::size_t{1} << precision_, 0);
}

void HyperLogLog::add(std::uint64_t key) {
  const std::uint64_t h = mix64(key ^ salt_);
  const std::size_t idx = static_cast<std::size_t>(h >> (64 - precision_));
  const std::uint64_t rest = h << precision_;
  const std::uint8_t rank = static_cast<std::uint8_t>(
      rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1);
  registers_[idx] = std::max(registers_[idx], rank);
}

double HyperLogLog::standard_error() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

double HyperLogLog::estimate() const {
  const double m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers_.size() == 16) alpha = 0.673;
  if (registers_.size() == 32) alpha = 0.697;
  if (registers_.size() == 64) alpha = 0.709;
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (precision_ != other.precision_ || seed_ != other.seed_) {
    throw std::invalid_argument("hyperloglog merge: incompatible sketches");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

std::uint64_t HyperLogLog::digest() const noexcept {
  std::uint64_t acc = mix64(seed_ ^ static_cast<std::uint64_t>(precision_));
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (registers_[i] != 0) acc = fold(acc, i, registers_[i]);
  }
  return mix64(acc);
}

// ---------------------------------------------------------------------------
// QuantileSketch

std::uint64_t QuantileSketch::BucketStore::at(
    std::int64_t index) const noexcept {
  const std::int64_t pos = index - offset;
  return pos >= 0 && pos < static_cast<std::int64_t>(counts.size())
             ? counts[static_cast<std::size_t>(pos)]
             : 0;
}

void QuantileSketch::BucketStore::cover(std::int32_t lo, std::int32_t hi,
                                        std::int32_t min_index,
                                        std::int32_t max_index) {
  const std::int64_t size = static_cast<std::int64_t>(counts.size());
  std::int64_t new_lo = lo;
  std::int64_t new_hi = hi;
  if (size > 0) {
    const std::int64_t cur_lo = offset;
    const std::int64_t cur_hi = cur_lo + size - 1;
    if (lo >= cur_lo && hi <= cur_hi) return;
    // Doubling toward the growing side keeps repeated growth (a descending
    // or ascending stream) amortised O(1) per bucket.
    new_lo = lo < cur_lo ? std::min<std::int64_t>(lo, cur_lo - size) : cur_lo;
    new_hi = hi > cur_hi ? std::max<std::int64_t>(hi, cur_hi + size) : cur_hi;
    new_lo = std::max<std::int64_t>(new_lo, std::min(lo, min_index));
    new_hi = std::min<std::int64_t>(new_hi, std::max(hi, max_index));
  }
  std::vector<std::uint64_t> grown(
      static_cast<std::size_t>(new_hi - new_lo + 1), 0);
  std::copy(counts.begin(), counts.end(),
            grown.begin() + (size > 0 ? offset - new_lo : 0));
  counts = std::move(grown);
  offset = static_cast<std::int32_t>(new_lo);
}

std::size_t QuantileSketch::BucketStore::first_nonzero() const noexcept {
  std::size_t pos = 0;
  while (pos < counts.size() && counts[pos] == 0) ++pos;
  return pos;
}

std::size_t QuantileSketch::BucketStore::end_nonzero() const noexcept {
  std::size_t end = counts.size();
  while (end > 0 && counts[end - 1] == 0) --end;
  return end;
}

bool QuantileSketch::BucketStore::operator==(
    const BucketStore& other) const noexcept {
  const std::int64_t lo = std::min(offset, other.offset);
  const std::int64_t hi = std::max(
      offset + static_cast<std::int64_t>(counts.size()),
      other.offset + static_cast<std::int64_t>(other.counts.size()));
  for (std::int64_t index = lo; index < hi; ++index) {
    if (at(index) != other.at(index)) return false;
  }
  return true;
}

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0) || alpha >= 1.0) {
    throw std::invalid_argument("quantile alpha must be in (0, 1)");
  }
  gamma_ = (1.0 + alpha) / (1.0 - alpha);
  log_gamma_ = std::log(gamma_);
  // bucket_index is monotone in the magnitude, so these bound every index
  // update() can produce.
  min_index_ = bucket_index(1e-12);
  max_index_ = bucket_index(DBL_MAX);
}

std::int32_t QuantileSketch::bucket_index(double magnitude) const {
  return static_cast<std::int32_t>(
      std::ceil(std::log(magnitude) / log_gamma_));
}

double QuantileSketch::representative(std::int32_t index) const {
  // Midpoint (harmonic) of bucket (γ^(i−1), γ^i]: 2γ^i / (γ+1) — within α
  // relative error of every value in the bucket.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::add(BucketStore& store, std::int32_t index) {
  std::size_t pos = static_cast<std::size_t>(
      static_cast<std::int64_t>(index) - store.offset);
  if (pos >= store.counts.size()) {
    store.cover(index, index, min_index_, max_index_);
    pos = static_cast<std::size_t>(index - store.offset);
  }
  ++store.counts[pos];
}

void QuantileSketch::update(double value) {
  if (std::isnan(value)) return;
  ++count_;
  // Magnitudes below the smallest representable bucket boundary collapse to
  // the zero bucket (their absolute value is ≤ 1e-12; relative error on such
  // answers is meaningless at double precision anyway).
  const double magnitude = std::min(std::abs(value), DBL_MAX);
  if (magnitude <= 1e-12) {
    ++zero_count_;
  } else if (value > 0.0) {
    add(positive_, bucket_index(magnitude));
  } else {
    add(negative_, bucket_index(magnitude));
  }
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target =
      q * static_cast<double>(count_ - 1);  // rank in [0, count)
  std::uint64_t cumulative = 0;
  // Ascending value order: most-negative first (descending |v| index), then
  // zeros, then positives ascending. Empty buckets never cross the target.
  for (std::size_t pos = negative_.counts.size(); pos-- > 0;) {
    cumulative += negative_.counts[pos];
    if (static_cast<double>(cumulative) > target) {
      return -representative(negative_.offset + static_cast<std::int32_t>(pos));
    }
  }
  cumulative += zero_count_;
  if (static_cast<double>(cumulative) > target) return 0.0;
  for (std::size_t pos = 0; pos < positive_.counts.size(); ++pos) {
    cumulative += positive_.counts[pos];
    if (static_cast<double>(cumulative) > target) {
      return representative(positive_.offset + static_cast<std::int32_t>(pos));
    }
  }
  // Numerically unreachable; return the largest representative for safety.
  const std::size_t end = positive_.end_nonzero();
  return end == 0 ? 0.0
                  : representative(positive_.offset +
                                   static_cast<std::int32_t>(end - 1));
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (alpha_ != other.alpha_) {
    throw std::invalid_argument("quantile merge: incompatible sketches");
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  for (const auto& [mine, theirs] :
       {std::pair{&positive_, &other.positive_},
        std::pair{&negative_, &other.negative_}}) {
    const std::size_t first = theirs->first_nonzero();
    const std::size_t end = theirs->end_nonzero();
    if (first >= end) continue;
    const std::int32_t lo = theirs->offset + static_cast<std::int32_t>(first);
    const std::int32_t hi = theirs->offset + static_cast<std::int32_t>(end - 1);
    mine->cover(lo, hi, min_index_, max_index_);
    std::uint64_t* into = mine->counts.data() + (lo - mine->offset);
    for (std::size_t pos = first; pos < end; ++pos) {
      *into++ += theirs->counts[pos];
    }
  }
}

std::uint64_t QuantileSketch::digest() const noexcept {
  std::uint64_t acc = mix64(std::bit_cast<std::uint64_t>(alpha_));
  for (const auto& [store, tag] : {std::pair{&positive_, std::uint64_t{2}},
                                   std::pair{&negative_, std::uint64_t{3}}}) {
    for (std::size_t pos = 0; pos < store->counts.size(); ++pos) {
      if (store->counts[pos] == 0) continue;
      const auto index = static_cast<std::uint64_t>(
          store->offset + static_cast<std::int32_t>(pos));
      acc = fold(acc, index * 2 + tag, store->counts[pos]);
    }
  }
  return mix64(acc ^ (count_ * 0x9e3779b97f4a7c15ULL) ^ zero_count_);
}

}  // namespace streamapprox::sketch
