// Sketch query plumbing: the per-query collection spec, the per-slide
// worker-local sketch state that travels next to the OASRS sampler, and the
// answer payload a sketch sink reports per window.
//
// Data flow mirrors the sampler's exactly (see docs/architecture.md): every
// worker keeps one SlideSketches per open slide, absorbs the FULL record
// stream into it (sketches see every record — sampling happens beside them,
// not in front of them), and at slide close the per-worker states merge
// through the same path as OasrsSampler::merge(). Because every sketch
// merges exactly, the merged state — and hence every sketch answer — is
// bit-identical between the sequential, sharded and work-stealing runtimes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "engine/record.h"
#include "sketch/sketches.h"

namespace streamapprox::sketch {

/// What one sketch query collects. Built by the sink, completed by the
/// driver at registration (the driver assigns `id`, unique per driver, so
/// worker-local states and sink can find each other after merges).
struct SketchSpec {
  enum class Kind : std::uint8_t {
    kCountMin,     ///< top-K heavy hitters + frequency estimates
    kHyperLogLog,  ///< distinct-key count
    kQuantile,     ///< value quantiles
  };
  /// What the sketch keys on. Quantile sketches always digest the record
  /// value and ignore this field.
  enum class KeySource : std::uint8_t {
    kStratum,   ///< the record's stratum id (flow, protocol, borough)
    kValueInt,  ///< llround(record.value) — e.g. distinct observed sizes
  };

  Kind kind = Kind::kCountMin;
  KeySource key = KeySource::kStratum;
  /// Error target: Count-Min additive bound ε·N (width = ⌈e/ε⌉),
  /// HyperLogLog relative standard error, quantile relative value bound α.
  double epsilon = 0.01;
  /// Count-Min per-estimate failure probability (depth = ⌈ln(1/δ)⌉).
  double delta = 0.01;
  /// Heavy hitters reported per window (Count-Min only).
  std::size_t top_k = 10;
  /// Hash seed; rows/registers derive from it alone, so states built for
  /// the same spec anywhere in the run merge exactly.
  std::uint64_t seed = 2017;
  /// Driver-assigned identity (0 = unregistered).
  std::uint64_t id = 0;
};

/// One window's evaluated sketch answer (the payload on QueryOutput).
/// Equality is exact — the sharded-equivalence tests compare these
/// bit-for-bit against the sequential run.
struct SketchAnswer {
  SketchSpec::Kind kind = SketchSpec::Kind::kCountMin;
  /// Records the sketch digested over the window (the N of the ε·N bound).
  std::uint64_t stream_count = 0;
  /// The configured error target the answer was sized for.
  double epsilon = 0.0;
  /// Count-Min: (key, estimated count), ordered by estimate desc, key asc.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heavy_hitters;
  /// HyperLogLog: estimated distinct keys.
  double distinct = 0.0;
  /// Quantile: (q, value at q) for the probe grid.
  std::vector<std::pair<double, double>> quantiles;

  friend bool operator==(const SketchAnswer&, const SketchAnswer&) = default;
};

/// Worker-local per-slide state for ONE spec: the sketch plus the exact
/// candidate-key set Count-Min needs to enumerate heavy hitters (a Count-Min
/// alone can estimate any key but enumerate none). The candidate set is
/// exact and merged by union — any bounded worker-local pruning (space-
/// saving, local top-K heaps) would make the state depend on which worker
/// saw which record and break sharded ≡ sequential bit-identity; top-K
/// selection happens post-merge at the sink instead.
struct SlideSketchState {
  SketchSpec spec;
  /// Records this state absorbed (compared against the container total to
  /// detect specs attached after some workers already opened the slide).
  std::uint64_t seen = 0;
  std::optional<CountMinSketch> count_min;
  std::unordered_set<std::uint64_t> candidates;
  std::optional<HyperLogLog> hll;
  std::optional<QuantileSketch> quantile;

  /// Fresh empty state provisioned for the spec.
  static SlideSketchState make(const SketchSpec& spec);

  void absorb(const engine::Record* records, std::size_t n);
  void merge(const SlideSketchState& other);
};

/// The immutable set of sketch specs in force, rebuilt by the driver at
/// registration boundaries and snapshotted (shared_ptr) by workers when they
/// open a slide.
struct SketchPlan {
  std::vector<SketchSpec> specs;
};

/// All sketch state one worker keeps for one open slide — the sketch-side
/// sibling of the per-slide OasrsSampler. Default-constructed instances are
/// empty merge targets (the merger's accumulator).
class SlideSketches {
 public:
  SlideSketches() = default;
  explicit SlideSketches(const SketchPlan& plan);

  /// Digests a run of records into every state (and the container total).
  void absorb(const engine::Record* records, std::size_t n);

  /// Folds another slide's states in (union of specs; matching spec ids
  /// merge exactly). Commutative and associative.
  void merge(const SlideSketches& other);

  /// State for a spec id, or nullptr when no worker collected it.
  const SlideSketchState* find(std::uint64_t spec_id) const;

  /// Total records absorbed across all contributors. A spec's state is
  /// COMPLETE for the slide iff state->seen == seen(): anything less means
  /// the spec attached after part of the slide was already digested.
  std::uint64_t seen() const noexcept { return seen_; }

  bool empty() const noexcept { return states_.empty(); }

 private:
  std::vector<SlideSketchState> states_;  // ordered by spec id
  std::uint64_t seen_ = 0;
};

}  // namespace streamapprox::sketch
