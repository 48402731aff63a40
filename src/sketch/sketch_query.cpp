#include "sketch/sketch_query.h"

#include <algorithm>

namespace streamapprox::sketch {
namespace {

/// Calls fn(key, length) once per maximal run of records with equal
/// consecutive keys, computing each record's key once. A run of n records is
/// one Count-Min update of weight n: the counters and the candidate set end
/// up exactly as n per-record updates would leave them.
template <typename KeyFn, typename RunFn>
void for_each_run(const engine::Record* records, std::size_t n,
                  const KeyFn& key_fn, const RunFn& fn) {
  if (n == 0) return;
  std::uint64_t key = key_fn(records[0]);
  std::size_t length = 1;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t next = key_fn(records[i]);
    if (next == key) {
      ++length;
      continue;
    }
    fn(key, length);
    key = next;
    length = 1;
  }
  fn(key, length);
}

/// for_each_run over the key the spec's KeySource selects.
template <typename RunFn>
void for_each_key_run(const SketchSpec& spec, const engine::Record* records,
                      std::size_t n, const RunFn& fn) {
  if (spec.key == SketchSpec::KeySource::kValueInt) {
    for_each_run(records, n,
                 [](const engine::Record& r) {
                   return value_int_key(r.value);
                 },
                 fn);
  } else {
    for_each_run(records, n,
                 [](const engine::Record& r) {
                   return static_cast<std::uint64_t>(r.stratum);
                 },
                 fn);
  }
}

}  // namespace

SlideSketchState SlideSketchState::make(const SketchSpec& spec) {
  SlideSketchState state;
  state.spec = spec;
  switch (spec.kind) {
    case SketchSpec::Kind::kCountMin:
      state.count_min =
          CountMinSketch::for_error(spec.epsilon, spec.delta, spec.seed);
      break;
    case SketchSpec::Kind::kHyperLogLog:
      state.hll = HyperLogLog::for_error(spec.epsilon, spec.seed);
      state.hll_added.emplace();
      break;
    case SketchSpec::Kind::kQuantile:
      state.quantile = QuantileSketch(spec.epsilon);
      break;
  }
  return state;
}

void SlideSketchState::absorb(const engine::Record* records, std::size_t n) {
  seen += n;
  switch (spec.kind) {
    case SketchSpec::Kind::kCountMin:
      for_each_key_run(spec, records, n,
                       [&](std::uint64_t key, std::size_t length) {
                         count_min->update(key, length);
                         candidates.insert(key);
                       });
      break;
    case SketchSpec::Kind::kHyperLogLog:
      // Adding a key twice leaves the registers unchanged, so a run needs
      // one add (a run split across chunks gets two), and a key the filter
      // remembers needs none.
      for (std::size_t at = 0; at < n; at += AddedKeyFilter::kChunk) {
        const std::size_t len = std::min(AddedKeyFilter::kChunk, n - at);
        if (!hll_added->consult()) {
          for_each_key_run(spec, records + at, len,
                           [&](std::uint64_t key, std::size_t) {
                             hll->add(key);
                           });
          continue;
        }
        std::size_t hits = 0;
        std::size_t runs = 0;
        for_each_key_run(spec, records + at, len,
                         [&](std::uint64_t key, std::size_t) {
                           ++runs;
                           if (hll_added->test_and_insert(key)) {
                             ++hits;
                           } else {
                             hll->add(key);
                           }
                         });
        hll_added->observe(hits, runs);
      }
      break;
    case SketchSpec::Kind::kQuantile:
      for (std::size_t i = 0; i < n; ++i) {
        quantile->update(records[i].value);
      }
      break;
  }
}

void SlideSketchState::merge(const SlideSketchState& other) {
  seen += other.seen;
  if (count_min && other.count_min) {
    count_min->merge(*other.count_min);
    candidates.insert(other.candidates.begin(), other.candidates.end());
  }
  if (hll && other.hll) hll->merge(*other.hll);
  if (quantile && other.quantile) quantile->merge(*other.quantile);
}

SlideSketches::SlideSketches(const SketchPlan& plan) {
  states_.reserve(plan.specs.size());
  for (const SketchSpec& spec : plan.specs) {
    states_.push_back(SlideSketchState::make(spec));
  }
  std::sort(states_.begin(), states_.end(),
            [](const SlideSketchState& a, const SlideSketchState& b) {
              return a.spec.id < b.spec.id;
            });
}

void SlideSketches::absorb(const engine::Record* records, std::size_t n) {
  if (n == 0) return;
  seen_ += n;
  for (SlideSketchState& state : states_) {
    state.absorb(records, n);
  }
}

void SlideSketches::merge(const SlideSketches& other) {
  seen_ += other.seen_;
  for (const SlideSketchState& theirs : other.states_) {
    const auto it = std::lower_bound(
        states_.begin(), states_.end(), theirs.spec.id,
        [](const SlideSketchState& s, std::uint64_t id) {
          return s.spec.id < id;
        });
    if (it != states_.end() && it->spec.id == theirs.spec.id) {
      it->merge(theirs);
    } else {
      states_.insert(it, theirs);
    }
  }
}

const SlideSketchState* SlideSketches::find(std::uint64_t spec_id) const {
  const auto it = std::lower_bound(
      states_.begin(), states_.end(), spec_id,
      [](const SlideSketchState& s, std::uint64_t id) {
        return s.spec.id < id;
      });
  if (it != states_.end() && it->spec.id == spec_id) return &*it;
  return nullptr;
}

}  // namespace streamapprox::sketch
