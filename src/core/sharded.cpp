// Sharded execution of the StreamApprox facade — the paper's central
// "no synchronisation between workers" claim (§3.2, Algorithm 3) realised
// over a batched morsel data plane:
//
//   exchanges        E exchange shards each poll their partition subset in
//                    batches and re-key them by stratum hash onto per-worker
//                    SPSC channels (ingest/exchange.h), so the worker count
//                    is independent of the topic's partition count; each
//                    batch carries that shard's resolved low-watermark, its
//                    stratum run descriptors and a stratum-occupancy stamp;
//   workers          absorb batches into LOCAL per-slide OASRS samplers and
//                    report absorption through a per-channel completion
//                    tracker, so the merger's min-combined watermark never
//                    runs ahead of the samples.
//
// Work-stealing morsel scheduler (config.work_stealing). Workers are not
// statically bound to their channels: each worker drains its own inboxes
// into a per-worker StealDeque (common/queue.h) and works LIFO off the
// bottom; when its own work runs out it pops the shared overflow injector,
// then steals the OLDEST morsel off another worker's deque. A stolen morsel
// is absorbed into the THIEF's local per-slide samplers — safe because OASRS
// samplers merge associatively at slide close (the merger concatenates
// whatever shard holds each stratum's reservoir), so per-window records_seen
// is schedule-independent. Deque overflow spills to the injector; when both
// are full the owner absorbs in place, so the exchange can never deadlock
// against a full topology. Out-of-order completion is reconciled by
// ChannelProgress below.
//
// No lock is shared between two workers on the sampling hot path (each
// worker's mutex exists only to hand closed slides to the merger), and all
// ingest is batch-at-a-time: one mutex acquisition per batch, one slide-map
// lookup per run of same-slide records, one bulk offer per stratum run.
//
//   merger           once the low-watermark passes a slide's end, extracts
//                    that slide's sampler from every worker, concatenates
//                    them with OasrsSampler::merge(), and closes the slide
//                    through the shared PipelineDriver — estimator inputs
//                    identical to the sequential path modulo stratum order,
//                    because the exchange's stratum hash sends each stratum
//                    to exactly one channel.
//
// The adaptive feedback loop still works: the merger re-tunes the driver's
// budget as windows complete (max across every registered query's accuracy
// target — see core/query.h), and workers read the atomic budget when they
// open samplers for new slides. The per-slide budget is split across
// workers by STRATUM OCCUPANCY (budget · my_strata/total_strata, stamped on
// exchange batches), not by the flat budget/workers share that undershoots
// when strata spread unevenly. Query evaluation itself lives entirely behind
// the driver's query registry, so the sharded data plane is byte-for-byte
// the same whether one query or N are registered — and queries may
// attach/detach mid-run: the merger applies registry changes at slide-close
// boundaries, workers never notice.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/thread_pool.h"
#include "core/stream_approx.h"
#include "core/watermark.h"
#include "engine/record_batch.h"
#include "ingest/broker.h"
#include "ingest/exchange.h"

namespace streamapprox::core {
namespace {

constexpr std::int64_t kNoSlide = std::numeric_limits<std::int64_t>::max();

/// One worker's state for one open slide: the OASRS sampler plus the sketch
/// states collecting beside it over the full (unsampled) record stream. Both
/// merge at slide close — the sampler distribution-identically, the sketches
/// exactly, which is what makes sharded sketch answers bit-identical to the
/// sequential path's.
struct WorkerSlide {
  PipelineDriver::Sampler sampler;
  sketch::SlideSketches sketches;

  WorkerSlide(sampling::OasrsConfig config,
              std::shared_ptr<const sketch::SketchPlan> plan)
      : sampler(std::move(config), engine::RecordStratum{}),
        sketches(*plan) {}
};

/// Worker-local state the merger reaches into: the per-slide samplers of one
/// shard, guarded by a mutex the owning worker holds only while applying a
/// polled batch (never across polls, never against another worker).
struct Shard {
  std::mutex mutex;
  std::map<std::int64_t, WorkerSlide> slides;
  /// The stratum-occupancy share last applied to this shard's samplers:
  /// `occupancy_my` of `occupancy_total` strata route here, so new slide
  /// samplers get budget · my/total instead of the flat budget/workers
  /// split (which undershoots whenever strata spread unevenly — the
  /// quickstart's 3 strata over 4 workers sampled ~half the budget).
  std::size_t occupancy_my = 0;
  std::size_t occupancy_total = 0;
};

void atomic_min(std::atomic<std::int64_t>& target, std::int64_t value) {
  std::int64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

/// Morsel-completion tracker for the work-stealing scheduler. Stolen morsels
/// are absorbed out of channel order, but a channel's watermark clock may
/// only cover records already in samplers — so each channel's clock advances
/// over the CONTIGUOUS PREFIX of completed sequence numbers, publishing the
/// watermark of the last batch in the prefix. The exchange stamps seqs
/// gaplessly per channel (heartbeats included), so the prefix always catches
/// up; per-shard watermarks are monotone, so the published clock is too.
class ChannelProgress {
 public:
  ChannelProgress(std::size_t channels,
                  std::vector<std::atomic<std::int64_t>>& clocks)
      : states_(channels), clocks_(clocks) {}

  /// Reports batch (channel, seq) absorbed with watermark `watermark_us`.
  void complete(std::uint32_t channel, std::uint64_t seq,
                std::int64_t watermark_us) {
    State& state = states_[channel];
    std::lock_guard lock(state.mutex);
    state.pending.emplace(seq, watermark_us);
    std::int64_t publish = kNoClock;
    bool advanced = false;
    while (!state.pending.empty() &&
           state.pending.begin()->first == state.next) {
      publish = state.pending.begin()->second;
      state.pending.erase(state.pending.begin());
      ++state.next;
      advanced = true;
    }
    // Publish under the lock: two thieves finishing prefixes back-to-back
    // must store in prefix order or the clock could transiently regress.
    if (advanced) clocks_[channel].store(publish, std::memory_order_release);
  }

 private:
  struct State {
    std::mutex mutex;
    std::uint64_t next = 0;  ///< first sequence number not yet completed
    std::map<std::uint64_t, std::int64_t> pending;  ///< completed, gapped
  };
  std::vector<State> states_;
  std::vector<std::atomic<std::int64_t>>& clocks_;
};

/// Cross-worker totals of the morsel scheduler, flushed once per worker at
/// exit (the hot loop counts into locals).
struct SchedulerCounters {
  std::atomic<std::uint64_t> owner_pops{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> injector_pushes{0};
  std::atomic<std::uint64_t> injector_pops{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> heartbeats{0};
  std::atomic<std::uint64_t> records{0};
};

/// Everything the workers and the merger share.
struct ShardedPlan {
  PipelineDriver& driver;
  std::vector<Shard>& shards;
  std::size_t workers;
  std::int64_t slide_us;
  /// The earliest slide observed anywhere (the cold-start base slide).
  std::atomic<std::int64_t> first_slide{kNoSlide};
  /// Slides below this are closed; workers drop records for them as late.
  std::atomic<std::int64_t> closed_through{
      std::numeric_limits<std::int64_t>::min()};
  std::atomic<std::size_t> workers_done{0};
  /// Sampling-kernel totals, accumulated by the merger at each slide close
  /// (worker sampler stats ride along through OasrsSampler::merge).
  std::atomic<std::uint64_t> sampler_bulk_runs{0};
  std::atomic<std::uint64_t> sampler_accepts{0};
  std::atomic<std::uint64_t> sampler_skipped{0};

  ShardedPlan(PipelineDriver& driver, std::vector<Shard>& shards,
              std::size_t workers, std::int64_t slide_us)
      : driver(driver), shards(shards), workers(workers), slide_us(slide_us) {}
};

/// Applies an occupancy stamp to worker `w`'s shard. When the stamp changed,
/// every open sampler's budget is re-tuned to the new occupancy share —
/// shrinks apply to live reservoirs immediately (a uniform subsample stays
/// uniform), growth applies at the sampler's next reset. Caller holds the
/// shard mutex.
void apply_occupancy_locked(ShardedPlan& plan, std::size_t w, Shard& shard,
                            std::size_t my_strata, std::size_t total_strata) {
  if (my_strata == shard.occupancy_my &&
      total_strata == shard.occupancy_total) {
    return;
  }
  shard.occupancy_my = my_strata;
  shard.occupancy_total = total_strata;
  for (auto& [slide, open] : shard.slides) {
    open.sampler.set_total_budget(
        plan.driver
            .slide_sampler_config(slide, w, plan.workers, my_strata,
                                  total_strata)
            .total_budget);
  }
}

/// Routes one exchange batch into worker `w`'s local per-slide samplers: one
/// mutex acquisition per batch, one slide-map lookup per run of consecutive
/// same-slide records, one OASRS bulk offer per stratum run. Each slide run
/// is intersected with the batch's stratum run descriptors (every exchange
/// batch carries them) and fed to the sampler's offer_run fast path, which
/// skips key extraction per record and (in the Algorithm L phase) never
/// reads the records a saturated reservoir rejects. `my_strata` /
/// `total_strata` is the stratum-occupancy stamp in force for this batch,
/// driving the occupancy-aware budget split. `apply_stamp` is false when a thief absorbs
/// a STOLEN morsel: the victim channel's stamp describes the victim's
/// stratum set, not the thief's, so the thief keeps its own occupancy share
/// (records_seen is unaffected either way).
void absorb_batch(ShardedPlan& plan, std::size_t w,
                  const engine::RecordBatch& batch, std::size_t my_strata,
                  std::size_t total_strata, bool apply_stamp) {
  Shard& shard = plan.shards[w];
  std::lock_guard lock(shard.mutex);
  if (apply_stamp) {
    apply_occupancy_locked(plan, w, shard, my_strata, total_strata);
  }
  const std::int64_t frozen =
      plan.closed_through.load(std::memory_order_acquire);
  const engine::Record* records = batch.records.data();
  const engine::StratumRun* runs = batch.stratum_runs.data();
  const std::size_t run_count = batch.stratum_runs.size();
  // Cursor into the stratum run descriptors, shared across slide runs: both
  // segmentations walk the batch left to right, so one forward pass covers
  // every intersection even when a stratum run straddles a slide boundary
  // (or a late-dropped slide consumed part of it).
  std::size_t ri = 0;
  engine::for_each_slide_run(
      records, batch.size(), plan.slide_us,
      [&](std::int64_t slide, const engine::Record* run, std::size_t n) {
        if (slide < frozen) return;  // late beyond merged watermark
        auto it = shard.slides.find(slide);
        if (it == shard.slides.end()) {
          it = shard.slides
                   .try_emplace(slide,
                                plan.driver.slide_sampler_config(
                                    slide, w, plan.workers,
                                    shard.occupancy_my,
                                    shard.occupancy_total),
                                plan.driver.sketch_plan())
                   .first;
          atomic_min(plan.first_slide, slide);
        }
        // Sketches digest the FULL stream (sampling happens beside them),
        // whichever worker the run landed on — merge exactness makes the
        // final per-slide state independent of that placement.
        it->second.sketches.absorb(run, n);
        const std::size_t begin = static_cast<std::size_t>(run - records);
        const std::size_t slide_end = begin + n;
        while (ri < run_count &&
               runs[ri].offset + runs[ri].length <= begin) {
          ++ri;
        }
        std::size_t pos = begin;
        while (pos < slide_end) {
          const engine::StratumRun& sr = runs[ri];
          const std::size_t sr_end = sr.offset + sr.length;
          const std::size_t take =
              std::min<std::size_t>(sr_end, slide_end) - pos;
          it->second.sampler.offer_run(sr.stratum, records + pos, take);
          pos += take;
          if (sr_end <= pos) ++ri;
        }
      });
}

/// The merger: watermark-gated slide closing, run in the calling thread
/// until every worker finished. `clocks` are the per-channel republished
/// watermarks; the exchanges already resolved the idleness policy into the
/// values they forwarded, so no idle grace applies here.
void merge_until_done(ShardedPlan& plan,
                      std::vector<std::atomic<std::int64_t>>& clocks,
                      const std::function<void(std::int64_t)>& after_close) {
  const auto close_one = [&](std::int64_t slide) {
    // Freeze the slide first: a racing worker either got its records in
    // before extraction (they are merged) or sees the fence and drops them
    // as late — exactly the sequential path's late-record rule.
    plan.closed_through.store(slide + 1, std::memory_order_release);
    PipelineDriver::Sampler merged(plan.driver.slide_sampler_config(slide),
                                   engine::RecordStratum{});
    sketch::SlideSketches merged_sketches;
    for (auto& shard : plan.shards) {
      std::map<std::int64_t, WorkerSlide>::node_type node;
      {
        std::lock_guard lock(shard.mutex);
        // Stranded entries below the closing slide are late beyond the
        // watermark (e.g. an idle-excluded partition woke with old data
        // after slides passed it): discard them, matching the sequential
        // path, which drops such records at offer time.
        while (!shard.slides.empty() &&
               shard.slides.begin()->first < slide) {
          shard.slides.erase(shard.slides.begin());
        }
        node = shard.slides.extract(slide);
      }
      if (node) {
        merged.merge(node.mapped().sampler);
        merged_sketches.merge(node.mapped().sketches);
      }
    }
    // Kernel counters rode along through merge(); the extracted per-slide
    // samplers are destroyed below, so this is the one place to bank them.
    const auto& ks = merged.kernel_stats();
    plan.sampler_bulk_runs.fetch_add(ks.bulk_runs, std::memory_order_relaxed);
    plan.sampler_accepts.fetch_add(ks.accepted, std::memory_order_relaxed);
    plan.sampler_skipped.fetch_add(ks.skipped, std::memory_order_relaxed);
    plan.driver.close_slide_sample(slide, merged.take(),
                                   std::move(merged_sketches));
    after_close(slide);
  };

  std::optional<std::int64_t> next;
  bool any_closed = false;
  std::vector<std::int64_t> clock_snapshot(clocks.size());
  for (;;) {
    const bool all_done =
        plan.workers_done.load(std::memory_order_acquire) == plan.workers;
    for (std::size_t c = 0; c < clocks.size(); ++c) {
      clock_snapshot[c] = clocks[c].load(std::memory_order_acquire);
    }
    const auto view =
        evaluate_watermark(clock_snapshot, /*idle_grace_over=*/false);
    const std::int64_t lo = plan.first_slide.load(std::memory_order_acquire);
    bool progressed = false;
    if (lo != kNoSlide && !view.blocked) {
      if (!next) {
        next = lo;
      } else if (!any_closed) {
        // Nothing closed yet: a slow partition may have delivered an even
        // earlier slide since the pin — include it rather than strand it.
        *next = std::min(*next, lo);
      }
      for (;;) {
        bool ripe = false;
        if (view.flush_all()) {
          // No source gates (drained and/or idle past grace): flush through
          // the last open slide so output is never stranded.
          std::int64_t hi = std::numeric_limits<std::int64_t>::min();
          for (auto& shard : plan.shards) {
            std::lock_guard lock(shard.mutex);
            if (!shard.slides.empty()) {
              hi = std::max(hi, shard.slides.rbegin()->first);
            }
          }
          ripe = hi != std::numeric_limits<std::int64_t>::min() && *next <= hi;
        } else {
          ripe = (*next + 1) * plan.slide_us <= view.watermark;
        }
        if (!ripe) break;
        close_one(*next);
        ++*next;
        any_closed = true;
        progressed = true;
      }
    }
    if (all_done) break;
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

}  // namespace

void StreamApprox::run_sharded(
    const std::function<void(const WindowOutput&)>& on_window) {
  const std::size_t workers = config_.workers;
  const std::int64_t slide_us = config_.window.slide_us;

  PipelineDriver driver(driver_config(), on_window);
  const DriverInstallation installation(*this, driver);
  slide_budget_ = driver.current_budget();

  std::vector<Shard> shards(workers);
  ShardedPlan plan(driver, shards, workers, slide_us);

  // E exchange shards repartition their partition subsets onto per-worker
  // channels; workers run the morsel scheduler.
  const std::size_t exchange_count =
      std::max<std::size_t>(1, config_.exchanges);
  const bool stealing = config_.work_stealing;
  const std::size_t deque_capacity =
      std::max<std::size_t>(2, config_.steal_deque_capacity);
  run_stats_.exchanges = exchange_count;
  run_stats_.workers = workers;
  run_stats_.per_worker_records.assign(workers, 0);

  std::vector<std::unique_ptr<ingest::Exchange>> exchanges;
  exchanges.reserve(exchange_count);
  for (std::size_t e = 0; e < exchange_count; ++e) {
    ingest::ExchangeConfig exchange_config;
    exchange_config.workers = workers;
    exchange_config.batch_size = config_.exchange_batch_size;
    exchange_config.ring_capacity = config_.exchange_ring_capacity;
    exchange_config.idle_partition_timeout_ms =
        config_.idle_partition_timeout_ms;
    exchange_config.exchange_index = e;
    exchange_config.exchange_count = exchange_count;
    exchange_config.bulk_routing = config_.bulk_exchange_routing;
    exchanges.push_back(std::make_unique<ingest::Exchange>(
        broker_, config_.topic, exchange_config));
  }

  // One watermark clock per CHANNEL (= exchange e × worker w, index
  // e·W + w), advanced only by the completion tracker — so a clock covers
  // exactly the contiguously absorbed prefix of its channel, and the
  // merger's min over all E·W clocks min-combines the per-shard
  // watermarks (core::resolve_watermark explains why that composes).
  const std::size_t channels = exchange_count * workers;
  std::vector<std::atomic<std::int64_t>> clocks(channels);
  for (auto& clock : clocks) {
    clock.store(kNoClock, std::memory_order_relaxed);
  }
  ChannelProgress progress(channels, clocks);

  // The scheduler's queues: one steal deque per worker plus the shared
  // overflow injector (deque full → injector; both full → absorb in
  // place, so backpressure can never deadlock the topology).
  std::vector<std::unique_ptr<StealDeque<engine::RecordBatch*>>> deques;
  deques.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    deques.push_back(std::make_unique<StealDeque<engine::RecordBatch*>>(
        deque_capacity));
  }
  BoundedQueue<engine::RecordBatch*> injector(
      std::max<std::size_t>(64, workers * deque_capacity));
  SchedulerCounters counters;

  const auto after_close = [&](std::int64_t slide) {
    slide_budget_ = driver.current_budget();
    // Watermark lag: how far ingest had run ahead of this close.
    std::int64_t max_event = engine::kNoWatermark;
    for (const auto& exchange : exchanges) {
      max_event = std::max(max_event, exchange->max_routed_event_us());
    }
    if (max_event != engine::kNoWatermark) {
      run_stats_.watermark_lag_us.push_back(max_event -
                                            (slide + 1) * slide_us);
    }
  };

  {
    ThreadPool pool(workers + exchange_count);
    for (std::size_t e = 0; e < exchange_count; ++e) {
      pool.submit([&, e] {
        set_current_thread_name(("sa-exch-" + std::to_string(e)).c_str());
        exchanges[e]->run();
      });
    }
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit([&, w] {
        set_current_thread_name(("sa-work-" + std::to_string(w)).c_str());
        // Volatile-sunk at exit so the parse-work model survives
        // optimisation.
        double ingest_acc = 0.0;
        // This worker's occupancy stamps, one per OWN channel. Strata are
        // disjoint across exchange shards (each stratum lives on exactly
        // one partition), so the summed stamps are the worker's true
        // occupancy share across the sharded exchange.
        std::vector<std::uint32_t> stamp_my(exchange_count, 0);
        std::vector<std::uint32_t> stamp_total(exchange_count, 0);
        std::uint64_t n_owner = 0, n_steal = 0, n_inj_push = 0,
                      n_inj_pop = 0, n_batches = 0, n_heartbeats = 0,
                      n_records = 0;

        const auto summed_occupancy = [&](std::size_t& my,
                                          std::size_t& total) {
          my = 0;
          total = 0;
          for (std::size_t e = 0; e < exchange_count; ++e) {
            my += stamp_my[e];
            total += stamp_total[e];
          }
        };

        // Absorbs one data morsel into THIS worker's local samplers.
        // Owner morsels refresh the occupancy stamp; stolen ones keep the
        // thief's share (absorb_batch comment). Completion is reported
        // after the samplers hold the records — the watermark invariant.
        const auto absorb = [&](engine::RecordBatch* raw) {
          ingest::Exchange::BatchPtr batch(raw);
          const std::size_t e = batch->channel / workers;
          const bool own = batch->channel % workers == w;
          for (const auto& record : batch->records) {
            ingest_acc += config_.ingest_cost.charge(record.value);
          }
          if (own) {
            stamp_my[e] = batch->route_strata;
            stamp_total[e] = batch->total_strata;
          }
          std::size_t my = 0, total = 0;
          summed_occupancy(my, total);
          absorb_batch(plan, w, *batch, my, total, /*apply_stamp=*/own);
          ++n_batches;
          n_records += batch->size();
          progress.complete(batch->channel, batch->seq,
                            batch->watermark_us);
          exchanges[e]->recycle(std::move(batch));
        };

        // Heartbeats never enter the deques (no records to steal): the
        // owner applies the occupancy stamp and completes them inline. A
        // heartbeat can shrink open samplers when another channel
        // discovered a stratum.
        const auto handle_heartbeat =
            [&](ingest::Exchange::BatchPtr batch) {
              const std::size_t e = batch->channel / workers;
              stamp_my[e] = batch->route_strata;
              stamp_total[e] = batch->total_strata;
              std::size_t my = 0, total = 0;
              summed_occupancy(my, total);
              if (total > 0) {
                Shard& shard = plan.shards[w];
                std::lock_guard lock(shard.mutex);
                apply_occupancy_locked(plan, w, shard, my, total);
              }
              ++n_heartbeats;
              progress.complete(batch->channel, batch->seq,
                                batch->watermark_us);
              exchanges[e]->recycle(std::move(batch));
            };

        StealDeque<engine::RecordBatch*>& deque = *deques[w];
        std::vector<ingest::Exchange::BatchPtr> inbox;
        inbox.reserve(deque_capacity);

        // Drains this worker's own inboxes (one ring per exchange shard)
        // into its deque, spilling overflow to the injector.
        const auto refill = [&]() -> bool {
          bool any = false;
          for (std::size_t e = 0; e < exchange_count; ++e) {
            inbox.clear();
            exchanges[e]->pop_n(w, inbox, deque_capacity);
            for (auto& polled : inbox) {
              any = true;
              if (polled->heartbeat) {
                handle_heartbeat(std::move(polled));
                continue;
              }
              engine::RecordBatch* raw = polled.release();
              if (!deque.push_bottom(raw)) {
                if (injector.try_push(raw)) {
                  ++n_inj_push;
                } else {
                  // Deque and injector both full: absorb in place so the
                  // exchange's backpressure can always drain.
                  absorb(raw);
                  ++n_owner;
                }
              }
            }
          }
          return any;
        };

        if (stealing) {
          for (;;) {
            // 1. Own deque, newest first (cache-warm LIFO).
            if (auto raw = deque.pop_bottom()) {
              absorb(*raw);
              ++n_owner;
              continue;
            }
            // 2. Refill from own inboxes (also exposes backlog to
            // thieves).
            if (refill()) continue;
            // 3. Shared injector overflow.
            if (auto raw = injector.try_pop()) {
              absorb(*raw);
              ++n_inj_pop;
              continue;
            }
            // 4. Steal the oldest morsel off another worker's deque.
            bool stole = false;
            for (std::size_t offset = 1; offset < workers && !stole;
                 ++offset) {
              if (auto raw = deques[(w + offset) % workers]->steal_top()) {
                absorb(*raw);
                ++n_steal;
                stole = true;
              }
            }
            if (stole) continue;
            // 5. Exit only with own inboxes drained and both queues this
            // worker could still be responsible for empty. A worker that
            // spilled to the injector always reaches this check again, so
            // injector morsels can never be orphaned.
            bool inputs_done = true;
            for (std::size_t e = 0; e < exchange_count; ++e) {
              inputs_done = inputs_done && exchanges[e]->drained(w);
            }
            if (inputs_done && deque.empty() && injector.size() == 0) {
              break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        } else {
          // Static binding (the steal-skew benchmark's baseline): each
          // worker consumes exactly its own channels.
          for (;;) {
            bool any = false;
            for (std::size_t e = 0; e < exchange_count; ++e) {
              while (auto batch = exchanges[e]->pop(w)) {
                any = true;
                if (batch->heartbeat) {
                  handle_heartbeat(std::move(batch));
                } else {
                  absorb(batch.release());
                  ++n_owner;
                }
              }
            }
            if (!any) {
              bool inputs_done = true;
              for (std::size_t e = 0; e < exchange_count; ++e) {
                inputs_done = inputs_done && exchanges[e]->drained(w);
              }
              if (inputs_done) break;
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
          }
        }

        volatile double ingest_sink = ingest_acc;
        (void)ingest_sink;
        counters.owner_pops.fetch_add(n_owner, std::memory_order_relaxed);
        counters.steals.fetch_add(n_steal, std::memory_order_relaxed);
        counters.injector_pushes.fetch_add(n_inj_push,
                                           std::memory_order_relaxed);
        counters.injector_pops.fetch_add(n_inj_pop,
                                         std::memory_order_relaxed);
        counters.batches.fetch_add(n_batches, std::memory_order_relaxed);
        counters.heartbeats.fetch_add(n_heartbeats,
                                      std::memory_order_relaxed);
        counters.records.fetch_add(n_records, std::memory_order_relaxed);
        run_stats_.per_worker_records[w] = n_records;
        plan.workers_done.fetch_add(1, std::memory_order_release);
      });
    }
    merge_until_done(plan, clocks, after_close);
  }  // joins the pool: counters and per-worker records are final below

  run_stats_.owner_pops = counters.owner_pops.load();
  run_stats_.steals = counters.steals.load();
  run_stats_.injector_pushes = counters.injector_pushes.load();
  run_stats_.injector_pops = counters.injector_pops.load();
  run_stats_.batches_absorbed = counters.batches.load();
  run_stats_.heartbeats_absorbed = counters.heartbeats.load();
  run_stats_.records_absorbed = counters.records.load();
  // Routing-loop accounting: plain counters per exchange thread, summed
  // here after the join made them final.
  for (const auto& exchange : exchanges) {
    const auto& stats = exchange->stats();
    run_stats_.exchange_rounds += stats.rounds;
    run_stats_.exchange_records_routed += stats.records;
    run_stats_.exchange_runs_walked += stats.runs;
    run_stats_.exchange_table_probes += stats.table_probes;
    run_stats_.exchange_scatter_reserves += stats.scatter_reserves;
  }

  run_stats_.sampler_bulk_runs = plan.sampler_bulk_runs.load();
  run_stats_.sampler_accepts = plan.sampler_accepts.load();
  run_stats_.sampler_skipped = plan.sampler_skipped.load();

  driver.finish();  // no-op safeguard: external mode leaves nothing open
  slide_budget_ = driver.current_budget();
}

}  // namespace streamapprox::core
