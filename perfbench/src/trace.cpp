// Span recording, the timing query sink, and the per-layer replays.
#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <stop_token>
#include <thread>

#include "core/watermark.h"
#include "ingest/exchange.h"
#include "sampling/oasrs.h"
#include "sketch/sketch_sink.h"
#include "sketch/sketches.h"

namespace perfbench {

// ------------------------------------------------------------------ Tracer

std::uint32_t Tracer::intern(const std::string& name) {
  const auto [it, added] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (added) names_.push_back(name);
  return it->second;
}

std::int32_t Tracer::begin(const std::string& name, std::int64_t slide) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.slide = slide;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_.at(id).end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    Totals& t = totals[names_[span.name]];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const auto& span : spans_) {
    out << "{\"name\":\"" << names_[span.name]
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"slide\":" << span.slide << "}\n";
  }
}

// -------------------------------------------------------------- TimedSink

namespace {

/// Delegates to a registered sink and records a span around its slide hook
/// and its window evaluation. The span names carry the sink's kind, so the
/// per-window cost is reported per kind of query.
class TimedSink : public core::QuerySink {
 public:
  TimedSink(std::unique_ptr<core::QuerySink> inner, Tracer& tracer)
      : core::QuerySink(inner->name()),
        inner_(std::move(inner)),
        tracer_(tracer),
        slide_span_(std::string("query.") + kind_of(*inner_) + ".on_slide"),
        window_span_(std::string("query.") + kind_of(*inner_) + ".evaluate") {
  }

  void bind(const streamapprox::engine::WindowConfig& window,
            double default_z) override {
    core::QuerySink::bind(window, default_z);
    inner_->bind(window, default_z);
    slide_us_ = window.slide_us;
  }

  void on_slide(const std::vector<streamapprox::estimation::StratumSummary>&
                    cells,
                const streamapprox::sampling::StratifiedSample<Record>* sample,
                const sketch::SlideSketches* sketches) override {
    const Tracer::Scope span(tracer_, slide_span_, slides_++);
    inner_->on_slide(cells, sample, sketches);
  }

  core::QueryOutput evaluate(
      const streamapprox::engine::WindowResult& window) override {
    const Tracer::Scope span(
        tracer_, window_span_,
        slide_us_ > 0 ? window.window_end_us / slide_us_ - 1 : -1);
    return inner_->evaluate(window);
  }

  std::optional<double> accuracy_target(
      std::optional<double> fallback) const override {
    return inner_->accuracy_target(fallback);
  }

  std::unique_ptr<core::QuerySink> clone() const override {
    return std::make_unique<TimedSink>(inner_->clone(), tracer_);
  }

  sketch::SketchSpec* mutable_sketch_spec() override {
    return inner_->mutable_sketch_spec();
  }

 private:
  static const char* kind_of(core::QuerySink& sink) {
    if (dynamic_cast<sketch::SketchSink*>(&sink) != nullptr) return "sketch";
    if (dynamic_cast<core::HistogramSink*>(&sink) != nullptr) {
      return "histogram";
    }
    return "aggregate";
  }

  std::unique_ptr<core::QuerySink> inner_;
  Tracer& tracer_;
  std::string slide_span_;
  std::string window_span_;
  std::int64_t slide_us_ = 0;
  std::int64_t slides_ = 0;
};

}  // namespace

core::QuerySet TraceContext::wrap(const core::QuerySet& queries) {
  core::QuerySet wrapped;
  for (auto& sink : queries.clone_sinks()) {
    wrapped.add(std::make_unique<TimedSink>(std::move(sink), tracer_));
  }
  return wrapped;
}

void TraceContext::begin_run() { probe_cpu_ns_ = 0; }

void TraceContext::on_window(
    std::vector<std::pair<std::string, std::int64_t>>& cpu) {
  const std::int64_t start = thread_cpu_ns();
  cpu = runtime_thread_cpu();
  probe_cpu_ns_ += thread_cpu_ns() - start;
}

// ----------------------------------------------------------------- replays

namespace {

/// Calls fn(slide, records) for every slide's run of an event-time-ordered
/// input.
template <typename Fn>
void for_each_slide(std::span<const Record> input, std::int64_t slide_us,
                    Fn fn) {
  for (std::size_t first = 0; first < input.size();) {
    const std::int64_t slide = input[first].event_time_us / slide_us;
    std::size_t last = first;
    while (last < input.size() &&
           input[last].event_time_us / slide_us == slide) {
      ++last;
    }
    fn(slide, input.subspan(first, last - first));
    first = last;
  }
}

/// Splits records across two workers by the exchange's stratum route.
void split_by_route(std::span<const Record> records,
                    std::vector<Record> (&shards)[2]) {
  shards[0].clear();
  shards[1].clear();
  for (const auto& record : records) {
    shards[ingest::Exchange::route(record.stratum, 2)].push_back(record);
  }
}

double per_slide_us(const Tracer& tracer, const char* span,
                    std::size_t slides) {
  return tracer.totals(span).total_ns / 1e3 /
         static_cast<double>(std::max<std::size_t>(1, slides));
}

}  // namespace

double replay_poll(ingest::Broker& broker, Tracer& tracer) {
  ingest::Consumer consumer(broker, kTopic);
  std::vector<Record> records;
  records.reserve(4096);
  std::uint64_t total = 0;
  const std::int32_t span = tracer.begin("broker.poll_drain");
  while (consumer.poll(records, 4096, /*timeout_ms=*/0) > 0 ||
         !consumer.exhausted()) {
    total += records.size();
  }
  tracer.end(span);
  const auto t = tracer.totals("broker.poll_drain");
  return total == 0 ? 0.0 : t.total_ns / static_cast<double>(total);
}

ExchangeReplay replay_exchange(ingest::Broker& broker, std::size_t workers,
                               Tracer& tracer) {
  ingest::ExchangeConfig config;
  config.workers = std::max<std::size_t>(2, workers);
  ingest::Exchange exchange(broker, kTopic, config);
  // A drain thread hands every batch straight back to the pool, so the
  // exchange routes into recycled, cache-warm batches as it does inside the
  // running system, and run()'s wall time is the routing loop. (Rings sized
  // to hold the whole stream would time page faults on fresh memory.)
  std::jthread drain([&](std::stop_token stop) {
    std::vector<ingest::Exchange::BatchPtr> batches;
    while (!stop.stop_requested()) {
      bool drained = true;
      batches.clear();
      for (std::size_t w = 0; w < config.workers; ++w) {
        exchange.pop_n(w, batches, config.ring_capacity);
        drained = drained && exchange.drained(w);
      }
      for (auto& batch : batches) exchange.recycle(std::move(batch));
      if (drained) return;
      if (batches.empty()) std::this_thread::yield();
    }
  });
  {
    const Tracer::Scope span(tracer, "exchange.run");
    exchange.run();
  }
  drain.join();
  const auto& stats = exchange.stats();
  ExchangeReplay replay;
  const double routed = static_cast<double>(std::max<std::uint64_t>(
      1, stats.records));
  replay.route_ns_per_rec = tracer.totals("exchange.run").total_ns / routed;
  if (stats.runs > 0) {
    replay.records_per_run = routed / static_cast<double>(stats.runs);
    replay.probes_per_run = static_cast<double>(stats.table_probes) /
                            static_cast<double>(stats.runs);
  }
  return replay;
}

DriverReplay replay_driver(const Workload& workload, ingest::Broker& broker,
                           std::uint64_t seed, Tracer& tracer) {
  // Mirrors StreamApprox::run_sequential: poll, offer, then close what the
  // per-partition low-watermark allows.
  auto& topic = broker.topic(kTopic);
  TraceContext context(tracer);
  const auto facade = make_config(workload, kTopic, seed);
  core::PipelineDriverConfig config;
  config.queries = context.wrap(facade.queries);
  config.budget = facade.budget;
  config.window = facade.window;
  config.z = facade.z;
  config.seed = facade.seed;
  config.skip_ahead_sampling = facade.skip_ahead_sampling;
  core::PipelineDriver driver(std::move(config), {});
  ingest::Consumer consumer(broker, kTopic);
  std::vector<std::int64_t> clocks(topic.partition_count(), core::kNoClock);
  std::vector<Record> records;
  records.reserve(facade.poll_batch);
  std::uint64_t offered = 0;
  for (;;) {
    {
      const Tracer::Scope span(tracer, "driver.poll");
      consumer.poll(records, facade.poll_batch, /*timeout_ms=*/50);
    }
    for (const auto& record : records) {
      auto& clock = clocks[topic.partition_for_key(record.stratum)];
      clock = std::max(clock, record.event_time_us);
    }
    {
      const Tracer::Scope span(tracer, "driver.offer_batch");
      driver.offer_batch(records);
    }
    offered += records.size();
    for (std::size_t slot = 0; slot < consumer.assignment().size(); ++slot) {
      if (consumer.partition_exhausted(slot)) {
        clocks[consumer.assignment()[slot]] = core::kPartitionDrained;
      }
    }
    const auto view = core::evaluate_watermark(clocks, /*grace_over=*/false);
    if (view.can_close()) {
      const Tracer::Scope span(tracer, "driver.close");
      driver.advance(view.watermark);
    } else if (view.flush_all()) {
      const Tracer::Scope span(tracer, "driver.close");
      driver.finish();
    }
    if (records.empty() && consumer.exhausted()) break;
  }
  {
    const Tracer::Scope span(tracer, "driver.close");
    driver.finish();
  }
  DriverReplay replay;
  replay.offer_batch_ns_per_rec =
      tracer.totals("driver.offer_batch").total_ns /
      static_cast<double>(std::max<std::uint64_t>(1, offered));
  // Every closed slide reaches the (single) histogram sink's hook once.
  const auto slides = std::max<std::uint64_t>(
      1, tracer.totals("query.histogram.on_slide").count);
  replay.close_us_per_slide = tracer.totals("driver.close").self_ns / 1e3 /
                              static_cast<double>(slides);
  return replay;
}

SamplingReplay replay_sampling(const Workload& workload,
                               std::span<const Record> input,
                               std::uint64_t seed, Tracer& tracer) {
  using Sampler =
      streamapprox::sampling::OasrsSampler<Record,
                                           streamapprox::engine::RecordStratum>;
  SamplingReplay replay;
  std::uint64_t accepted = 0;
  std::uint64_t skipped = 0;
  std::size_t slides = 0;
  std::vector<Record> shards[2];
  for_each_slide(input, workload.slide_us, [&](std::int64_t slide,
                                               std::span<const Record> run) {
    streamapprox::sampling::OasrsConfig config;
    config.total_budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               workload.fraction * static_cast<double>(run.size()))));
    config.seed = seed + static_cast<std::uint64_t>(slide);
    Sampler whole(config, {});
    {
      const Tracer::Scope span(tracer, "sampling.offer_batch", slide);
      whole.offer_batch(run.data(), run.size());
    }
    accepted += whole.kernel_stats().accepted;
    skipped += whole.kernel_stats().skipped;

    // Two shards, each with its share of the budget, merged the way the
    // merger closes a slide.
    split_by_route(run, shards);
    const auto shard_config = [&](std::size_t s) {
      auto shard = config;
      shard.total_budget = std::max<std::size_t>(
          1, config.total_budget * shards[s].size() / run.size());
      shard.seed = config.seed * 2 + s;
      return shard;
    };
    Sampler left(shard_config(0), {});
    Sampler right(shard_config(1), {});
    left.offer_batch(shards[0]);
    right.offer_batch(shards[1]);
    {
      const Tracer::Scope span(tracer, "sampling.merge", slide);
      left.merge(right);
    }
    ++slides;
  });
  const double records = static_cast<double>(std::max<std::size_t>(
      1, input.size()));
  replay.offer_ns_per_rec =
      tracer.totals("sampling.offer_batch").total_ns / records;
  replay.accept_share = static_cast<double>(accepted) / records;
  replay.skip_share = static_cast<double>(skipped) / records;
  replay.merge_us_per_slide = per_slide_us(tracer, "sampling.merge", slides);
  return replay;
}

SketchReplay replay_sketches(const Workload& workload,
                             std::span<const Record> input,
                             const Truth& truth, Tracer& tracer) {
  using Kind = sketch::SketchSpec::Kind;
  const std::pair<Kind, const char*> kinds[] = {
      {Kind::kCountMin, "sketch.absorb.count_min"},
      {Kind::kHyperLogLog, "sketch.absorb.hll"},
      {Kind::kQuantile, "sketch.absorb.quantile"}};
  sketch::SketchPlan full;
  std::uint64_t next_id = 1;
  for (const auto& [kind, name] : kinds) {
    auto spec = sketch_spec(kind);
    spec.id = next_id++;
    full.specs.push_back(spec);
  }

  SketchReplay replay;
  std::size_t slides = 0;
  std::vector<Record> shards[2];
  for_each_slide(input, workload.slide_us, [&](std::int64_t slide,
                                               std::span<const Record> run) {
    for (std::size_t k = 0; k < full.specs.size(); ++k) {
      sketch::SketchPlan one;
      one.specs.push_back(full.specs[k]);
      sketch::SlideSketches state(one);
      const Tracer::Scope span(tracer, kinds[k].second, slide);
      state.absorb(run.data(), run.size());
    }
    split_by_route(run, shards);
    sketch::SlideSketches left(full);
    sketch::SlideSketches right(full);
    left.absorb(shards[0].data(), shards[0].size());
    right.absorb(shards[1].data(), shards[1].size());
    {
      const Tracer::Scope span(tracer, "sketch.merge", slide);
      left.merge(right);
    }
    ++slides;
  });
  const double records = static_cast<double>(std::max<std::size_t>(
      1, input.size()));
  replay.count_min_ns_per_rec =
      tracer.totals(kinds[0].second).total_ns / records;
  replay.hll_ns_per_rec = tracer.totals(kinds[1].second).total_ns / records;
  replay.quantile_ns_per_rec =
      tracer.totals(kinds[2].second).total_ns / records;
  replay.merge_us_per_slide = per_slide_us(tracer, "sketch.merge", slides);

  // Count-Min's probabilistic guarantee: an estimate exceeds the exact
  // count by more than ε·N with probability at most δ.
  std::uint64_t estimates = 0;
  std::uint64_t overshoots = 0;
  const auto spec = sketch_spec(Kind::kCountMin);
  for (const auto& window : truth.windows) {
    if (window.last > input.size()) break;
    auto cms = sketch::CountMinSketch::for_error(spec.epsilon, spec.delta,
                                                 spec.seed);
    for (std::size_t i = window.first; i < window.last; ++i) {
      cms.update(input[i].stratum);
    }
    const double slack =
        spec.epsilon * static_cast<double>(window.last - window.first);
    for (std::uint64_t s = 0; s < kStrata; ++s) {
      if (window.stratum_counts[s] == 0) continue;
      ++estimates;
      overshoots += static_cast<double>(cms.estimate(s)) >
                    static_cast<double>(window.stratum_counts[s]) + slack;
    }
  }
  replay.cm_overshoot_share =
      estimates == 0 ? 0.0
                     : static_cast<double>(overshoots) /
                           static_cast<double>(estimates);
  return replay;
}

}  // namespace perfbench
