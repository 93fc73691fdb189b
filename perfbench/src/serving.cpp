// serving: one shared Runtime with three workers serving 256 tenant
// Worlds, each a 16-task zero-flow chain; half run dynamic epochs, half
// replay a recorded template. A single submitter/collector thread runs
// a closed loop in waves, as bench_serving's saturate series does: it
// submits one graph to every World, so all 256 are in flight, then
// collects them as they complete. Tenant accounting, admission and epoch
// open/close dominate; the single-input path bypasses the pending table.
//
// The traced run adds an open-loop phase at a fixed absolute rate, as a
// diagnostic: latency is measured from each graph's due time.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cycle_clock.hpp"
#include "ttg/ttg.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kWorkers = 3;  // plus the submitter/collector: nproc = 4
constexpr int kChain = 16;
constexpr std::uint64_t kWarmupWaves = 2;
/// Open-loop offered load, graphs/s: a fixed number, never derived from
/// a measurement of the build under test.
constexpr double kOpenRate = 200000;

class Server {
 public:
  Server(ttg::Runtime& rt, bool replay, int index) : replay_(replay) {
    ttg::WorldOptions wo;
    wo.name = "srv" + std::to_string(index);
    {
      ScopedSpan span("make_world");
      world_ = rt.make_world(wo);
    }
    {
      ScopedSpan span("make_tt");
      auto tt = ttg::make_tt<int>(
          [](const int& k, const ttg::Void&, auto& outs) {
            if (k + 1 < kChain) ttg::sendk<0>(k + 1, outs);
          },
          ttg::edges(edge_), ttg::edges(edge_), wo.name, *world_);
      auto* raw = tt.get();
      seed_ = [raw] {
        ScopedSpan span("seed");
        raw->template sendk_input<0>(0);
      };
      trace_name_ = tt->trace_name();
      tt_ = std::move(tt);
    }
    if (replay_) {
      {
        ScopedSpan span("begin_recording");
        world_->begin_recording();
      }
      seed_();
      const ttg::Status st = world_->wait();
      std::shared_ptr<ttg::GraphTemplate> tmpl;
      {
        ScopedSpan span("end_recording");
        tmpl = world_->end_recording();
      }
      if (!st.ok() || tmpl == nullptr) {
        throw std::runtime_error("recording epoch failed: " + st.reason);
      }
      instance_ = std::make_unique<ttg::ReplayInstance>(std::move(tmpl));
    }
  }

  bool open() const { return open_; }
  bool done() const { return handle_.done(); }

  /// Opens one epoch: admit, seed, seal. Called only by the single
  /// submitter thread (replay seeding uses thread-local state).
  void submit(Clock::time_point due) {
    executed_ = world_->total_tasks_executed();
    due_ = due;
    begin_tsc_ = ttg::rdtsc();
    {
      ScopedSpan span("execute");
      handle_ = replay_ ? world_->execute_replay(*instance_)
                        : world_->execute();
    }
    seed_();
    world_->seal_seeds();
    open_ = true;
  }

  struct Outcome {
    bool correct;
    double latency_ms;  ///< from the due time to observed completion
    OpWindow window;
  };

  /// Collects a completed epoch (done() returned true).
  Outcome collect(std::uint64_t offset) {
    const Clock::time_point now = Clock::now();
    Outcome o;
    o.window = {begin_tsc_, ttg::rdtsc(), trace_name_};
    o.latency_ms =
        std::chrono::duration<double, std::milli>(now - due_).count();
    const ttg::Status st = handle_.wait();
    const std::uint64_t ran = world_->total_tasks_executed() - executed_;
    o.correct = st.ok() && ran == kChain + offset;
    open_ = false;
    return o;
  }

 private:
  const bool replay_;
  std::unique_ptr<ttg::World> world_;
  ttg::Edge<int, ttg::Void> edge_{"ctl"};
  std::unique_ptr<ttg::TTBase> tt_;
  std::function<void()> seed_;
  std::unique_ptr<ttg::ReplayInstance> instance_;
  std::uint32_t trace_name_ = 0;
  ttg::Submission handle_;
  bool open_ = false;
  std::uint64_t executed_ = 0;
  Clock::time_point due_{};
  std::uint64_t begin_tsc_ = 0;
};

/// Per-graph latencies in 0.1 us buckets up to 100 ms: exact enough for
/// p50/p99 and a fixed footprint however many graphs a run completes, so
/// peak RSS does not depend on the run's throughput.
class LatencyHistogram {
 public:
  void add(double ms) {
    const double slot = ms * 1e4;
    const std::size_t i =
        slot < static_cast<double>(kBuckets - 1) ? static_cast<std::size_t>(slot)
                                                 : kBuckets - 1;
    ++counts_[i];
    ++total_;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  /// Nearest-rank quantile, reported at the bucket's midpoint.
  double quantile(double q) const {
    if (total_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank && counts_[i] > 0) {
        return (static_cast<double>(i) + 0.5) * 1e-4;
      }
    }
    return static_cast<double>(kBuckets) * 1e-4;
  }

 private:
  static constexpr std::size_t kBuckets = 1000000;
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t total_ = 0;
};

struct LoopStats {
  LatencyHistogram latency_ms;
  std::vector<double> wave_s;
  std::vector<OpWindow> windows;  // traced runs only
  std::uint64_t graphs = 0;
};

class ServingBench {
 public:
  ServingBench(const ttg::Config& config, int worlds, const Options& opt,
               Report& report)
      : opt_(opt), rng_(opt.seed) {
    ttg::RuntimeOptions ro;
    ro.config = config;
    ro.name = "perfbench-serving";
    {
      ScopedSpan span("runtime");
      runtime_ = std::make_unique<ttg::Runtime>(ro);
    }
    servers_.reserve(static_cast<std::size_t>(worlds));
    for (int i = 0; i < worlds; ++i) {
      servers_.push_back(std::make_unique<Server>(*runtime_, i % 2 == 0, i));
    }
    // Every World, dynamic or replay, runs the same warm-up epochs.
    (void)closed_loop(kWarmupWaves, 0, report);
  }

  ~ServingBench() {
    ScopedSpan span("teardown");
    servers_.clear();
    runtime_.reset();
  }

  /// Closed loop in waves: every World's graph is submitted (so all of
  /// them are in flight), then the wave is collected as graphs complete.
  /// Runs `max_waves` waves, or until `seconds` elapsed when non-zero.
  LoopStats closed_loop(std::uint64_t max_waves, double seconds,
                        Report& report) {
    LoopStats r;
    const bool traced = Spans::instance().enabled();
    std::vector<Server*> order;
    for (auto& s : servers_) order.push_back(s.get());
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::uint64_t wave = 0; wave < max_waves; ++wave) {
      if (seconds > 0 && Clock::now() >= deadline) break;
      std::shuffle(order.begin(), order.end(), rng_);
      const Clock::time_point t0 = Clock::now();
      for (Server* s : order) s->submit(Clock::now());
      std::size_t inflight = order.size();
      while (inflight > 0) {
        std::this_thread::yield();  // don't starve the shared workers
        for (Server* s : order) {
          if (!s->open() || !s->done()) continue;
          const Server::Outcome o = s->collect(opt_.expect_offset);
          --inflight;
          report.attempt(o.correct);
          if (!o.correct) continue;
          ++r.graphs;
          r.latency_ms.add(o.latency_ms);
          if (traced) r.windows.push_back(o.window);
        }
      }
      r.wave_s.push_back(seconds_between(t0, Clock::now()));
    }
    return r;
  }

  /// Open loop at kOpenRate, round-robin over the Worlds; a World still
  /// busy when its next graph is due delays it (and the delay counts).
  void open_loop(std::uint64_t arrivals, Report& report) {
    LatencyHistogram latency_ms, late_ms;
    std::exponential_distribution<double> gap(kOpenRate);
    auto collect_done = [&] {
      for (auto& s : servers_) {
        if (!s->open() || !s->done()) continue;
        const Server::Outcome o = s->collect(opt_.expect_offset);
        report.attempt(o.correct);
        if (o.correct) latency_ms.add(o.latency_ms);
      }
    };
    Clock::time_point due = Clock::now();
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng_)));
      while (Clock::now() < due) {
        collect_done();
        std::this_thread::yield();
      }
      Server& s = *servers_[i % servers_.size()];
      while (s.open()) {
        collect_done();
        std::this_thread::yield();
      }
      late_ms.add(std::chrono::duration<double, std::milli>(Clock::now() - due)
                      .count());
      s.submit(due);
    }
    for (;;) {
      collect_done();
      if (std::none_of(servers_.begin(), servers_.end(),
                       [](const auto& s) { return s->open(); })) {
        break;
      }
      std::this_thread::yield();
    }
    report.metric("serving.open_p99_ms", latency_ms.quantile(0.99), "ms");
    report.metric("serving.generator_late_ms", late_ms.quantile(0.99), "ms");
    report.param("open_rate_gps", kOpenRate);
    report.param("open_arrivals", static_cast<double>(arrivals));
  }

 private:
  const Options& opt_;
  std::mt19937_64 rng_;
  std::unique_ptr<ttg::Runtime> runtime_;
  std::vector<std::unique_ptr<Server>> servers_;
};

/// Core time per task of the median wave.
double ns_per_task(const LoopStats& s, int worlds) {
  return median(s.wave_s) * 1e9 * kWorkers / (worlds * kChain);
}

}  // namespace

ttg::Config run_serving(const Options& opt, Report& report) {
  ttg::Config config;
  config.num_threads = kWorkers;
  const int worlds = opt.smoke ? 32 : 256;
  report.param("worlds", worlds);
  report.param("chain", kChain);
  report.param("workers", kWorkers);
  report.param("replay_share", 0.5);

  auto make = [&] {
    return std::make_unique<ServingBench>(config, worlds, opt, report);
  };
  if (!opt.trace) {
    std::vector<double> ns, gps, p50_ms;
    LatencyHistogram all_latency;
    std::size_t waves = 0;
    run_segments<ServingBench>(
        opt, report, make, [&](ServingBench& bench, double seconds) {
          const LoopStats s = bench.closed_loop(UINT64_MAX, seconds, report);
          ns.push_back(ns_per_task(s, worlds));
          gps.push_back(worlds / median(s.wave_s));
          p50_ms.push_back(s.latency_ms.quantile(0.50));
          all_latency.merge(s.latency_ms);
          waves += s.wave_s.size();
        });
    const double p50 = median(p50_ms);
    report.metric("ns_per_task", median(ns), "ns");
    report.metric("hop_us", p50 * 1e3 / kChain, "us");
    report.metric("graphs_per_s", median(gps), "1/s");
    report.metric("p50_ms", p50, "ms");
    report.metric("p99_ms", all_latency.quantile(0.99), "ms");
    report.param("timed_waves", static_cast<double>(waves));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return config;
  }

  double untraced = 0;
  {
    std::unique_ptr<ServingBench> bench = make();
    untraced = ns_per_task(
        bench->closed_loop(UINT64_MAX, opt.seconds / 2, report), worlds);
    bench->open_loop(opt.smoke ? 2000 : 100000, report);
  }
  {
    TracedPhase phase(opt.trace_out);
    std::unique_ptr<ServingBench> bench;
    {
      ScopedSpan span("setup");
      bench = make();
    }
    // Sized so the per-thread trace rings hold the whole traced window.
    constexpr std::uint64_t kTracedWaves = 16;
    LedgerInput in;
    in.workers = kWorkers;
    in.before = CounterReading::now();
    const LoopStats s = bench->closed_loop(kTracedWaves, 0, report);
    in.after = CounterReading::now();
    in.tasks = s.graphs * kChain;
    in.epochs = s.graphs;
    in.ops = s.windows;
    add_layer_metrics(in, report);
    report.note(
        "serving: the atomics census omits the tenant pending/retired "
        "counters (uninstrumented by design, runtime/tenant.hpp); "
        "atomics.*_per_task undercount them on this workload");
    report.metric("trace.overhead_pct",
                  (ns_per_task(s, worlds) / untraced - 1) * 100, "%");
    bench.reset();
  }
  add_kernel_metric(report);
  return config;
}

}  // namespace perfbench
