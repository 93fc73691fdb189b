// stencil: the Task Bench 1D stencil in the paper's Fig. 8 set-up. One
// point per worker, an aggregator input as in Listing 1, three workers
// plus the seeding thread, and a grain below TTG's METG, so scheduler
// push/pop/steal, park/wake and the pending table under contention do
// the work.
//
// The graph mirrors taskbench::run_ttg but is built here from the public
// API, because run_ttg times a cold epoch and this benchmark times warm
// ones on one World.
#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "common/cycle_clock.hpp"
#include "taskbench/taskbench.hpp"
#include "ttg/ttg.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using PKey = std::pair<int, int>;  // (t, x)

struct PointData {
  int origin_x;
  std::uint64_t value;
};

class StencilBench final : public EpochBench {
 public:
  StencilBench(const ttg::Config& config, const taskbench::BenchConfig& cfg,
               const Options& opt, Report& report)
      : cfg_(cfg),
        expected_(taskbench::reference_checksum(cfg) + opt.expect_offset),
        result_(static_cast<std::size_t>(cfg.width)),
        order_(static_cast<std::size_t>(cfg.width)),
        rng_(opt.seed) {
    std::iota(order_.begin(), order_.end(), 0);
    {
      ScopedSpan span("world");
      world_ = std::make_unique<ttg::World>(config);
    }
    ScopedSpan span("make_tt");
    const taskbench::BenchConfig& c = cfg_;
    auto init = ttg::make_tt<int>(
        [&c](const int& x, const ttg::Void&, auto& outs) {
          const std::uint64_t v = taskbench::seed_value(x);
          for (int sx : taskbench::reverse_dependencies(c, 0, x)) {
            ttg::send<0>(PKey{1, sx}, PointData{x, v}, outs);
          }
        },
        ttg::edges(init_in_), ttg::edges(p2p_), "Init", *world_);
    auto agg = ttg::make_aggregator(p2p_, [&c](const PKey& key) {
      return static_cast<std::int32_t>(
          taskbench::dependencies(c, key.first, key.second).size());
    });
    auto point = ttg::make_tt<PKey>(
        [&c](const PKey& key, const ttg::Aggregator<PointData>& values,
             auto& outs) {
          // Aggregated inputs arrive in any order; the recurrence folds
          // them ordered by origin (Listing 1's sorted_insert).
          std::pair<int, std::uint64_t> tmp[taskbench::DepList::kCap];
          std::size_t n = 0;
          for (const PointData& v : values) {
            std::size_t pos = n;
            while (pos > 0 && tmp[pos - 1].first > v.origin_x) {
              tmp[pos] = tmp[pos - 1];
              --pos;
            }
            tmp[pos] = {v.origin_x, v.value};
            ++n;
          }
          std::uint64_t sorted[taskbench::DepList::kCap];
          for (std::size_t i = 0; i < n; ++i) sorted[i] = tmp[i].second;
          taskbench::kernel_compute(c.iterations);
          const int t = key.first, x = key.second;
          const std::uint64_t value = taskbench::combine(t, x, sorted, n);
          if (t < c.steps) {
            for (int sx : taskbench::reverse_dependencies(c, t, x)) {
              ttg::send<0>(PKey{t + 1, sx}, PointData{x, value}, outs);
            }
          } else {
            ttg::send<1>(key, PointData{x, value}, outs);
          }
        },
        ttg::edges(agg), ttg::edges(p2p_, p2w_), "Point", *world_);
    auto write_back = ttg::make_tt<PKey>(
        [this](const PKey& key, PointData& v, auto&) {
          result_[static_cast<std::size_t>(key.second)] = v.value;
        },
        ttg::edges(p2w_), ttg::edges(), "WriteBack", *world_);
    auto* raw_init = init.get();
    seed_ = [raw_init](int x) {
      ScopedSpan span("seed");
      raw_init->template sendk_input<0>(x);
    };
    nodes_.push_back(std::move(init));
    nodes_.push_back(std::move(point));
    nodes_.push_back(std::move(write_back));
    report.attempt(run_epoch().correct);  // warm-up
  }

  EpochSample run_epoch() override {
    // The seeding order of the first row is this run's input.
    std::shuffle(order_.begin(), order_.end(), rng_);
    std::fill(result_.begin(), result_.end(), 0);
    const std::uint64_t executed = world_->total_tasks_executed();
    EpochSample s;
    s.window.begin_tsc = ttg::rdtsc();
    const Clock::time_point t0 = Clock::now();
    ttg::Submission epoch;
    {
      ScopedSpan span("execute");
      epoch = world_->execute();
    }
    for (int x : order_) seed_(x);
    ttg::Status st;
    {
      ScopedSpan span("wait");
      st = epoch.wait();
    }
    s.wall_s = seconds_between(t0, Clock::now());
    s.window.done_tsc = ttg::rdtsc();
    s.tasks = world_->total_tasks_executed() - executed;
    const std::uint64_t width = static_cast<std::uint64_t>(cfg_.width);
    const std::uint64_t steps = static_cast<std::uint64_t>(cfg_.steps);
    s.correct = st.ok() && s.tasks == width * (steps + 2) &&
                taskbench::fold_checksum(result_) == expected_;
    s.usable = st.ok();
    return s;
  }

  int workers() const override { return cfg_.width; }
  std::uint64_t hops() const override {
    return static_cast<std::uint64_t>(cfg_.steps);
  }

 private:
  const taskbench::BenchConfig cfg_;
  const std::uint64_t expected_;
  std::vector<std::uint64_t> result_;  // written by WriteBack tasks
  std::vector<int> order_;
  std::mt19937_64 rng_;
  std::unique_ptr<ttg::World> world_;
  ttg::Edge<PKey, PointData> p2p_{"p2p"}, p2w_{"p2w"};
  ttg::Edge<int, ttg::Void> init_in_{"init"};
  std::vector<std::unique_ptr<ttg::TTBase>> nodes_;
  std::function<void(int)> seed_;
};

}  // namespace

ttg::Config run_stencil(const Options& opt, Report& report) {
  constexpr int kWorkers = 3;  // plus the seeding thread: nproc = 4
  ttg::Config config;
  config.num_threads = kWorkers;
  taskbench::BenchConfig cfg;
  cfg.pattern = taskbench::Pattern::kStencil1D;
  cfg.kernel = taskbench::Kernel::kComputeBound;
  cfg.width = kWorkers;
  cfg.steps = opt.smoke ? 100 : 1000;
  cfg.iterations = taskbench::flops_to_iterations(kStencilFlops);
  report.param("width", cfg.width);
  report.param("steps", cfg.steps);
  report.param("flops_per_task",
               static_cast<double>(cfg.iterations *
                                   taskbench::kFlopsPerIteration));
  report.param("workers", kWorkers);
  EpochWorkload w;
  w.make = [&](Report& r) -> std::unique_ptr<EpochBench> {
    return std::make_unique<StencilBench>(config, cfg, opt, r);
  };
  w.traced_epochs = 8;
  drive_epochs(opt, w, report);
  return config;
}

}  // namespace perfbench
