// chain: Fig. 5 at x = 2. A serial chain whose tasks each take two data
// flows on the move path, one worker, classic World, dynamic epochs.
// Pending-table insert/match, DataCopy allocate/release and terminal send
// do almost all the work; nothing is stolen and nothing contends.
#include <functional>
#include <memory>
#include <random>

#include "common/cycle_clock.hpp"
#include "ttg/ttg.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

class ChainBench final : public EpochBench {
 public:
  ChainBench(const ttg::Config& config, int length, const Options& opt,
             Report& report)
      : length_(length), offset_(opt.expect_offset), rng_(opt.seed) {
    {
      ScopedSpan span("world");
      world_ = std::make_unique<ttg::World>(config);
    }
    {
      ScopedSpan span("make_tt");
      auto tt = ttg::make_tt<int>(
          [this](const int& k, std::uint64_t& a, std::uint64_t& b,
                 auto& outs) {
            if (k < length_) {
              a += 1;
              b += 3;
              ttg::send<0>(k + 1, std::move(a), outs);
              ttg::send<1>(k + 1, std::move(b), outs);
            } else {
              last_a_ = a;
              last_b_ = b;
            }
          },
          ttg::edges(a_, b_), ttg::edges(a_, b_), "chain", *world_);
      auto* raw = tt.get();
      seed_ = [raw](std::uint64_t a, std::uint64_t b) {
        {
          ScopedSpan span("seed");
          raw->template send_input<0>(0, a);
        }
        ScopedSpan span("seed");
        raw->template send_input<1>(0, b);
      };
      tt_ = std::move(tt);
    }
    report.attempt(run_epoch().correct);  // warm-up: pools, hash table
  }

  EpochSample run_epoch() override {
    const std::uint64_t a0 = rng_() >> 8;
    const std::uint64_t b0 = rng_() >> 8;
    last_a_ = last_b_ = 0;
    const std::uint64_t executed = world_->total_tasks_executed();
    EpochSample s;
    s.window.begin_tsc = ttg::rdtsc();
    const Clock::time_point t0 = Clock::now();
    ttg::Submission epoch;
    {
      ScopedSpan span("execute");
      epoch = world_->execute();
    }
    seed_(a0, b0);
    ttg::Status st;
    {
      ScopedSpan span("wait");
      st = epoch.wait();
    }
    s.wall_s = seconds_between(t0, Clock::now());
    s.window.done_tsc = ttg::rdtsc();
    s.tasks = world_->total_tasks_executed() - executed;
    const std::uint64_t n = static_cast<std::uint64_t>(length_);
    s.correct = st.ok() && s.tasks == n + 1 &&
                last_a_ == a0 + n + offset_ && last_b_ == b0 + 3 * n + offset_;
    s.usable = st.ok();
    return s;
  }

  int workers() const override { return 1; }
  std::uint64_t hops() const override {
    return static_cast<std::uint64_t>(length_) + 1;
  }

 private:
  const int length_;
  const std::uint64_t offset_;
  std::mt19937_64 rng_;
  std::unique_ptr<ttg::World> world_;
  ttg::Edge<int, std::uint64_t> a_{"flow0"}, b_{"flow1"};
  std::unique_ptr<ttg::TTBase> tt_;
  std::function<void(std::uint64_t, std::uint64_t)> seed_;
  // Written by the last task, read after wait() returned.
  std::uint64_t last_a_ = 0, last_b_ = 0;
};

}  // namespace

ttg::Config run_chain(const Options& opt, Report& report) {
  ttg::Config config;
  config.num_threads = 1;
  // ~6 ms epochs: enough of them in a run for a p99 with ten samples
  // beyond it, long enough that epoch open/close is noise per task.
  const int length = opt.smoke ? 2000 : 20000;
  report.param("tasks_per_epoch", length + 1);
  report.param("flows", 2);
  report.param("workers", 1);
  EpochWorkload w;
  w.make = [&](Report& r) -> std::unique_ptr<EpochBench> {
    return std::make_unique<ChainBench>(config, length, opt, r);
  };
  w.traced_epochs = 3;
  drive_epochs(opt, w, report);
  return config;
}

}  // namespace perfbench
