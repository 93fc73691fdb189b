// Shared machinery of the repository benchmark (see ../README.md).
//
// The benchmark drives the runtime only through its public API. This
// header holds what every workload shares: options, the result report,
// benchmark-owned spans, the per-layer ledger computed from the runtime's
// own counters and trace, and the loop that runs epoch-shaped workloads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "atomics/op_counter.hpp"
#include "runtime/config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Flops per stencil task: below TTG's METG, so runtime overhead
/// dominates the stencil workload (and taskbench.kernel_ns times it).
inline constexpr std::uint64_t kStencilFlops = 1000;

/// Per-thread trace ring of a traced phase; each workload sizes its traced
/// epochs to fit, so no span of the measured window is lost.
inline constexpr std::size_t kTraceEventsPerThread = std::size_t{1} << 19;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the smoke test.
  bool smoke = false;
  /// Added to every expected result; a non-zero value must make every
  /// checked operation fail (the smoke test's negative check).
  std::uint64_t expect_offset = 0;
  /// Chrome trace written by a traced run.
  std::string trace_out = "perfbench_trace.json";
};

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Exact quantile by nearest rank on a copy of `v` (0 for an empty set).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One run's results: the contract line plus a provenance record.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void param(const std::string& name, const std::string& value);
  void param(const std::string& name, double value);
  void note(const std::string& text);

  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the human-readable table, the provenance record line and,
  /// last, the one-line JSON result. Returns the process exit code.
  int print(const Options& opt, const ttg::Config& config) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- benchmark-owned spans ------------------------------------------------

/// Spans the benchmark records around each public call it makes. They are
/// kept in memory (timestamps from the same TSC as the runtime's trace)
/// and merged into the Chrome trace of a traced run.
class Spans {
 public:
  static Spans& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void add(const char* name, std::uint64_t begin_tsc, std::uint64_t end_tsc,
           int lane);
  void clear();

  struct Span {
    const char* name;
    std::uint64_t begin;
    std::uint64_t end;
    int lane;
  };
  std::vector<Span> between(std::uint64_t from, std::uint64_t to) const;
  std::vector<Span> all() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::atomic<bool> enabled_{false};
};

/// Records `name` for the scope's lifetime when spans are enabled.
/// `lane` is the track it appears on (0 = driving thread).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int lane = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int lane_;
  std::uint64_t begin_ = 0;
};

// --- process resources -----------------------------------------------------

int open_fd_count();
int thread_count();
double peak_rss_mb();

// --- per-layer ledger ------------------------------------------------------

/// Counter readings at one instant: the Eq. (1) census and the
/// MetricsRegistry surfaces the ledger turns into per-task ratios.
struct CounterReading {
  ttg::AtomicOpSnapshot atomics;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t ingress_hits = 0;
  std::uint64_t parks = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t tsc = 0;

  static CounterReading now();
};

/// One traced operation's window, for epoch-close and execute timing.
struct OpWindow {
  std::uint64_t begin_tsc;  ///< execute() entry
  std::uint64_t done_tsc;   ///< wait()/done() observed
  std::uint32_t task_name;  ///< interned TT name whose last task closes it
                            ///< (0 = any task)
};

struct LedgerInput {
  CounterReading before;
  CounterReading after;
  std::uint64_t tasks = 0;
  std::uint64_t epochs = 0;
  int workers = 1;
  std::vector<OpWindow> ops;
};

/// Adds every runtime-derived per-layer metric (ttg.*, atomics.*,
/// runtime.*, sched.*, termdet.*) over the window [before, after].
void add_layer_metrics(const LedgerInput& in, Report& report);

/// Adds taskbench.kernel_ns: kernel_compute at the stencil's iteration
/// count, timed alone on the calling thread.
void add_kernel_metric(Report& report);

/// Starts trace recording and atomic-op accounting for a traced phase;
/// ends both and writes the merged Chrome trace on destruction.
class TracedPhase {
 public:
  explicit TracedPhase(std::string path);
  ~TracedPhase();
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- epoch-shaped workloads --------------------------------------------------

struct EpochSample {
  double wall_s = 0;          ///< execute() entry to wait() return
  std::uint64_t tasks = 0;    ///< tasks executed
  bool correct = false;       ///< status ok and results as expected
  bool usable = true;         ///< the World can run another epoch
  OpWindow window{};
};

/// One constructed, warmed-up instance of an epoch workload.
class EpochBench {
 public:
  virtual ~EpochBench() = default;
  /// Runs one checked epoch.
  virtual EpochSample run_epoch() = 0;
  /// Worker threads executing tasks (for core time per task).
  virtual int workers() const = 0;
  /// Steps of one epoch's critical path (for hop_us).
  virtual std::uint64_t hops() const = 0;
  /// Adds workload-specific per-layer metrics for a traced phase that
  /// ran `epochs` epochs (default: none).
  virtual void add_traced_metrics(std::uint64_t epochs, Report& report) {
    (void)epochs;
    (void)report;
  }
  /// Called right before the traced epochs start.
  virtual void begin_traced() {}
};

struct EpochWorkload {
  /// Builds the graph and runs the warm-up epochs, counting each checked
  /// warm-up epoch into `report`.
  std::function<std::unique_ptr<EpochBench>(Report& report)> make;
  /// Epochs of the traced phase (fits the trace ring with the warm-up).
  int traced_epochs = 4;
};

/// Runs an epoch workload: repeated set-ups (setup_s), the timed loop
/// (end-to-end metrics) or the untraced/traced pair (per-layer metrics).
void drive_epochs(const Options& opt, const EpochWorkload& w, Report& report);

/// Fresh instances per untraced run: each is set up (timed; setup_s is
/// the median) and then measured for an equal share of the run.
int segments(const Options& opt);

/// Checks that tearing down an instance released every fd and thread.
bool no_leaks(int fds_before, int threads_before, Report& report);

/// Process start, for the first set-up sample.
Clock::time_point process_start();

/// Runs `segments(opt)` segments, each on a freshly built instance: times
/// its set-up, runs `body` on it for the segment, tears it down and checks
/// that every fd and thread it took was given back. Adds setup_s.
///
/// Fresh instances, not one long-lived one, because a World's speed
/// varies by up to ±20% from one instance to the next on a shared
/// machine (thread placement); the per-segment medians average that out.
template <typename T>
void run_segments(const Options& opt, Report& report,
                  const std::function<std::unique_ptr<T>()>& make,
                  const std::function<void(T&, double seconds)>& body) {
  const int n = segments(opt);
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) {
    const int fds = open_fd_count();
    const int threads = thread_count();
    const Clock::time_point t0 = i == 0 ? process_start() : Clock::now();
    std::unique_ptr<T> inst = make();
    samples.push_back(seconds_between(t0, Clock::now()));
    body(*inst, opt.seconds / n);
    inst.reset();
    report.attempt(no_leaks(fds, threads, report));
  }
  report.metric("setup_s", median(samples), "s");
  std::string all;
  for (double s : samples) {
    if (!all.empty()) all += ' ';
    all += std::to_string(s);
  }
  report.param("setup_samples_s", all);
}

}  // namespace perfbench
