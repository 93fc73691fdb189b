#include "common.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/cycle_clock.hpp"
#include "runtime/trace.hpp"
#include "taskbench/taskbench.hpp"

namespace perfbench {

namespace {

// The metric names and units BENCHMARK.json declares. Every untraced run
// prints each end-to-end metric and every traced run each per-layer
// metric; a layer a workload does not exercise reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"ns_per_task", "ns"}, {"hop_us", "us"},  {"graphs_per_s", "1/s"},
    {"p50_ms", "ms"},      {"setup_s", "s"},  {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ttg.execute_us", "us"},
    {"ttg.seed_ns", "ns"},
    {"ttg.epoch_close_us", "us"},
    {"atomics.total_per_task", "count"},
    {"atomics.mempool_per_task", "count"},
    {"atomics.input-count_per_task", "count"},
    {"atomics.refcount_per_task", "count"},
    {"atomics.bucket-lock_per_task", "count"},
    {"atomics.scheduler_per_task", "count"},
    {"atomics.termdet_per_task", "count"},
    {"atomics.rwlock_per_task", "count"},
    {"atomics.copy-pool-miss_per_task", "count"},
    {"runtime.busy_frac", "ratio"},
    {"runtime.idle_frac", "ratio"},
    {"runtime.body_ns_per_task", "ns"},
    {"runtime.parks_per_task", "count"},
    {"runtime.copy_pool_hit_ratio", "ratio"},
    {"sched.steal_attempts_per_task", "count"},
    {"sched.steal_success_ratio", "ratio"},
    {"sched.ingress_pops_per_task", "count"},
    {"sched.inline_per_task", "count"},
    {"termdet.rounds_per_epoch", "count"},
    {"comm.post_ns", "ns"},
    {"comm.frames_per_hop", "count"},
    {"comm.bytes_per_frame", "B"},
    {"comm.oneway_us", "us"},
    {"comm.handler_ns", "ns"},
    {"comm.term_frames_per_epoch", "count"},
    {"taskbench.kernel_ns", "ns"},
    {"serving.open_p99_ms", "ms"},
    {"serving.generator_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t tsc_to_ns(std::uint64_t cycles) {
  return static_cast<std::uint64_t>(ttg::cycles_to_ns(cycles));
}

const char* pending_mode_name(ttg::PendingTableMode m) {
  return m == ttg::PendingTableMode::kDelegated ? "delegated" : "bucket-lock";
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// --- report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::param(const std::string& name, const std::string& value) {
  std::string quoted;
  json_string(quoted, value);
  params_.push_back({name, quoted});
}

void Report::param(const std::string& name, double value) {
  params_.push_back({name, json_number(value)});
}

void Report::note(const std::string& text) {
  std::fprintf(stderr, "perfbench: %s\n", text.c_str());
  notes_.push_back(text);
}

int Report::print(const Options& opt, const ttg::Config& config) const {
  std::map<std::string, Value> all(metrics_.begin(), metrics_.end());
  const bool correct = failed_ == 0 && attempted_ > 0;

  std::string selected;
  auto emit = [&](const MetricSpec& spec) {
    auto it = all.find(spec.name);
    const double v = it != all.end() ? it->second.value : 0.0;
    if (!selected.empty()) selected += ',';
    json_string(selected, spec.name);
    selected += ":{\"value\":" + json_number(v) + ",\"unit\":";
    json_string(selected, spec.unit);
    selected += '}';
    std::printf("%-34s %16.6g %s\n", spec.name, v, spec.unit);
  };
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  if (opt.trace) {
    for (const MetricSpec& s : kPerLayer) emit(s);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s);
  }
  const double failed_frac =
      ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
  std::printf("# not in the result line:\n");
  std::printf("%-34s %16.6g %s\n", "failed_frac", failed_frac, "ratio");
  for (const auto& [name, v] : all) {
    if (selected.find('"' + name + '"') == std::string::npos) {
      std::printf("%-34s %16.6g %s\n", name.c_str(), v.value, v.unit.c_str());
    }
  }

  // Provenance record: everything needed to reproduce or compare the row.
  std::string rec = "{\"workload\":";
  json_string(rec, opt.workload);
  rec += ",\"seed\":" + std::to_string(opt.seed);
  rec += ",\"seconds\":" + json_number(opt.seconds);
  rec += ",\"trace\":" + std::string(opt.trace ? "true" : "false");
  rec += ",\"smoke\":" + std::string(opt.smoke ? "true" : "false");
  rec += ",\"compiler\":";
  json_string(rec, PERFBENCH_COMPILER);
  rec += ",\"build_type\":";
  json_string(rec, PERFBENCH_BUILD_TYPE);
#if defined(NDEBUG)
  rec += ",\"ndebug\":true";
#else
  rec += ",\"ndebug\":false";
#endif
  rec += ",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency());
  rec += ",\"config\":{\"scheduler\":";
  json_string(rec, std::string(ttg::to_string(config.scheduler)));
  rec += ",\"pending_table\":";
  json_string(rec, pending_mode_name(config.pending_table));
  rec += ",\"inline_max_depth\":" + std::to_string(config.inline_max_depth);
  rec += ",\"describe\":";
  json_string(rec, config.describe());
  rec += "},\"params\":{";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) rec += ',';
    json_string(rec, params_[i].first);
    rec += ':' + params_[i].second;
  }
  rec += "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : all) {
    if (!first) rec += ',';
    first = false;
    json_string(rec, name);
    rec += ":{\"value\":" + json_number(v.value) + ",\"unit\":";
    json_string(rec, v.unit);
    rec += '}';
  }
  rec += "},\"failed_frac\":" + json_number(failed_frac);
  rec += ",\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) rec += ',';
    json_string(rec, notes_[i]);
  }
  rec += "]}";
  std::printf("perfbench-record %s\n", rec.c_str());

  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{%s}}\n",
              correct ? "true" : "false", attempted_, failed_,
              selected.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- spans -------------------------------------------------------------------

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

void Spans::add(const char* name, std::uint64_t begin_tsc,
                std::uint64_t end_tsc, int lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, begin_tsc, end_tsc, lane});
}

void Spans::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::vector<Spans::Span> Spans::between(std::uint64_t from,
                                        std::uint64_t to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.begin >= from && s.end <= to) out.push_back(s);
  }
  return out;
}

std::vector<Spans::Span> Spans::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(const char* name, int lane)
    : name_(name), lane_(lane) {
  if (Spans::instance().enabled()) begin_ = ttg::rdtsc();
}

ScopedSpan::~ScopedSpan() {
  if (begin_ != 0) Spans::instance().add(name_, begin_, ttg::rdtsc(), lane_);
}

// --- process resources -------------------------------------------------------

namespace {
int count_dir_entries(const char* path) {
  DIR* d = ::opendir(path);
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}
}  // namespace

int open_fd_count() { return count_dir_entries("/proc/self/fd"); }
int thread_count() { return count_dir_entries("/proc/self/task"); }

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // launcher's own footprint (e.g. run.py's interpreter) would mask ours.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

// Captured during static initialization, as close to process start as
// the program can observe.
[[maybe_unused]] static const Clock::time_point g_start = process_start();

int segments(const Options& opt) { return opt.smoke ? 2 : 7; }

bool no_leaks(int fds_before, int threads_before, Report& report) {
  // Thread exit is visible in /proc shortly after join returns.
  for (int i = 0; i < 100; ++i) {
    if (open_fd_count() <= fds_before && thread_count() <= threads_before) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  report.note("teardown leaked fds/threads (fds " +
              std::to_string(fds_before) + " -> " +
              std::to_string(open_fd_count()) + ", threads " +
              std::to_string(threads_before) + " -> " +
              std::to_string(thread_count()) + ")");
  return false;
}

// --- per-layer ledger ----------------------------------------------------------

CounterReading CounterReading::now() {
  CounterReading r;
  r.atomics = ttg::atomic_ops::snapshot();
  auto ends_with = [](const std::string& s, const char* suffix) {
    const std::size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  };
  for (const ttg::trace::Metric& m :
       ttg::trace::MetricsRegistry::instance().snapshot()) {
    if (m.name.rfind("engine.", 0) == 0) {
      if (ends_with(m.name, ".steal_attempts")) r.steal_attempts += m.value;
      if (ends_with(m.name, ".steal_successes")) r.steal_successes += m.value;
      if (ends_with(m.name, ".ingress_hits")) r.ingress_hits += m.value;
      if (ends_with(m.name, ".backoff_parks")) r.parks += m.value;
    } else if (m.name == "copy_pool.hits") {
      r.pool_hits += m.value;
    } else if (m.name == "copy_pool.misses") {
      r.pool_misses += m.value;
    }
  }
  r.tsc = ttg::rdtsc();
  return r;
}

void add_layer_metrics(const LedgerInput& in, Report& report) {
  using ttg::AtomicOpCategory;
  using ttg::trace::EventKind;
  const double tasks = static_cast<double>(in.tasks);
  const std::uint64_t t0 = in.before.tsc;
  const std::uint64_t t1 = in.after.tsc;

  // atomics: the Eq. (1) census. copy-pool-hit only records the outcome
  // of a pop already counted under mempool, so the total leaves it out.
  const ttg::AtomicOpSnapshot d = in.after.atomics - in.before.atomics;
  const double total = static_cast<double>(
      d.total() - d[AtomicOpCategory::kCopyPoolHit]);
  report.metric("atomics.total_per_task", ratio(total, tasks), "count");
  const std::pair<const char*, AtomicOpCategory> cats[] = {
      {"atomics.mempool_per_task", AtomicOpCategory::kMemPool},
      {"atomics.input-count_per_task", AtomicOpCategory::kInputCount},
      {"atomics.refcount_per_task", AtomicOpCategory::kRefCount},
      {"atomics.bucket-lock_per_task", AtomicOpCategory::kBucketLock},
      {"atomics.scheduler_per_task", AtomicOpCategory::kScheduler},
      {"atomics.termdet_per_task", AtomicOpCategory::kTermDet},
      {"atomics.rwlock_per_task", AtomicOpCategory::kRWLock},
      {"atomics.copy-pool-miss_per_task", AtomicOpCategory::kCopyPoolMiss},
  };
  for (const auto& [name, cat] : cats) {
    report.metric(name, ratio(static_cast<double>(d[cat]), tasks), "count");
  }

  // runtime / sched from the MetricsRegistry.
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.metric("runtime.parks_per_task",
                ratio(delta(in.before.parks, in.after.parks), tasks),
                "count");
  const double hits = delta(in.before.pool_hits, in.after.pool_hits);
  const double misses = delta(in.before.pool_misses, in.after.pool_misses);
  report.metric("runtime.copy_pool_hit_ratio", ratio(hits, hits + misses),
                "ratio");
  const double attempts =
      delta(in.before.steal_attempts, in.after.steal_attempts);
  report.metric("sched.steal_attempts_per_task", ratio(attempts, tasks),
                "count");
  report.metric(
      "sched.steal_success_ratio",
      ratio(delta(in.before.steal_successes, in.after.steal_successes),
            attempts),
      "ratio");
  report.metric("sched.ingress_pops_per_task",
                ratio(delta(in.before.ingress_hits, in.after.ingress_hits),
                      tasks),
                "count");

  // Trace events inside the window: busy/idle time, task-span self time,
  // inlined tasks, termination rounds, and the last task end per TT name.
  const std::vector<ttg::trace::Event> events = ttg::trace::snapshot();
  struct Open {
    std::uint64_t begin;
    std::uint64_t child;
  };
  std::unordered_map<int, std::vector<Open>> task_stack;
  std::unordered_map<int, std::uint64_t> idle_begin;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> ends_by_name;
  std::vector<std::uint64_t> all_ends;
  std::uint64_t busy = 0, idle = 0, self = 0, spans = 0;
  std::uint64_t inlined = 0, rounds = 0;
  for (const ttg::trace::Event& e : events) {
    if (e.tsc < t0 || e.tsc > t1) continue;
    switch (e.kind) {
      case EventKind::kTaskBegin:
        task_stack[e.thread].push_back({e.tsc, 0});
        break;
      case EventKind::kTaskEnd: {
        auto& st = task_stack[e.thread];
        if (st.empty()) break;  // began before the window
        const Open o = st.back();
        st.pop_back();
        const std::uint64_t dur = e.tsc - o.begin;
        self += dur - std::min(dur, o.child);
        ++spans;
        if (st.empty()) {
          busy += dur;
        } else {
          st.back().child += dur;
        }
        ends_by_name[e.name].push_back(e.tsc);
        all_ends.push_back(e.tsc);
        break;
      }
      case EventKind::kIdleBegin:
        idle_begin[e.thread] = e.tsc;
        break;
      case EventKind::kIdleEnd: {
        auto it = idle_begin.find(e.thread);
        if (it == idle_begin.end()) break;
        idle += e.tsc - it->second;
        idle_begin.erase(it);
        break;
      }
      case EventKind::kInlineExec:
        ++inlined;
        break;
      case EventKind::kTermDetRound:
        ++rounds;
        break;
      default:
        break;
    }
  }
  // Idle spans still open at the window's end count up to it.
  for (const auto& [thread, begin] : idle_begin) idle += t1 - begin;
  const double capacity =
      static_cast<double>(t1 - t0) * static_cast<double>(in.workers);
  report.metric("runtime.busy_frac", ratio(static_cast<double>(busy), capacity),
                "ratio");
  report.metric("runtime.idle_frac", ratio(static_cast<double>(idle), capacity),
                "ratio");
  report.metric("runtime.body_ns_per_task",
                ratio(static_cast<double>(tsc_to_ns(self)),
                      static_cast<double>(spans)),
                "ns");
  report.metric("sched.inline_per_task",
                ratio(static_cast<double>(inlined), tasks), "count");
  report.metric("termdet.rounds_per_epoch",
                ratio(static_cast<double>(rounds),
                      static_cast<double>(in.epochs)),
                "count");
  std::uint64_t dropped = 0;
  for (std::uint64_t n : ttg::trace::dropped_per_thread()) dropped += n;
  if (dropped > 0) {
    report.note("trace rings wrapped: " + std::to_string(dropped) +
                " events dropped; span-derived layer metrics are partial");
  }

  // ttg: epoch close (last task end -> wait()/done() observed), execute()
  // and seeding, from the benchmark's own spans.
  for (auto& [name, v] : ends_by_name) std::sort(v.begin(), v.end());
  std::sort(all_ends.begin(), all_ends.end());
  std::vector<double> close_us;
  for (const OpWindow& w : in.ops) {
    const std::vector<std::uint64_t>* ends = &all_ends;
    if (w.task_name != 0) {
      auto it = ends_by_name.find(w.task_name);
      if (it == ends_by_name.end()) continue;
      ends = &it->second;
    }
    auto it = std::upper_bound(ends->begin(), ends->end(), w.done_tsc);
    if (it == ends->begin()) continue;
    const std::uint64_t last = *std::prev(it);
    if (last < w.begin_tsc) continue;
    close_us.push_back(ttg::cycles_to_ns(w.done_tsc - last) / 1e3);
  }
  report.metric("ttg.epoch_close_us", median(close_us), "us");
  std::vector<double> execute_us;
  double seed_ns = 0;
  std::uint64_t seeds = 0;
  for (const Spans::Span& s : Spans::instance().between(t0, t1)) {
    const double ns = ttg::cycles_to_ns(s.end - s.begin);
    if (std::string_view(s.name) == "execute") execute_us.push_back(ns / 1e3);
    if (std::string_view(s.name) == "seed") {
      seed_ns += ns;
      ++seeds;
    }
  }
  report.metric("ttg.execute_us", median(execute_us), "us");
  report.metric("ttg.seed_ns", ratio(seed_ns, static_cast<double>(seeds)),
                "ns");
}

void add_kernel_metric(Report& report) {
  const std::uint64_t iters = taskbench::flops_to_iterations(kStencilFlops);
  constexpr int kCalls = 2000;
  std::vector<double> per_call;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) sink = sink + taskbench::kernel_compute(iters);
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 / kCalls);
  }
  report.metric("taskbench.kernel_ns", median(per_call), "ns");
}

// --- traced phase ----------------------------------------------------------------

struct TracedPhase::Impl {
  std::string path;
  std::unique_ptr<ttg::trace::Session> session;
};

TracedPhase::TracedPhase(std::string path) : impl_(std::make_unique<Impl>()) {
  impl_->path = std::move(path);
  ttg::trace::Config cfg;
  cfg.events_per_thread = kTraceEventsPerThread;
  impl_->session = std::make_unique<ttg::trace::Session>(cfg);
  // First event of the session: the Chrome export's time base, which the
  // benchmark's own spans are placed against.
  ttg::trace::counter(ttg::trace::intern("perfbench.phase"), 1);
  Spans::instance().clear();
  Spans::instance().set_enabled(true);
  ttg::atomic_ops::set_enabled(true);
}

TracedPhase::~TracedPhase() {
  ttg::atomic_ops::set_enabled(false);
  Spans::instance().set_enabled(false);
  impl_->session.reset();

  std::ostringstream os;
  ttg::trace::export_chrome_json(os);
  std::string json = os.str();
  const std::vector<ttg::trace::Event> events = ttg::trace::snapshot();
  const std::uint64_t base = events.empty() ? 0 : events.front().tsc;
  const double cpn = ttg::cycles_per_ns();
  std::string extra =
      ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"perfbench (benchmark spans)\"}}";
  char buf[256];
  for (const Spans::Span& s : Spans::instance().all()) {
    if (s.begin < base) continue;
    const double ts = static_cast<double>(s.begin - base) / cpn / 1000.0;
    const double dur = static_cast<double>(s.end - s.begin) / cpn / 1000.0;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"cat\":\"perfbench\"}",
                  s.name, ts, dur, s.lane);
    extra += buf;
  }
  const std::size_t pos = json.rfind("\n],\"otherData\"");
  if (pos == std::string::npos) {
    std::fprintf(stderr, "perfbench: unexpected trace export layout\n");
    return;
  }
  // The runtime's export always holds at least its own metadata events,
  // so the benchmark's events follow a comma.
  json.insert(pos, extra);
  std::ofstream out(impl_->path);
  out << json;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", impl_->path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: wrote Chrome trace %s\n",
                 impl_->path.c_str());
  }
}

// --- epoch-shaped workloads ----------------------------------------------------

namespace {

/// Runs checked epochs until `seconds` elapsed.
std::vector<EpochSample> run_loop(EpochBench& bench, double seconds,
                                  Report& report) {
  std::vector<EpochSample> samples;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    EpochSample s = bench.run_epoch();
    report.attempt(s.correct);
    samples.push_back(s);
    if (!s.usable) {
      report.note("epoch left the World unusable; timed loop stopped");
      break;
    }
  } while (Clock::now() < deadline);
  return samples;
}

double median_ns_per_task(const std::vector<EpochSample>& samples,
                          int workers) {
  std::vector<double> v;
  for (const EpochSample& s : samples) {
    if (s.correct && s.tasks > 0) {
      v.push_back(s.wall_s * 1e9 * workers / static_cast<double>(s.tasks));
    }
  }
  return median(v);
}

}  // namespace

void drive_epochs(const Options& opt, const EpochWorkload& w, Report& report) {
  if (!opt.trace) {
    std::vector<double> ns, hop_us, p50_ms, all_wall_ms;
    std::size_t epochs = 0;
    run_segments<EpochBench>(
        opt, report, [&] { return w.make(report); },
        [&](EpochBench& bench, double seconds) {
          const std::vector<EpochSample> samples =
              run_loop(bench, seconds, report);
          std::vector<double> wall_ms;
          for (const EpochSample& s : samples) {
            if (s.correct) wall_ms.push_back(s.wall_s * 1e3);
          }
          all_wall_ms.insert(all_wall_ms.end(), wall_ms.begin(),
                             wall_ms.end());
          epochs += samples.size();
          const double p50 = median(wall_ms);
          ns.push_back(median_ns_per_task(samples, bench.workers()));
          hop_us.push_back(p50 * 1e3 / static_cast<double>(bench.hops()));
          p50_ms.push_back(p50);
        });
    report.metric("ns_per_task", median(ns), "ns");
    report.metric("hop_us", median(hop_us), "us");
    const double p50 = median(p50_ms);
    report.metric("graphs_per_s", p50 > 0 ? 1e3 / p50 : 0, "1/s");
    report.metric("p50_ms", p50, "ms");
    report.metric("p99_ms", quantile(all_wall_ms, 0.99), "ms");
    report.param("timed_epochs", static_cast<double>(epochs));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Untraced baseline on one instance, then a fresh instance built and
  // run inside the traced phase so its construction spans are recorded.
  double untraced = 0;
  {
    std::unique_ptr<EpochBench> bench = w.make(report);
    untraced = median_ns_per_task(run_loop(*bench, opt.seconds / 2, report),
                                  bench->workers());
  }
  {
    TracedPhase phase(opt.trace_out);
    std::unique_ptr<EpochBench> bench;
    {
      ScopedSpan span("setup");
      bench = w.make(report);
    }
    bench->begin_traced();
    LedgerInput in;
    in.workers = bench->workers();
    std::vector<EpochSample> samples;
    in.before = CounterReading::now();
    for (int i = 0; i < w.traced_epochs; ++i) {
      EpochSample s = bench->run_epoch();
      report.attempt(s.correct);
      in.tasks += s.tasks;
      in.ops.push_back(s.window);
      samples.push_back(s);
      if (!s.usable) break;
    }
    in.after = CounterReading::now();
    in.epochs = samples.size();
    add_layer_metrics(in, report);
    bench->add_traced_metrics(in.epochs, report);
    const double traced = median_ns_per_task(samples, bench->workers());
    report.metric("trace.overhead_pct", (ratio(traced, untraced) - 1) * 100,
                  "%");
    ScopedSpan span("teardown");
    bench.reset();
  }
  add_kernel_metric(report);
}

}  // namespace perfbench
