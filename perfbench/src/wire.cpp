// wire: two distributed Worlds in one process, one rank each with one
// worker, connected by comm::TcpCommunicator over 127.0.0.1. A value hops
// along a chain whose keymap alternates ranks, so every task is a
// cross-rank delivery: Serde encode, the blocking send on the worker,
// progress-thread receive and the token-ring termination wave.
//
// The in-process World(config, nranks) loopback mode is deliberately not
// used: this workload measures the real transport.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/tcp.hpp"
#include "common/cycle_clock.hpp"
#include "ttg/ttg.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace comm = ttg::comm;

std::uint64_t fingerprint(const std::byte* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint8_t>(data[i])) * 1099511628211ull;
  }
  return h;
}

/// Per-direction record of posted frames, so the receiver can read the
/// one-way time of each frame: both ranks share the process clock.
struct Link {
  std::mutex send_order;  // held across record + post: FIFO per direction
  std::mutex mutex;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> posted;  // guarded
                                                               // (fp, tsc)
};

/// Counters one rank's decorator accumulates while timing is on.
struct CommStats {
  std::uint64_t posts = 0, post_cycles = 0;
  std::uint64_t frames = 0, bytes = 0, deliveries = 0, term_frames = 0;
  std::uint64_t handled = 0, handler_cycles = 0;
  std::vector<double> oneway_us;
};

/// Timing decorator around a real transport: times post() and the
/// World's frame handler, and classifies frames by their WireKind byte.
class TimingComm final : public comm::Communicator {
 public:
  TimingComm(std::unique_ptr<comm::TcpCommunicator> inner, Link* out,
             Link* in)
      : inner_(std::move(inner)), out_(out), in_(in) {}

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }

  void set_frame_handler(comm::FrameHandler handler) override {
    inner_->set_frame_handler(
        [this, handler = std::move(handler)](int source, const std::byte* d,
                                             std::size_t n) {
          if (!timing_.load(std::memory_order_acquire)) {
            handler(source, d, n);
            return;
          }
          const std::uint64_t t0 = ttg::rdtsc();
          match_posted(d, n, t0);
          handler(source, d, n);
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.handled += 1;
          stats_.handler_cycles += ttg::rdtsc() - t0;
        });
  }

  void set_loss_handler(comm::LossHandler handler) override {
    inner_->set_loss_handler(std::move(handler));
  }

  void post(int target, const std::byte* data, std::size_t n) override {
    if (!timing_.load(std::memory_order_acquire)) {
      inner_->post(target, data, n);
      return;
    }
    std::lock_guard<std::mutex> order(out_->send_order);
    const std::uint64_t t0 = ttg::rdtsc();
    {
      std::lock_guard<std::mutex> lock(out_->mutex);
      out_->posted.emplace_back(fingerprint(data, n), t0);
    }
    inner_->post(target, data, n);
    const std::uint64_t t1 = ttg::rdtsc();
    const auto kind = n > 0 ? static_cast<ttg::WireKind>(data[0])
                            : ttg::WireKind::kAbort;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.posts += 1;
    stats_.post_cycles += t1 - t0;
    stats_.frames += 1;
    stats_.bytes += n;
    if (kind == ttg::WireKind::kDelivery) stats_.deliveries += 1;
    if (kind == ttg::WireKind::kTermToken || kind == ttg::WireKind::kAnnounce) {
      stats_.term_frames += 1;
    }
  }

  void shutdown() override { inner_->shutdown(); }

  void set_timing(bool on) { timing_.store(on, std::memory_order_release); }
  CommStats stats() {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }

 private:
  /// Pairs a received frame with its post() entry time. Frames posted
  /// before timing started have no record and are skipped.
  void match_posted(const std::byte* d, std::size_t n, std::uint64_t now) {
    const std::uint64_t fp = fingerprint(d, n);
    std::lock_guard<std::mutex> lock(in_->mutex);
    auto& q = in_->posted;
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->first != fp) continue;
      const double us = ttg::cycles_to_ns(now - it->second) / 1e3;
      q.erase(q.begin(), std::next(it));
      std::lock_guard<std::mutex> s(stats_mutex_);
      stats_.oneway_us.push_back(us);
      return;
    }
  }

  std::unique_ptr<comm::TcpCommunicator> inner_;
  Link* out_;
  Link* in_;
  std::atomic<bool> timing_{false};
  std::mutex stats_mutex_;
  CommStats stats_;  // guarded by stats_mutex_
};

/// A listening socket on 127.0.0.1, port chosen by the kernel.
int listen_loopback(int& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("listen on 127.0.0.1:0 failed: ") +
                             std::strerror(errno));
  }
  port = ntohs(addr.sin_port);
  return fd;
}

constexpr int kRanks = 2;

class WireBench final : public EpochBench {
 public:
  WireBench(const ttg::Config& config, int hops, const Options& opt,
            Report& report)
      : config_(config), hops_(hops), offset_(opt.expect_offset),
        rng_(opt.seed) {
    comm::TcpCommunicator::Options base;
    base.size = kRanks;
    int fds[kRanks];
    for (int r = 0; r < kRanks; ++r) {
      int port = 0;
      fds[r] = listen_loopback(port);
      base.hosts.push_back("127.0.0.1:" + std::to_string(port));
    }
    // Rank 1 lives on its own driving thread: a distributed World's
    // execute()/wait() must run on the thread that constructed it.
    {
      comm::TcpCommunicator::Options o1 = base;
      o1.rank = 1;
      o1.listen_fd = fds[1];
      helper_ = std::thread([this, o1] { rank1_main(o1); });
    }
    try {
      comm::TcpCommunicator::Options o0 = base;
      o0.rank = 0;
      o0.listen_fd = fds[0];
      build_rank(0, o0);
    } catch (...) {
      stop_helper();
      throw;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return rank1_ready_; });
    }
    if (rank1_error_) {
      stop_helper();
      std::rethrow_exception(rank1_error_);
    }
    for (int i = 0; i < 2; ++i) report.attempt(run_epoch().correct);
  }

  ~WireBench() override {
    stop_helper();
    // Each World's destructor shuts its transport down with goodbyes.
    for (int r = kRanks - 1; r >= 0; --r) {
      ranks_[r].tt.reset();
      ranks_[r].world.reset();
    }
  }

  EpochSample run_epoch() override {
    const std::int64_t v0 = static_cast<std::int64_t>(rng_() >> 16);
    for (Rank& r : ranks_) {
      r.tasks.store(0, std::memory_order_relaxed);
      r.last.store(-1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++released_;
    }
    cv_.notify_all();
    EpochSample s;
    s.window.begin_tsc = ttg::rdtsc();
    const Clock::time_point t0 = Clock::now();
    ttg::Submission epoch;
    {
      ScopedSpan span("execute");
      epoch = ranks_[0].world->execute();
    }
    {
      ScopedSpan span("seed");
      ranks_[0].seed(v0);
    }
    ttg::Status st0;
    {
      ScopedSpan span("wait");
      st0 = epoch.wait();
    }
    s.wall_s = seconds_between(t0, Clock::now());
    s.window.done_tsc = ttg::rdtsc();
    ttg::Status st1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return finished_ == released_; });
      st1 = rank1_status_;
    }
    bool ok = st0.ok() && st1.ok();
    for (int r = 0; r < kRanks; ++r) {
      int expected = 0;
      for (int k = 0; k <= hops_; ++k) expected += k % kRanks == r ? 1 : 0;
      const int ran = ranks_[r].tasks.load(std::memory_order_relaxed);
      ok = ok && ran == expected;
      s.tasks += static_cast<std::uint64_t>(ran);
    }
    const std::int64_t last =
        ranks_[hops_ % kRanks].last.load(std::memory_order_relaxed);
    s.correct = ok && last == v0 + hops_ + static_cast<std::int64_t>(offset_);
    s.usable = st0.ok() && st1.ok();
    return s;
  }

  int workers() const override { return kRanks; }
  std::uint64_t hops() const override {
    return static_cast<std::uint64_t>(hops_);
  }

  void begin_traced() override {
    for (Rank& r : ranks_) r.comm->set_timing(true);
  }

  void add_traced_metrics(std::uint64_t epochs, Report& report) override {
    for (Rank& r : ranks_) r.comm->set_timing(false);
    CommStats t;
    for (Rank& r : ranks_) {
      const CommStats s = r.comm->stats();
      t.posts += s.posts;
      t.post_cycles += s.post_cycles;
      t.frames += s.frames;
      t.bytes += s.bytes;
      t.deliveries += s.deliveries;
      t.term_frames += s.term_frames;
      t.handled += s.handled;
      t.handler_cycles += s.handler_cycles;
      t.oneway_us.insert(t.oneway_us.end(), s.oneway_us.begin(),
                         s.oneway_us.end());
    }
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double ep = static_cast<double>(epochs);
    report.metric("comm.post_ns",
                  per(ttg::cycles_to_ns(t.post_cycles),
                      static_cast<double>(t.posts)),
                  "ns");
    report.metric("comm.frames_per_hop",
                  per(static_cast<double>(t.deliveries), ep * hops_),
                  "count");
    report.metric("comm.bytes_per_frame",
                  per(static_cast<double>(t.bytes),
                      static_cast<double>(t.frames)),
                  "B");
    report.metric("comm.oneway_us", median(t.oneway_us), "us");
    report.metric("comm.handler_ns",
                  per(ttg::cycles_to_ns(t.handler_cycles),
                      static_cast<double>(t.handled)),
                  "ns");
    report.metric("comm.term_frames_per_epoch",
                  per(static_cast<double>(t.term_frames), ep), "count");
  }

 private:
  struct Rank {
    std::shared_ptr<TimingComm> comm;
    std::unique_ptr<ttg::World> world;
    std::unique_ptr<ttg::TTBase> tt;
    std::function<void(std::int64_t)> seed;
    std::atomic<int> tasks{0};
    std::atomic<std::int64_t> last{-1};
  };

  /// Bootstraps rank `r`'s transport and builds its (SPMD) graph.
  void build_rank(int r, const comm::TcpCommunicator::Options& o) {
    Rank& rank = ranks_[r];
    {
      ScopedSpan span("tcp_bootstrap", r);
      rank.comm = std::make_shared<TimingComm>(
          std::make_unique<comm::TcpCommunicator>(o), &links_[r],
          &links_[1 - r]);
    }
    {
      ScopedSpan span("world", r);
      rank.world = std::make_unique<ttg::World>(config_, rank.comm);
    }
    ScopedSpan span("make_tt", r);
    const int hops = hops_;
    auto tt = ttg::make_tt<int>(
        [&rank, hops](const int& k, std::int64_t& v, auto& outs) {
          rank.tasks.fetch_add(1, std::memory_order_relaxed);
          if (k < hops) {
            ttg::send<0>(k + 1, v + 1, outs);
          } else {
            rank.last.store(v, std::memory_order_relaxed);
          }
        },
        ttg::edges(edge_[r]), ttg::edges(edge_[r]), "hop", *rank.world);
    tt->set_keymap([](const int& k) { return k % kRanks; });
    auto* raw = tt.get();
    rank.seed = [raw](std::int64_t v) {
      raw->template send_input<0>(0, v);
    };
    rank.tt = std::move(tt);
  }

  void rank1_main(comm::TcpCommunicator::Options o) {
    try {
      build_rank(1, o);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      rank1_error_ = std::current_exception();
      rank1_ready_ = true;
      cv_.notify_all();
      return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    rank1_ready_ = true;
    cv_.notify_all();
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || released_ > finished_; });
      if (stop_) return;
      lock.unlock();
      ttg::Status st;
      {
        ttg::Submission epoch;
        {
          ScopedSpan span("execute", 1);
          epoch = ranks_[1].world->execute();
        }
        ScopedSpan span("wait", 1);
        st = epoch.wait();
      }
      lock.lock();
      rank1_status_ = st;
      ++finished_;
      cv_.notify_all();
    }
  }

  void stop_helper() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (helper_.joinable()) helper_.join();
  }

  const ttg::Config config_;
  const int hops_;
  const std::uint64_t offset_;
  std::mt19937_64 rng_;
  Link links_[kRanks];  // links_[r]: frames posted by rank r
  ttg::Edge<int, std::int64_t> edge_[kRanks] = {
      ttg::Edge<int, std::int64_t>("hop"), ttg::Edge<int, std::int64_t>("hop")};
  Rank ranks_[kRanks];

  std::mutex mutex_;
  std::condition_variable cv_;
  bool rank1_ready_ = false;           // guarded by mutex_
  std::exception_ptr rank1_error_;     // guarded by mutex_
  std::uint64_t released_ = 0;         // guarded by mutex_
  std::uint64_t finished_ = 0;         // guarded by mutex_
  ttg::Status rank1_status_;           // guarded by mutex_
  bool stop_ = false;                  // guarded by mutex_
  std::thread helper_;  // last: joined before the state it uses goes away
};

}  // namespace

ttg::Config run_wire(const Options& opt, Report& report) {
  ttg::Config config;
  config.num_threads = 1;
  // ~10 ms epochs: a p99 with ten samples beyond it in a 10 s run.
  const int hops = opt.smoke ? 50 : 500;
  report.param("ranks", kRanks);
  report.param("hops_per_epoch", hops);
  report.param("workers_per_rank", 1);
  report.param("transport", "tcp 127.0.0.1, port 0, listen_fd");
  EpochWorkload w;
  w.make = [&](Report& r) -> std::unique_ptr<EpochBench> {
    return std::make_unique<WireBench>(config, hops, opt, r);
  };
  w.traced_epochs = 50;
  drive_epochs(opt, w, report);
  return config;
}

}  // namespace perfbench
