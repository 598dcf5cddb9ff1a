// Shared pieces of the perfbench binary: clocks, the seeded RNG, failure
// tally, in-memory span recorder, raw-result structs and a small streaming
// JSON writer. The binary only measures; run.py turns the raw samples into
// medians, quantiles and the reported metrics.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <sched.h>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"

namespace perfbench {

using Samples = std::vector<double>;

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns() noexcept;

/// CPU seconds consumed so far by the whole process (every thread) or by
/// the calling thread alone.
inline double cpu_s(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double process_cpu_s() noexcept { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() noexcept { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }

/// Pins the calling thread, for the object's lifetime, to the k-th (mod
/// count) CPU the thread may run on. Serial references rotate over every
/// CPU: on a shared host one core can run serial code a third faster than
/// another for minutes, and a run that drew one core for all its serial
/// samples would skew every serial ÷ parallel ratio it reports.
class CpuPin {
 public:
  explicit CpuPin(unsigned k);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// A scheduler of `threads` workers in the default configuration. Event
/// tracing (unless asked for), fault injection, region deadlines and the
/// stall watchdog are forced off; every other field keeps the default
/// SchedulerConfig reads from its RT_* variable, which run.py removes from
/// the binary's environment.
std::unique_ptr<bots::rt::Scheduler> make_scheduler(unsigned threads,
                                                    bool trace = false);

/// splitmix64: the benchmark's only randomness, fully determined by --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = state_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Fisher-Yates shuffle (std::shuffle's draw order is unspecified).
  template <class T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Operations attempted and failed; every failure keeps a message.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  /// Counts one operation; false marks it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (messages.size() < 32) messages.push_back(what);
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
};

/// One recorded span: a call into one layer, with the span that caused it.
struct Span {
  std::string layer;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0; ///< server request id; 0 = none
};

/// In-memory span log. Recording is off unless --trace 1; only the binary's
/// main thread records (request spans are recorded by the generator after
/// the request completes), so no locking is needed.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] std::uint64_t reserve() noexcept { return on_ ? ++next_id_ : 0; }
  /// Records a finished span under a reserved id (0 = allocate one).
  std::uint64_t add(std::string layer, std::string name, std::int64_t start,
                    std::int64_t end, std::uint64_t parent = 0,
                    std::uint64_t request = 0, std::uint64_t id = 0) {
    if (!on_) return 0;
    if (id == 0) id = ++next_id_;
    log_.push_back({std::move(layer), std::move(name), start, end, id, parent,
                    request});
    return id;
  }
  [[nodiscard]] const std::vector<Span>& log() const noexcept { return log_; }

 private:
  bool on_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> log_;
};

/// RAII span around one layer call; children use id() as their parent.
class Scope {
 public:
  Scope(Spans& spans, std::string layer, std::string name,
        std::uint64_t parent = 0)
      : spans_(spans), layer_(std::move(layer)), name_(std::move(name)),
        parent_(parent), id_(spans.reserve()), start_(now_ns()) {}
  ~Scope() { spans_.add(layer_, name_, start_, now_ns(), parent_, 0, id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Spans& spans_;
  std::string layer_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::int64_t start_;
};

/// Scheduler counters summed over a workload's timed regions, plus the
/// process CPU and team-wall time those regions took.
struct Counters {
  bots::rt::WorkerStats stats;
  double cpu_s = 0;        ///< team CPU seconds inside timed regions
  double team_wall_s = 0;  ///< Σ timed wall × team size
  std::uint64_t graph_requests = 0;  ///< submit_graph calls admitted
};

/// One batch operation kind (a kernel version): its serial reference and
/// the measured configuration, as seconds and (Floorplan) nodes/s.
struct OpResult {
  std::string kind;
  Samples serial_s, serial_metric, measured_s, measured_metric;
};

/// One open-loop window of the server load generator at a fixed rate.
struct Window {
  double rps = 0;
  double seconds = 0;
  std::uint64_t sent = 0;
  std::uint64_t backlog_end = 0;  ///< requests unfinished when the schedule ended
  std::uint64_t rejected = 0, shed = 0, deadline_exceeded = 0;
  std::map<std::string, Samples> latency_ms;  ///< scheduled send -> terminal, per class
  std::map<std::string, Samples> service_ms;  ///< first code run -> terminal, per class
  Samples queue_ms;   ///< actual send -> body start (every class but lu)
  Samples lag_ms;     ///< scheduled send -> actual send
  Samples submit_us;  ///< duration of the submit() call
};

/// Server-load results: per-class serial references and the rate windows.
struct ServerResult {
  std::map<std::string, Samples> serial_ms;
  std::vector<Window> windows;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;  ///< CPUs the process may run on
  std::string out;
  std::string spans_out;
};

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}
  Json& key(const std::string& k);
  Json& str(const std::string& s);
  Json& num(double v);
  Json& num(std::uint64_t v);
  Json& begin_obj();
  Json& end_obj();
  Json& begin_arr();
  Json& end_arr();
  Json& samples(const Samples& v);
  Json& sample_map(const std::map<std::string, Samples>& m);

 private:
  void sep();
  void quoted(const std::string& s);
  std::FILE* f_;
  std::vector<bool> first_{true};
  bool after_key_ = false;
};

/// Batch workloads (fig3-nproc, overhead-t1): repeated kernel runs.
void run_batch(const Options& opt, Tally& tally, Spans& spans,
               Samples& setup_s, std::vector<OpResult>& ops,
               Counters& counters);

/// server-open: the resident TaskServer under the open-loop rate ladder.
void run_server_open(const Options& opt, Tally& tally, Spans& spans,
                     Samples& setup_s, ServerResult& out, Counters& counters);

/// A short open-loop window at a fixed low rate on a fresh server: the
/// ladder's server rung (admission, queueing, service) for every workload.
Window run_server_probe(const Options& opt, Tally& tally, Spans& spans,
                        std::uint64_t parent);

/// The per-layer ladder: each runtime mechanism timed on its own.
struct Ladder {
  std::map<std::string, Samples> series;
  std::map<std::string, double> scalars;
  Window probe;
};
void run_ladder(const Options& opt, Tally& tally, Spans& spans, Ladder& out);

}  // namespace perfbench
