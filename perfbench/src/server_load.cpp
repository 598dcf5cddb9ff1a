// server-open: a resident TaskServer fed by one open-loop generator.
//
// Four request classes, each a different path through the runtime:
//   fib    a spawn/taskwait tree with a serial leaf cut-off (scheduler),
//   sort   spawn-based mergesort over a private buffer (scheduler),
//   pairs  all-pairs sequence scoring through spawn_range (worksharing),
//   lu     a blocked-LU DAG submitted with submit_graph, so the first
//          request of a tag records the graph and later ones replay it
//          (dependency + taskgraph).
// Inputs come in a few seeded variants per class whose answers are computed
// serially during set-up, so checking a request costs one comparison.
//
// The generator sends on a seeded Poisson schedule and never waits for a
// reply. Latency runs from each request's scheduled send time to the moment
// the server makes it terminal, so a stalled generator or a full queue shows
// up as latency, and generator lag is reported on its own.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "runtime/rt.hpp"

namespace perfbench {
namespace {

namespace rt = bots::rt;

enum Cls : unsigned { kFib, kSort, kPairs, kLu, kClasses };
constexpr const char* kClassName[kClasses] = {"fib", "sort", "pairs", "lu"};
/// Layer each class's service time belongs to (span self-time table).
constexpr const char* kClassLayer[kClasses] = {"scheduler", "scheduler",
                                               "worksharing", "taskgraph"};
constexpr unsigned kVariants = 4;

// Variants of a class differ in data, never in size, so a class's median
// does not depend on which variants the seeded mix happened to draw.
constexpr int kFibN = 27;
constexpr int kFibCut = 15;       // serial at and below this n
constexpr std::size_t kSortN = 7000;
constexpr std::size_t kSortLeaf = 512;
constexpr std::int64_t kPairsSeqs = 80;
constexpr int kPairsLen = 128;
constexpr std::int64_t kPairsGrain = 16;
constexpr int kLuBlocks = 6;      // NB x NB blocks
constexpr int kLuBlock = 24;      // BS x BS doubles each

// The open-loop rate ladder (requests/s), calibrated once on a 4-vCPU Intel
// Xeon guest (3 server workers + the generator) and frozen. The knee sits
// between 4000 and 5000/s on a quiet host; run.py gates on two rates well
// below it, where a neighbour taking CPU slows requests instead of letting
// the queue run away.
constexpr double kRates[] = {1000, 2000, 3000, 4000};

constexpr double kProbeRps = 300;
constexpr double kProbeSeconds = 1.5;

// ---- request kernels ------------------------------------------------------

std::uint64_t fib_serial(int n) {
  return n < 2 ? static_cast<std::uint64_t>(n)
               : fib_serial(n - 1) + fib_serial(n - 2);
}

std::uint64_t fib_tree(int n) {
  if (n <= kFibCut) return fib_serial(n);
  std::uint64_t a = 0, b = 0;
  rt::spawn([&a, n] { a = fib_tree(n - 1); });
  rt::spawn([&b, n] { b = fib_tree(n - 2); });
  rt::taskwait();
  return a + b;
}

void msort(std::uint32_t* v, std::uint32_t* tmp, std::size_t n) {
  if (n <= kSortLeaf) {
    std::sort(v, v + n);
    return;
  }
  const std::size_t h = n / 2;
  rt::spawn([=] { msort(v, tmp, h); });
  rt::spawn([=] { msort(v + h, tmp + h, n - h); });
  rt::taskwait();
  std::merge(v, v + h, v + h, v + n, tmp);
  std::copy(tmp, tmp + n, v);
}

/// Order-sensitive digest: a sorted permutation of the input matches the
/// reference digest only when every element sits in its place.
std::uint64_t order_digest(const std::vector<std::uint32_t>& v) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < v.size(); ++i) h += (i + 1) * v[i];
  return h;
}

std::uint64_t sort_request(const std::vector<std::uint32_t>& input) {
  std::vector<std::uint32_t> v(input);
  std::vector<std::uint32_t> tmp(v.size());
  msort(v.data(), tmp.data(), v.size());
  return order_digest(v);
}

std::uint64_t score_pair(const std::uint8_t* seqs, std::int64_t i,
                         std::int64_t j) {
  const std::uint8_t* a = seqs + i * kPairsLen;
  const std::uint8_t* b = seqs + j * kPairsLen;
  std::uint64_t sc = 0;
  for (int k = 0; k < kPairsLen; ++k) {
    sc += a[k] == b[k] ? 3u : ((a[k] & 3u) == (b[k] & 3u) ? 1u : 0u);
  }
  return sc;
}

std::uint64_t pairs_request(const std::vector<std::uint8_t>& seqs) {
  std::atomic<std::uint64_t> total{0};
  rt::spawn_range(0, kPairsSeqs * kPairsSeqs, kPairsGrain,
                  [&total, s = seqs.data()](std::int64_t idx) {
                    total.fetch_add(score_pair(s, idx / kPairsSeqs,
                                               idx % kPairsSeqs),
                                    std::memory_order_relaxed);
                  });
  rt::taskwait();
  return total.load(std::memory_order_relaxed);
}

// ---- blocked LU (no pivoting; inputs are diagonally dominant) -------------

constexpr int kBB = kLuBlock * kLuBlock;

void lu0(double* a) {
  for (int k = 0; k < kLuBlock; ++k) {
    for (int i = k + 1; i < kLuBlock; ++i) {
      a[i * kLuBlock + k] /= a[k * kLuBlock + k];
      for (int j = k + 1; j < kLuBlock; ++j) {
        a[i * kLuBlock + j] -= a[i * kLuBlock + k] * a[k * kLuBlock + j];
      }
    }
  }
}

void fwd(const double* diag, double* b) {
  for (int k = 0; k < kLuBlock; ++k) {
    for (int i = k + 1; i < kLuBlock; ++i) {
      for (int j = 0; j < kLuBlock; ++j) {
        b[i * kLuBlock + j] -= diag[i * kLuBlock + k] * b[k * kLuBlock + j];
      }
    }
  }
}

void bdiv(const double* diag, double* b) {
  for (int i = 0; i < kLuBlock; ++i) {
    for (int k = 0; k < kLuBlock; ++k) {
      b[i * kLuBlock + k] /= diag[k * kLuBlock + k];
      for (int j = k + 1; j < kLuBlock; ++j) {
        b[i * kLuBlock + j] -= b[i * kLuBlock + k] * diag[k * kLuBlock + j];
      }
    }
  }
}

void bmod(const double* row, const double* col, double* c) {
  for (int i = 0; i < kLuBlock; ++i) {
    for (int k = 0; k < kLuBlock; ++k) {
      const double r = row[i * kLuBlock + k];
      for (int j = 0; j < kLuBlock; ++j) c[i * kLuBlock + j] -= r * col[k * kLuBlock + j];
    }
  }
}

/// One request's bookkeeping. Written by the generator before submit and by
/// the request's tasks while it runs; read back only once it is terminal.
struct Req {
  unsigned cls = 0;
  unsigned var = 0;
  std::uint64_t id = 0;
  std::int64_t due = 0;        ///< scheduled send time
  std::int64_t send = 0;       ///< actual submit() call
  std::int64_t submit_ns = 0;  ///< submit() duration
  std::atomic<std::int64_t> start{0};  ///< first code of the request ran
  std::uint64_t digest = 0;
  rt::RegionHandle handle;

  /// When the server made the request terminal: its admission-to-terminal
  /// latency, which the server stamps as it finalizes the request, added to
  /// the end of the submit() call. Admission happens inside that call, so
  /// this is late by at most the call's own duration (microseconds).
  [[nodiscard]] std::int64_t terminal_ns() const noexcept {
    return send + submit_ns +
           std::chrono::duration_cast<std::chrono::nanoseconds>(handle.latency()).count();
  }
};

void mark_start(Req& r) {
  std::int64_t unset = 0;
  r.start.compare_exchange_strong(unset, now_ns(), std::memory_order_relaxed);
}

/// Persistent buffers of one submit_graph tag. The recorded graph's task
/// bodies hold a pointer to the slot and read the current request and input
/// from it, so a replay serves whichever request the slot holds now.
struct LuSlot {
  std::string tag;
  std::vector<double> a = std::vector<double>(kLuBlocks * kLuBlocks * kBB);
  const std::vector<double>* input = nullptr;
  Req* req = nullptr;
  double acc = 0;
  rt::RegionHandle handle;  ///< last request served; the slot is free once done

  double* block(int i, int j) { return a.data() + (i * kLuBlocks + j) * kBB; }
};

/// Builds the LU DAG: per-block loads, the factorisation, then a digest
/// chain whose last task writes the request's answer. A replay runs the
/// recorded tasks without calling this, so the loads mark the start too.
void lu_build(rt::DepScope& sc, LuSlot* s) {
  mark_start(*s->req);
  for (int i = 0; i < kLuBlocks; ++i) {
    for (int j = 0; j < kLuBlocks; ++j) {
      sc.spawn({rt::out(s->block(i, j))}, [s, i, j] {
        mark_start(*s->req);
        const double* src = s->input->data() + (i * kLuBlocks + j) * kBB;
        std::memcpy(s->block(i, j), src, sizeof(double) * kBB);
      });
    }
  }
  for (int k = 0; k < kLuBlocks; ++k) {
    sc.spawn({rt::inout(s->block(k, k))}, [s, k] { lu0(s->block(k, k)); });
    for (int j = k + 1; j < kLuBlocks; ++j) {
      sc.spawn({rt::in(s->block(k, k)), rt::inout(s->block(k, j))},
               [s, k, j] { fwd(s->block(k, k), s->block(k, j)); });
    }
    for (int i = k + 1; i < kLuBlocks; ++i) {
      sc.spawn({rt::in(s->block(k, k)), rt::inout(s->block(i, k))},
               [s, k, i] { bdiv(s->block(k, k), s->block(i, k)); });
    }
    for (int i = k + 1; i < kLuBlocks; ++i) {
      for (int j = k + 1; j < kLuBlocks; ++j) {
        sc.spawn({rt::in(s->block(i, k)), rt::in(s->block(k, j)),
                  rt::inout(s->block(i, j))},
                 [s, k, i, j] {
                   bmod(s->block(i, k), s->block(k, j), s->block(i, j));
                 });
      }
    }
  }
  constexpr int kLast = kLuBlocks * kLuBlocks - 1;
  for (int b = 0; b <= kLast; ++b) {
    double* blk = s->block(b / kLuBlocks, b % kLuBlocks);
    sc.spawn({rt::in(blk), rt::inout(s->acc)}, [s, b, blk] {
      double sum = 0;
      for (int e = 0; e < kBB; ++e) sum += blk[e] * static_cast<double>(e + 1);
      s->acc = (b == 0 ? 0.0 : s->acc) + sum;
      if (b == kLast) std::memcpy(&s->req->digest, &s->acc, sizeof(double));
    });
  }
}

/// Sleeps until shortly before `t`, then spins: a plain sleep overshoots by
/// the wake-up latency, which on a virtual CPU can reach milliseconds.
void sleep_until_ns(std::int64_t t) {
  constexpr std::int64_t kSpinNs = 200'000;
  if (t - now_ns() > kSpinNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t - kSpinNs)));
  }
  while (now_ns() < t) {
  }
}

/// A resident server with its inputs and reference answers. Constructing
/// one is the workload's set-up: inputs, scheduler, server and a closed-loop
/// warm-up of every class and variant.
class Harness {
 public:
  Harness(unsigned workers, std::uint64_t seed, Tally& tally) : tally_(tally) {
    Rng rng(seed);
    for (unsigned v = 0; v < kVariants; ++v) {
      sort_in_[v].resize(kSortN);
      for (auto& x : sort_in_[v]) x = static_cast<std::uint32_t>(rng.next());
      pairs_in_[v].resize(static_cast<std::size_t>(kPairsSeqs) * kPairsLen);
      for (auto& c : pairs_in_[v]) c = static_cast<std::uint8_t>(rng.next() % 20);
      lu_in_[v].resize(kLuBlocks * kLuBlocks * kBB);
      constexpr int n = kLuBlocks * kLuBlock;
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          const int bi = r / kLuBlock, bj = c / kLuBlock;
          const int e = (r % kLuBlock) * kLuBlock + c % kLuBlock;
          lu_in_[v][(bi * kLuBlocks + bj) * kBB + e] =
              r == c ? 2.0 * n : rng.uniform() - 0.5;
        }
      }
    }
    // Reference answers: the same request code run serially, outside any
    // region (spawn runs inline, spawn_range loops, DepScope runs in
    // program order).
    for (unsigned c = 0; c < kClasses; ++c) {
      for (unsigned v = 0; v < kVariants; ++v) expected_[c][v] = run_serial(c, v);
    }
    sched_ = make_scheduler(workers);
    rt::ServerConfig scfg;
    // Overload shows up as queueing latency, never as rejected requests.
    scfg.queue_capacity = 1u << 16;
    scfg.shed_on_overload = false;
    server_ = std::make_unique<rt::TaskServer>(*sched_, scfg);
    constexpr int kWarmRounds = 6;
    for (int r = 0; r < kWarmRounds; ++r) {
      for (unsigned c = 0; c < kClasses; ++c) {
        for (unsigned v = 0; v < kVariants; ++v) {
          Req& q = reqs_.emplace_back();
          q.cls = c;
          q.var = v;
          submit(q);
          q.handle.wait();
          verify(q, "warm-up");
        }
      }
    }
    reqs_.clear();
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  ~Harness() {
    if (server_) server_->stop();
  }

  /// Serial reference times: every class and variant, `rounds` times, each
  /// round on the next CPU.
  void serial_reference(ServerResult& out, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const CpuPin pin(serial_cpu_++);
      for (unsigned c = 0; c < kClasses; ++c) {
        for (unsigned v = 0; v < kVariants; ++v) {
          const std::int64_t t0 = now_ns();
          const std::uint64_t d = run_serial(c, v);
          const std::int64_t t1 = now_ns();
          tally_.check(d == expected_[c][v],
                       std::string("serial reference ") + kClassName[c]);
          out.serial_ms[kClassName[c]].push_back(static_cast<double>(t1 - t0) * 1e-6);
        }
      }
    }
  }

  /// One open-loop window: Poisson arrivals at `rps` for `seconds`, then a
  /// full drain; every request is checked.
  Window window(double rps, double seconds, Rng& rng, Spans& spans,
                std::uint64_t parent, Counters* counters) {
    Window w;
    w.rps = rps;
    w.seconds = seconds;
    std::vector<std::int64_t> offsets;
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.uniform()) / rps;
      if (t >= seconds) break;
      offsets.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    const rt::ServerStats before = server_->stats();
    const double cpu0 = process_cpu_s();
    const double generator0 = thread_cpu_s();
    const std::int64_t t0 = now_ns() + 1'000'000;
    for (const std::int64_t off : offsets) {
      Req& q = reqs_.emplace_back();
      q.cls = static_cast<unsigned>(rng.next() % kClasses);
      q.var = static_cast<unsigned>(rng.next() % kVariants);
      q.due = t0 + off;
      sleep_until_ns(q.due);
      q.send = now_ns();
      submit(q);
      q.submit_ns = now_ns() - q.send;
    }
    sleep_until_ns(t0 + static_cast<std::int64_t>(seconds * 1e9));
    for (const Req& q : reqs_) w.backlog_end += q.handle.done() ? 0 : 1;
    for (const Req& q : reqs_) q.handle.wait();
    if (counters != nullptr) {
      // The team's CPU: everything but this generator thread.
      counters->cpu_s += (process_cpu_s() - cpu0) - (thread_cpu_s() - generator0);
      counters->team_wall_s +=
          static_cast<double>(now_ns() - t0) * 1e-9 * sched_->num_workers();
    }
    const rt::ServerStats after = server_->stats();
    w.rejected = after.rejected - before.rejected;
    w.shed = after.shed - before.shed;
    w.deadline_exceeded = after.deadline_exceeded - before.deadline_exceeded;
    w.sent = reqs_.size();
    const std::uint64_t wspan = spans.add("server", "window", t0,
                                          now_ns(), parent);
    for (Req& q : reqs_) {
      if (!verify(q, "rate " + std::to_string(static_cast<int>(rps)))) continue;
      const std::int64_t start = q.start.load(std::memory_order_relaxed);
      const std::int64_t end = q.terminal_ns();
      w.latency_ms[kClassName[q.cls]].push_back(static_cast<double>(end - q.due) * 1e-6);
      w.service_ms[kClassName[q.cls]].push_back(static_cast<double>(end - start) * 1e-6);
      // An LU replay's first code is its first load task, after the replay
      // has been set up: its wait would hold taskgraph work, not queueing.
      if (q.cls != kLu) w.queue_ms.push_back(static_cast<double>(start - q.send) * 1e-6);
      w.lag_ms.push_back(static_cast<double>(q.send - q.due) * 1e-6);
      w.submit_us.push_back(static_cast<double>(q.submit_ns) * 1e-3);
      if (spans.on()) {
        const std::uint64_t rid = spans.reserve();
        spans.add("loadgen", "lag", q.due, q.send, rid, q.id);
        if (q.cls != kLu) spans.add("server", "queue", q.send, start, rid, q.id);
        spans.add(kClassLayer[q.cls], std::string("service.") + kClassName[q.cls],
                  start, end, rid, q.id);
        spans.add("server", "request", q.due, end, wspan, q.id, rid);
      }
    }
    reqs_.clear();
    return w;
  }

  /// Stops the server and adds the scheduler's lifetime counters.
  void stop_into(Counters& c) {
    server_->stop();
    const bots::rt::WorkerStats s = sched_->stats().total;
    tally_.check(s.tasks_executed + s.tasks_discarded == s.tasks_deferred,
                 "server: executed + discarded != deferred");
    c.stats += s;
    c.graph_requests += graph_requests_;
  }

 private:
  std::uint64_t run_serial(unsigned c, unsigned v) {
    switch (c) {
      case kFib: return fib_tree(kFibN);
      case kSort: return sort_request(sort_in_[v]);
      case kPairs: return pairs_request(pairs_in_[v]);
      default: {
        Req q;
        LuSlot slot;
        slot.input = &lu_in_[v];
        slot.req = &q;
        rt::DepScope sc;
        lu_build(sc, &slot);
        return q.digest;
      }
    }
  }

  void submit(Req& q) {
    q.id = ++next_id_;
    Req* r = &q;
    rt::SubmitResult res;
    switch (q.cls) {
      case kFib:
        res = server_->submit([r] {
          mark_start(*r);
          r->digest = fib_tree(kFibN);
        });
        break;
      case kSort:
        res = server_->submit([r, in = &sort_in_[q.var]] {
          mark_start(*r);
          r->digest = sort_request(*in);
        });
        break;
      case kPairs:
        res = server_->submit([r, in = &pairs_in_[q.var]] {
          mark_start(*r);
          r->digest = pairs_request(*in);
        });
        break;
      default: {
        LuSlot* s = free_slot();
        s->input = &lu_in_[q.var];
        s->req = r;
        res = server_->submit_graph(
            s->tag, [s](rt::DepScope& sc) { lu_build(sc, s); }, s);
        s->handle = res.handle;
        ++graph_requests_;
      }
    }
    q.handle = res.handle;
  }

  LuSlot* free_slot() {
    for (auto& s : lu_slots_) {
      if (s->handle.done()) return s.get();
    }
    auto& s = lu_slots_.emplace_back(std::make_unique<LuSlot>());
    s->tag = "perfbench.lu." + std::to_string(lu_slots_.size());
    return s.get();
  }

  bool verify(const Req& q, const std::string& where) {
    const bool ok = q.handle.status() == rt::RequestStatus::completed &&
                    q.handle.ledger_balanced() &&
                    q.digest == expected_[q.cls][q.var];
    tally_.check(ok, where + ": request " + std::to_string(q.id) + " (" +
                         kClassName[q.cls] + ") status=" +
                         rt::to_string(q.handle.status()));
    return ok;
  }

  Tally& tally_;
  std::vector<std::uint32_t> sort_in_[kVariants];
  std::vector<std::uint8_t> pairs_in_[kVariants];
  std::vector<double> lu_in_[kVariants];
  std::uint64_t expected_[kClasses][kVariants] = {};
  std::deque<Req> reqs_;
  std::uint64_t next_id_ = 0;
  std::uint64_t graph_requests_ = 0;
  unsigned serial_cpu_ = 0;
  // Declaration order is destruction order reversed: the server (and the
  // graphs it caches, which point into the slots) goes first.
  std::vector<std::unique_ptr<LuSlot>> lu_slots_;
  std::unique_ptr<rt::Scheduler> sched_;
  std::unique_ptr<rt::TaskServer> server_;
};

unsigned server_workers(const Options& opt) {
  return opt.nproc > 1 ? opt.nproc - 1 : 1;
}

}  // namespace

void run_server_open(const Options& opt, Tally& tally, Spans& spans,
                     Samples& setup_s, ServerResult& out, Counters& counters) {
  constexpr int kSetups = 3;
  std::unique_ptr<Harness> h;
  for (int i = 0; i < kSetups; ++i) {
    h.reset();
    const Scope span(spans, "server", "setup");
    const std::int64_t t0 = now_ns();
    h = std::make_unique<Harness>(server_workers(opt), opt.seed, tally);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const Scope root(spans, "server", "server-open");
  Rng rng(opt.seed * 0x2545f4914f6cdd1dULL + 1);
  // The ladder runs twice, and serial references are taken before every
  // window, so each rate and the references sample the whole run rather
  // than one stretch of it that a slow spell on the host could cover.
  constexpr int kPasses = 2;
  const double per_window = opt.seconds / static_cast<double>(std::size(kRates) * kPasses);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const double rps : kRates) {
      h->serial_reference(out, 3);
      out.windows.push_back(h->window(rps, per_window, rng, spans, root.id(), &counters));
    }
  }
  h->stop_into(counters);
}

Window run_server_probe(const Options& opt, Tally& tally, Spans& spans,
                        std::uint64_t parent) {
  Harness h(server_workers(opt), opt.seed + 7, tally);
  Rng rng(opt.seed + 11);
  Window w = h.window(kProbeRps, kProbeSeconds, rng, spans, parent, nullptr);
  Counters ignored;
  h.stop_into(ignored);
  return w;
}

}  // namespace perfbench
