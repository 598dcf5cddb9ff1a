// perfbench: runs one workload (and, traced, the layer ladder) and
// writes every raw sample as JSON for run.py to reduce.
//
//   perfbench --workload <fig3-nproc|overhead-t1|server-open> --seed <n>
//             --seconds <s> --trace <0|1> --out <raw.json>
//             --spans-out <spans.json>
//
// nproc is the number of CPUs the process may run on.
//
// Exit status: 0 when every operation verified, 1 on any failure, 2 on a
// usage error.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<bots::rt::Scheduler> make_scheduler(unsigned threads,
                                                    bool trace) {
  bots::rt::SchedulerConfig cfg;
  cfg.num_threads = threads;
  cfg.trace = trace;
  cfg.fault_plan.clear();
  cfg.region_deadline_ms = 0;
  cfg.watchdog_ms = 0;
  return std::make_unique<bots::rt::Scheduler>(cfg);
}

CpuPin::CpuPin(unsigned k) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int n = CPU_COUNT(&saved_);
  if (n <= 1) return;
  int want = static_cast<int>(k % static_cast<unsigned>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_) && want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

// ---- JSON writer -----------------------------------------------------------

void Json::sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.back()) std::fputc(',', f_);
  first_.back() = false;
}

Json& Json::key(const std::string& k) {
  sep();
  quoted(k);
  std::fputc(':', f_);
  after_key_ = true;
  return *this;
}

Json& Json::str(const std::string& s) {
  sep();
  quoted(s);
  return *this;
}

void Json::quoted(const std::string& s) {
  std::fputc('"', f_);
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f_, "\\u%04x", c);
      continue;
    }
    if (c == '"' || c == '\\') std::fputc('\\', f_);
    std::fputc(c, f_);
  }
  std::fputc('"', f_);
}

Json& Json::num(double v) {
  sep();
  std::fprintf(f_, "%.17g", v);
  return *this;
}

Json& Json::num(std::uint64_t v) {
  sep();
  std::fprintf(f_, "%" PRIu64, v);
  return *this;
}

Json& Json::begin_obj() {
  sep();
  std::fputc('{', f_);
  first_.push_back(true);
  return *this;
}

Json& Json::end_obj() {
  first_.pop_back();
  std::fputc('}', f_);
  return *this;
}

Json& Json::begin_arr() {
  sep();
  std::fputc('[', f_);
  first_.push_back(true);
  return *this;
}

Json& Json::end_arr() {
  first_.pop_back();
  std::fputc(']', f_);
  return *this;
}

Json& Json::samples(const Samples& v) {
  begin_arr();
  for (const double x : v) num(x);
  return end_arr();
}

Json& Json::sample_map(const std::map<std::string, Samples>& m) {
  begin_obj();
  for (const auto& [k, v] : m) key(k).samples(v);
  return end_obj();
}

namespace {

void write_window(Json& j, const Window& w) {
  j.begin_obj();
  j.key("rps").num(w.rps);
  j.key("seconds").num(w.seconds);
  j.key("sent").num(w.sent);
  j.key("backlog_end").num(w.backlog_end);
  j.key("rejected").num(w.rejected);
  j.key("shed").num(w.shed);
  j.key("deadline_exceeded").num(w.deadline_exceeded);
  j.key("latency_ms").sample_map(w.latency_ms);
  j.key("service_ms").sample_map(w.service_ms);
  j.key("queue_ms").samples(w.queue_ms);
  j.key("lag_ms").samples(w.lag_ms);
  j.key("submit_us").samples(w.submit_us);
  j.end_obj();
}

void write_counters(Json& j, const Counters& c) {
  const bots::rt::WorkerStats& s = c.stats;
  j.begin_obj();
  j.key("tasks_created").num(s.tasks_created);
  j.key("tasks_deferred").num(s.tasks_deferred);
  j.key("tasks_executed").num(s.tasks_executed);
  j.key("tasks_discarded").num(s.tasks_discarded);
  j.key("tasks_if_inlined").num(s.tasks_if_inlined);
  j.key("tasks_cutoff_inlined").num(s.tasks_cutoff_inlined);
  j.key("tasks_stolen").num(s.tasks_stolen);
  j.key("steal_attempts").num(s.steal_attempts);
  j.key("steal_hits").num(s.steals_local_node + s.steals_remote_node);
  j.key("tsc_parked").num(s.tsc_parked);
  j.key("pool_fresh").num(s.pool_fresh);
  j.key("pool_reuse").num(s.pool_reuse);
  j.key("range_tasks").num(s.range_tasks);
  j.key("range_splits").num(s.range_splits);
  j.key("deps_edges").num(s.deps_edges);
  j.key("edges_resolved").num(s.edges_resolved);
  j.key("graphs_recorded").num(s.graphs_recorded);
  j.key("graphs_replayed").num(s.graphs_replayed);
  j.key("graph_requests").num(c.graph_requests);
  j.key("cpu_s").num(c.cpu_s);
  j.key("team_wall_s").num(c.team_wall_s);
  j.end_obj();
}

void write_server(Json& j, const ServerResult& r) {
  j.begin_obj();
  j.key("serial_ms").sample_map(r.serial_ms);
  j.key("windows").begin_arr();
  for (const Window& w : r.windows) write_window(j, w);
  j.end_arr();
  j.end_obj();
}

/// Cost of recording one span, so the traced run can report its own
/// overhead (spans recorded x this cost, against the workload's wall time).
double span_cost_ns() {
  constexpr int kN = 100000;
  Spans probe(true);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kN; ++i) {
    const Scope s(probe, "kernels", "probe");
  }
  return static_cast<double>(now_ns() - t0) / kN;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--out") o.out = v;
    else if (k == "--spans-out") o.spans_out = v;
    else return false;
  }
  const bool known = o.workload == "fig3-nproc" || o.workload == "overhead-t1" ||
                     o.workload == "server-open";
  return argc % 2 == 1 && known && o.seconds > 0 && !o.out.empty() &&
         !o.spans_out.empty();
}

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr, "usage: perfbench --workload <fig3-nproc|overhead-t1|server-open> "
                         "--seed <n> --seconds <s> --trace <0|1> --out <file> "
                         "--spans-out <file>\n");
    return 2;
  }
  opt.nproc = usable_cpus();
  Tally tally;
  Spans spans(opt.trace);
  Samples setup_s;
  std::vector<OpResult> ops;
  ServerResult server;
  Counters counters;
  Ladder ladder;
  double workload_wall_s = 0;
  try {
    const std::int64_t t0 = now_ns();
    if (opt.workload == "server-open") {
      run_server_open(opt, tally, spans, setup_s, server, counters);
    } else {
      run_batch(opt, tally, spans, setup_s, ops, counters);
    }
    workload_wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (opt.trace) run_ladder(opt, tally, spans, ladder);
  } catch (const std::exception& e) {
    tally.check(false, std::string("exception: ") + e.what());
  }

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::perror(opt.out.c_str());
    return 1;
  }
  Json j(f);
  j.begin_obj();
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j.key("ndebug").num(std::uint64_t{1});
#else
  j.key("ndebug").num(std::uint64_t{0});
#endif
  j.key("compiler").str(__VERSION__);
  j.key("workload").str(opt.workload);
  j.key("seed").num(opt.seed);
  j.key("nproc").num(std::uint64_t{opt.nproc});
  j.key("attempted").num(tally.attempted);
  j.key("failed").num(tally.failed);
  j.key("failures").begin_arr();
  for (const std::string& m : tally.messages) j.str(m);
  j.end_arr();
  j.key("setup_s").samples(setup_s);
  j.key("workload_wall_s").num(workload_wall_s);
  j.key("ops").begin_arr();
  for (const OpResult& op : ops) {
    j.begin_obj();
    j.key("kind").str(op.kind);
    j.key("serial_s").samples(op.serial_s);
    j.key("serial_metric").samples(op.serial_metric);
    j.key("measured_s").samples(op.measured_s);
    j.key("measured_metric").samples(op.measured_metric);
    j.end_obj();
  }
  j.end_arr();
  j.key("server");
  write_server(j, server);
  j.key("counters");
  write_counters(j, counters);
  if (opt.trace) {
    j.key("ladder").begin_obj();
    j.key("series").sample_map(ladder.series);
    j.key("scalars").begin_obj();
    for (const auto& [k, v] : ladder.scalars) j.key(k).num(v);
    j.end_obj();
    j.key("probe");
    ServerResult probe;
    probe.windows.push_back(ladder.probe);
    write_server(j, probe);
    j.end_obj();
    j.key("span_cost_ns").num(span_cost_ns());
    j.key("spans_recorded").num(static_cast<std::uint64_t>(spans.log().size()));
  }
  j.end_obj();
  std::fputc('\n', f);
  std::fclose(f);

  if (opt.trace) {
    std::FILE* sf = std::fopen(opt.spans_out.c_str(), "w");
    if (sf == nullptr) {
      std::perror(opt.spans_out.c_str());
      return 1;
    }
    Json sj(sf);
    sj.begin_arr();
    for (const Span& s : spans.log()) {
      sj.begin_obj();
      sj.key("layer").str(s.layer);
      sj.key("name").str(s.name);
      sj.key("start_ns").num(static_cast<std::uint64_t>(s.start_ns));
      sj.key("end_ns").num(static_cast<std::uint64_t>(s.end_ns));
      sj.key("id").num(s.id);
      sj.key("parent").num(s.parent);
      sj.key("request").num(s.request);
      sj.end_obj();
    }
    sj.end_arr();
    std::fputc('\n', sf);
    std::fclose(sf);
  }
  return tally.failed == 0 ? 0 : 1;
}
