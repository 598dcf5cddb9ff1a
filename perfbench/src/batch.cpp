// Batch workloads: repeated BOTS kernel runs against their serial references.
//
//   fig3-nproc   the paper's Figure 3: the best (cut-off) version of every
//                kernel at t = nproc on the medium input. Few, coarse tasks:
//                stealing, wake-up, balance and range splitting decide the
//                time; the spawn path is negligible.
//   overhead-t1  the paper's Figure 4 question at t = 1: the no-cut-off
//                `tied` versions on the small input. No thieves, so the
//                spawn/taskwait/descriptor path does all the runtime work.
//
// Every run is verified outside its timed interval (the registry's run()
// times the work and checks afterwards) and its scheduler ledger must
// balance. Kernels run in a seeded order that changes every round, and
// rounds continue until --seconds is as near as whole rounds can get it.
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/registry.hpp"
#include "runtime/rt.hpp"

namespace perfbench {
namespace {

namespace core = bots::core;
namespace rt = bots::rt;

struct Op {
  const core::AppInfo* app;
  std::string version;
};

struct Plan {
  std::vector<Op> ops;
  core::InputClass input;
  unsigned threads;
  int serial_rounds;  ///< rounds that also time the serial references
  int serial_reps;    ///< serial runs per kernel in such a round
  int setups;  ///< set-ups timed for setup_s's median
};

Plan plan_for(const Options& opt) {
  Plan p;
  if (opt.workload == "fig3-nproc") {
    for (const core::AppInfo& app : core::apps()) {
      p.ops.push_back({&app, app.best_version().name});
    }
    p.input = core::InputClass::medium;
    p.threads = opt.nproc;
    // A pass of serial medium runs, most verified against a second serial
    // run, costs as much as two verified parallel rounds: one pass, then
    // parallel rounds while they fit.
    p.serial_rounds = 1;
    p.serial_reps = 1;
    p.setups = 3;
  } else {
    for (const char* name : {"fib", "nqueens", "floorplan", "health", "fft"}) {
      const core::AppInfo* app = core::find_app(name);
      const core::VersionInfo* v = app ? app->find_version("tied") : nullptr;
      if (v == nullptr || v->cutoff != core::AppCutoff::none) {
        throw std::runtime_error(std::string("no no-cut-off tied version of ") + name);
      }
      p.ops.push_back({app, v->name});
    }
    p.input = core::InputClass::small;
    p.threads = 1;
    // Serial small runs take tens of milliseconds, where a noisy neighbour
    // moves a single sample by up to 2x: take several every round.
    p.serial_rounds = 1 << 30;
    p.serial_reps = 3;
    p.setups = 15;  // a few milliseconds each at t = 1
  }
  return p;
}

/// Checks a report: self-verification passed and, for parallel runs, the
/// scheduler's ledger balanced.
void check_report(Tally& tally, const core::RunReport& rep, bool parallel) {
  const std::string what = rep.app + " " + rep.version + " " +
                           core::to_string(rep.input);
  tally.check(rep.verified == core::Verified::ok, what + ": verification");
  if (parallel) {
    const rt::WorkerStats& s = rep.runtime_stats;
    tally.check(s.tasks_executed + s.tasks_discarded == s.tasks_deferred,
                what + ": executed + discarded != deferred");
  }
}

/// Untimed, unverified warm-up: wakes every vCPU and runs the lazy set-up
/// (descriptor pools, grain controllers) before timing starts.
void warm_up(const Plan& p, rt::Scheduler& s) {
  for (int r = 0; r < 2; ++r) {
    for (const Op& op : p.ops) {
      (void)op.app->run(core::InputClass::test, op.version, s, false);
    }
  }
  if (p.threads > 1) {
    for (const Op& op : p.ops) {
      (void)op.app->run(core::InputClass::small, op.version, s, false);
    }
  }
}

}  // namespace

void run_batch(const Options& opt, Tally& tally, Spans& spans,
               Samples& setup_s, std::vector<OpResult>& ops,
               Counters& counters) {
  const Plan p = plan_for(opt);
  std::unique_ptr<rt::Scheduler> sched;
  for (int i = 0; i < p.setups; ++i) {
    sched.reset();
    // At t = 1 the whole set-up is serial: rotate it over the CPUs too.
    std::optional<CpuPin> pin;
    if (p.threads == 1) pin.emplace(static_cast<unsigned>(i));
    const Scope span(spans, "scheduler", "setup");
    const std::int64_t t0 = now_ns();
    sched = make_scheduler(p.threads);
    warm_up(p, *sched);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const Scope root(spans, "kernels", opt.workload);
  ops.clear();
  for (const Op& op : p.ops) ops.push_back({op.app->name, {}, {}, {}, {}});
  std::vector<std::size_t> order(p.ops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(opt.seed);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  // A kernel's serial reference runs right before its measured
  // configuration, so a slow spell on a shared host tends to hit both.
  // Serial runs rotate over the CPUs; at t = 1 the whole round moves, so a
  // kernel's serial and t = 1 runs share a core.
  unsigned serial_cpu = 0;
  for (int round = 0;; ++round) {
    rng.shuffle(order);
    const std::int64_t r0 = now_ns();
    std::int64_t parallel_ns = 0;  // the round's verified parallel runs
    std::optional<CpuPin> round_pin;
    if (p.threads == 1) round_pin.emplace(static_cast<unsigned>(round));
    for (const std::size_t i : order) {
      const Op& op = p.ops[i];
      OpResult& res = ops[i];
      for (int r = 0; round < p.serial_rounds && r < p.serial_reps; ++r) {
        std::optional<CpuPin> pin;
        if (p.threads > 1) pin.emplace(serial_cpu++);
        const Scope span(spans, "kernels", "serial." + res.kind, root.id());
        const core::RunReport rep = op.app->run_serial(p.input);
        check_report(tally, rep, false);
        res.serial_s.push_back(rep.seconds);
        res.serial_metric.push_back(rep.metric);
      }
      const Scope span(spans, "kernels", "parallel." + res.kind, root.id());
      const std::int64_t p0 = now_ns();
      const double cpu0 = process_cpu_s();
      const double main0 = thread_cpu_s();
      const core::RunReport rep = op.app->run(p.input, op.version, *sched, true);
      // The calling thread is worker 0 for the timed work and then runs the
      // serial verification alone, so it counts as busy for the timed
      // interval; the helpers count with the CPU they actually used.
      const double helpers = (process_cpu_s() - cpu0) - (thread_cpu_s() - main0);
      counters.cpu_s += helpers + rep.seconds;
      counters.team_wall_s += rep.seconds * p.threads;
      check_report(tally, rep, true);
      counters.stats += rep.runtime_stats;
      res.measured_s.push_back(rep.seconds);
      res.measured_metric.push_back(rep.metric);
      parallel_ns += now_ns() - p0;
    }
    // Another round (without serial runs once they are done) goes on only
    // if it would overshoot the deadline by less than stopping now falls
    // short of it.
    const std::int64_t now = now_ns();
    const std::int64_t next = round + 1 < p.serial_rounds ? now - r0 : parallel_ns;
    if (now + next - deadline >= deadline - now) break;
  }
}

}  // namespace perfbench
