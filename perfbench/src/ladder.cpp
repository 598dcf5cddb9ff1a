// The per-layer ladder: each runtime mechanism timed on its own through its
// public entry point, in the style of the EPCC / omp_ubench microbenchmarks
// (time a construct in a loop, keep every sample so the mean and the tail
// are both reported). Scheduler rungs run at t = 1 and t = nproc; a sample
// of the fine-grain rungs is the mean over kBatch back-to-back constructs so
// the clock read stays out of the per-construct figure.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/registry.hpp"
#include "runtime/rt.hpp"

namespace perfbench {
namespace {

namespace core = bots::core;
namespace rt = bots::rt;

constexpr int kBatch = 32;

double since(std::int64_t t0, int per = 1) {
  return static_cast<double>(now_ns() - t0) / per;
}

Samples fork_join(rt::Scheduler& s, int n) {
  for (int i = 0; i < n / 10; ++i) s.run_single([] {});
  Samples out;
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    s.run_single([] {});
    out.push_back(since(t0));
  }
  return out;
}

Samples spawn_taskwait(rt::Scheduler& s, int n) {
  Samples out;
  s.run_single([&out, n] {
    for (int i = 0; i < n; ++i) {
      const std::int64_t t0 = now_ns();
      for (int k = 0; k < kBatch; ++k) {
        rt::spawn([] {});
        rt::taskwait();
      }
      out.push_back(since(t0, kBatch));
    }
  });
  return out;
}

Samples inline_spawn(rt::Scheduler& s, int n) {
  Samples out;
  s.run_single([&out, n] {
    for (int i = 0; i < n; ++i) {
      const std::int64_t t0 = now_ns();
      for (int k = 0; k < kBatch; ++k) rt::spawn_if(false, [] {});
      out.push_back(since(t0, kBatch));
    }
  });
  return out;
}

/// ns per iteration of a spawn_range over a cheap body; every index must be
/// written exactly once.
Samples range(rt::Scheduler& s, int reps, Tally& tally) {
  constexpr std::int64_t kIters = 1 << 16;
  std::vector<std::uint32_t> out(kIters);
  Samples ns;
  for (int r = 0; r < reps; ++r) {
    std::fill(out.begin(), out.end(), 0u);
    s.run_single([&] {
      const std::int64_t t0 = now_ns();
      rt::spawn_range(0, kIters, 1, [&out](std::int64_t i) {
        out[static_cast<std::size_t>(i)] += static_cast<std::uint32_t>(i) + 1u;
      });
      rt::taskwait();
      ns.push_back(since(t0, kIters));
    });
    bool ok = true;
    for (std::int64_t i = 0; i < kIters; ++i) {
      ok = ok && out[static_cast<std::size_t>(i)] == static_cast<std::uint32_t>(i) + 1u;
    }
    tally.check(ok, "ladder: spawn_range covered every index once");
  }
  return ns;
}

/// ns per dependence edge along a chain of inout tasks on one address.
Samples edges(rt::Scheduler& s, int reps, Tally& tally) {
  constexpr int kChain = 2048;
  std::uint64_t expect = 0;
  for (int i = 0; i < kChain; ++i) expect = expect * 31 + static_cast<std::uint64_t>(i);
  Samples ns;
  s.run_single([&] {
    for (int r = 0; r < reps; ++r) {
      std::uint64_t x = 0;
      const std::int64_t t0 = now_ns();
      {
        rt::DepScope sc;
        for (int i = 0; i < kChain; ++i) {
          sc.spawn({rt::inout(x)}, [&x, i] { x = x * 31 + static_cast<std::uint64_t>(i); });
        }
        sc.wait();
      }
      ns.push_back(since(t0, kChain - 1));
      tally.check(x == expect, "ladder: dependence chain ran in order");
    }
  });
  return ns;
}

/// Record and replay cost per task of a G x G wavefront graph. Alternating
/// the key forces a re-record; repeating it replays the frozen graph.
void graph(rt::Scheduler& s, int reps, Tally& tally, Samples& record,
           Samples& replay) {
  constexpr int kG = 32;
  constexpr int kW = kG + 1;  // row/column 0 is a fixed border
  using Grid = std::vector<std::uint64_t>;
  Grid grids[2] = {Grid(kW * kW, 1), Grid(kW * kW, 1)};
  Grid ref(kW * kW, 1);
  for (int i = 1; i < kW; ++i) {
    for (int j = 1; j < kW; ++j) {
      ref[i * kW + j] = ref[(i - 1) * kW + j] * 3 + ref[i * kW + j - 1];
    }
  }
  auto build = [](Grid* g) {
    return [g](rt::DepScope& sc) {
      std::uint64_t* c = g->data();
      for (int i = 1; i < kW; ++i) {
        for (int j = 1; j < kW; ++j) {
          sc.spawn({rt::in(c[(i - 1) * kW + j]), rt::in(c[i * kW + j - 1]),
                    rt::inout(c[i * kW + j])},
                   [c, i, j] { c[i * kW + j] = c[(i - 1) * kW + j] * 3 + c[i * kW + j - 1]; });
        }
      }
    };
  };
  rt::TaskGraph g;
  auto one = [&](int which, Samples& into) {
    Grid& grid = grids[which];
    for (int i = 1; i < kW; ++i) {
      for (int j = 1; j < kW; ++j) grid[i * kW + j] = 0;
    }
    s.run_single([&] {
      const std::int64_t t0 = now_ns();
      rt::run_graph_region(s, g, &grid, build(&grid));
      into.push_back(since(t0, kG * kG));
    });
    tally.check(grid == ref, "ladder: taskgraph result");
  };
  for (int r = 0; r < reps; ++r) one(r % 2, record);
  for (int r = 0; r < reps; ++r) one((reps - 1) % 2, replay);
}

}  // namespace

void run_ladder(const Options& opt, Tally& tally, Spans& spans, Ladder& out) {
  const Scope root(spans, "ladder", "ladder");
  auto& S = out.series;
  for (const unsigned t : {1u, opt.nproc}) {
    const std::string tag = t == 1 ? ".t1" : ".tN";
    auto s = make_scheduler(t);
    {
      const Scope span(spans, "scheduler", "fork_join" + tag, root.id());
      S["fork_join_ns" + tag] = fork_join(*s, 3000);
    }
    {
      const Scope span(spans, "scheduler", "spawn_taskwait" + tag, root.id());
      S["spawn_taskwait_ns" + tag] = spawn_taskwait(*s, 3000);
    }
    {
      const Scope span(spans, "scheduler", "inline_spawn" + tag, root.id());
      S["inline_spawn_ns" + tag] = inline_spawn(*s, 3000);
    }
    {
      const Scope span(spans, "worksharing", "range" + tag, root.id());
      S["range_ns_per_iter" + tag] = range(*s, 40, tally);
    }
  }
  {
    auto s = make_scheduler(1);
    {
      const Scope span(spans, "dependency", "edges", root.id());
      S["edge_ns"] = edges(*s, 30, tally);
    }
    const Scope span(spans, "taskgraph", "record_replay", root.id());
    graph(*s, 30, tally, S["record_ns_per_task"], S["replay_ns_per_task"]);
  }
  {
    // Trace cost in the same run: fib `tied` at t = 1 with the runtime's
    // event rings disarmed and armed, alternating. The disarmed runs also
    // give the t = 1 inflation the spawn ladder should explain.
    const Scope span(spans, "trace", "armed_vs_disarmed", root.id());
    const core::AppInfo* fib = core::find_app("fib");
    auto off = make_scheduler(1);
    auto on = make_scheduler(1, true);
    for (int r = 0; r < 40; ++r) {
      for (rt::Scheduler* s : {off.get(), on.get()}) {
        const core::RunReport rep = fib->run(core::InputClass::test, "tied", *s, true);
        tally.check(rep.verified == core::Verified::ok, "ladder: fib tied verification");
        const rt::WorkerStats& st = rep.runtime_stats;
        tally.check(st.tasks_executed + st.tasks_discarded == st.tasks_deferred,
                    "ladder: fib tied executed + discarded != deferred");
        const double ns = rep.seconds * 1e9 / static_cast<double>(st.tasks_created);
        S[s == on.get() ? "fib_armed_ns_per_task" : "fib_disarmed_ns_per_task"].push_back(ns);
        if (s == off.get()) {
          S["fib_t1_s"].push_back(rep.seconds);
          out.scalars["fib_tasks_deferred"] = static_cast<double>(st.tasks_deferred);
          out.scalars["fib_tasks_inlined"] =
              static_cast<double>(st.tasks_if_inlined + st.tasks_cutoff_inlined);
        }
      }
      const core::RunReport ser = fib->run_serial(core::InputClass::test);
      tally.check(ser.verified == core::Verified::ok, "ladder: fib serial verification");
      S["fib_serial_s"].push_back(ser.seconds);
    }
  }
  {
    const Scope span(spans, "kernels", "serial_test_inputs", root.id());
    for (const core::AppInfo& app : core::apps()) {
      for (int r = 0; r < 5; ++r) {
        const core::RunReport rep = app.run_serial(core::InputClass::test);
        tally.check(rep.verified == core::Verified::ok, "ladder: " + app.name + " serial");
        S["serial_ms." + app.name].push_back(rep.seconds * 1e3);
      }
    }
  }
  {
    const Scope span(spans, "server", "probe", root.id());
    out.probe = run_server_probe(opt, tally, spans, span.id());
  }
}

}  // namespace perfbench
