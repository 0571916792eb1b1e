// paper_fig8 — the paper's replicate-until-balanced loop (Figure 8: the
// 80/20 locality model with dead nodes) at m = 14 on one thread, driven
// through sim::run_replication_experiment with baseline::lesslog_policy.
//
// One repetition runs the fixed cell set twice: first under a policy that
// declines at once (ID space, demand and the first load solve: the set-up
// pass), then under LessLog until every cell is balanced.
#include <optional>

#include "common.hpp"
#include "lesslog/baseline/policy.hpp"
#include "lesslog/sim/experiment.hpp"

namespace perfbench {

namespace {

std::vector<lesslog::sim::ExperimentConfig> fig8_cells(std::uint64_t seed) {
  std::vector<lesslog::sim::ExperimentConfig> cells;
  std::uint64_t index = 0;
  for (const double dead : {0.1, 0.2, 0.3}) {
    for (const double rate : {5000.0, 10000.0, 15000.0, 20000.0}) {
      for (int k = 0; k < 4; ++k) {
        lesslog::sim::ExperimentConfig cfg;
        cfg.m = 14;
        cfg.b = 0;
        cfg.workload = lesslog::sim::WorkloadKind::kLocality;
        cfg.dead_fraction = dead;
        cfg.total_rate = rate;
        cfg.capacity = 100.0;
        cfg.seed = mix(seed, ++index);
        cells.push_back(cfg);
      }
    }
  }
  return cells;
}

}  // namespace

Result run_paper_fig8(const Options& o) {
  using namespace lesslog;
  Result res;
  const std::vector<sim::ExperimentConfig> cells = fig8_cells(o.seed);
  const sim::PlacementFn decline =
      [](const sim::PlacementContext&) -> std::optional<core::Pid> {
    return std::nullopt;
  };
  const sim::PlacementFn lesslog_rule = baseline::lesslog_policy();
  const sim::PlacementFn traced_rule =
      [&lesslog_rule](const sim::PlacementContext& ctx) {
        const Scope span("core.place");
        return lesslog_rule(ctx);
      };
  const sim::PlacementFn& policy = o.trace ? traced_rule : lesslog_rule;

  std::vector<double> setups;
  Segments run;  // one segment per cell of the balance pass
  std::vector<double> replicas_per_rep;
  std::vector<double> hops_per_rep;
  std::int64_t ok_cells = 0;
  std::int64_t all_cells = 0;

  const CpuRotation cpus;
  const int reps = repeat_for(o.seconds, 2, [&](int rep) {
    cpus.pin(rep);
    const auto rid = static_cast<std::uint64_t>(rep + 1);
    Clock::time_point t0 = Clock::now();
    {
      const Scope pass("sim.setup_pass", rid);
      for (const sim::ExperimentConfig& cfg : cells) {
        const Scope cell("sim.cell_setup");
        (void)sim::run_replication_experiment(cfg, decline);
      }
    }
    setups.push_back(since(t0));

    double replicas = 0.0;
    double hops = 0.0;
    run.start_rep();
    {
      const Scope pass("sim.balance_pass", rid);
      for (const sim::ExperimentConfig& cfg : cells) {
        const Scope cell("sim.cell");
        const Clock::time_point tc = Clock::now();
        const sim::ExperimentResult r =
            sim::run_replication_experiment(cfg, policy);
        run.add_since(tc);
        replicas += r.replicas_created;
        hops += r.mean_hops;
        ++all_cells;
        if (r.balanced || r.irreducible_overload) ++ok_cells;
      }
    }
    replicas_per_rep.push_back(replicas);
    hops_per_rep.push_back(hops);
  });

  const double n_cells = static_cast<double>(cells.size());
  for (int i = 1; i < reps; ++i) {
    const auto k = static_cast<std::size_t>(i);
    res.check(replicas_per_rep[k] == replicas_per_rep[0] &&
                  hops_per_rep[k] == hops_per_rep[0],
              "paper_fig8: repetitions of the same cells disagree");
  }
  res.check(ok_cells == all_cells,
            "paper_fig8: a cell ended neither balanced nor irreducible");
  res.attempted = all_cells;
  res.failed = all_cells - ok_cells;

  const double replicas = replicas_per_rep[0];
  res.e2e["setup_s"] = percentile(setups, 50.0);
  res.e2e["run_s"] = run.best_sum();
  res.layer["run_median_s"] = run.median_total();
  res.e2e["ok_frac"] =
      static_cast<double>(ok_cells) / static_cast<double>(all_cells);
  res.e2e["fresh_frac"] = 1.0;  // no file versions in the balance loop
  res.e2e["peak_rss_mb"] = peak_rss_mb_self();
  res.e2e["msgs_per_op"] = hops_per_rep[0] / n_cells;
  res.e2e["copies"] = replicas + n_cells;

  res.det["copies"] = replicas + n_cells;
  res.det["hops_sum"] = hops_per_rep[0];

  res.layer["core.replicas"] = replicas;
  if (o.trace) {
    const std::vector<double> place = tracer().durations("core.place");
    const double place_total = tracer().total("core.place");
    res.layer["core.place_us"] =
        place.empty() ? 0.0
                      : place_total / static_cast<double>(place.size()) * 1e6;
    res.layer["sim.cell_setup_ms"] =
        percentile(tracer().durations("sim.cell_setup"), 50.0) * 1e3;
    const double place_per_rep = place_total / static_cast<double>(reps);
    res.layer["sim.solver_us_per_copy"] =
        replicas > 0.0
            ? (run.median_total() - percentile(setups, 50.0) - place_per_rep) /
                  replicas * 1e6
            : 0.0;
  }
  res.info["cells"] = std::to_string(cells.size());
  res.info["reps"] = std::to_string(reps);
  return res;
}

}  // namespace perfbench
