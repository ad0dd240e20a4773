// E6 — §4.2 GulfStream Central scaling.
//
// The design claims: "membership information is sent to GulfStream Central
// only when it changes. In the steady state, no network resources are used
// for group membership information. Further, group leaders typically need
// only report changes in group membership, not the entire membership."
//
// Measured per farm size: reports during initial discovery, reports per
// minute in a quiet steady state (must be ~0), and reports per minute under
// node churn — which scales with the churn rate, not the farm size.
#include <cstdio>

#include "bench/bench_common.h"
#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

struct Result {
  double discovery_reports = -1;
  double steady_per_min = -1;
  double churn_per_min = -1;
};

Result measure(int nodes, double churn_period_s, std::uint64_t seed) {
  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(2);
  params.amg_stable_wait = gs::sim::seconds(1);
  params.gsc_stable_wait = gs::sim::seconds(3);
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::uniform(nodes, 3), params,
                      seed);
  farm.start();
  if (!gs::farm::run_until_converged(farm, gs::sim::seconds(240))) return {};
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300))) return {};

  gs::proto::Central* central = farm.active_central();
  Result out;
  out.discovery_reports = static_cast<double>(central->reports_received());

  // Steady state: one quiet minute.
  const std::uint64_t before_steady = central->reports_received();
  sim.run_until(sim.now() + gs::sim::seconds(60));
  out.steady_per_min =
      static_cast<double>(central->reports_received() - before_steady);

  // Churn: kill/revive a rotating node (never the GSC node, which is the
  // last one) every churn_period for two minutes.
  const std::uint64_t before_churn = central->reports_received();
  gs::util::Rng rng(seed * 31);
  bool down = false;
  std::size_t victim = 0;
  const double churn_minutes = 2.0;
  const auto steps =
      static_cast<int>(churn_minutes * 60.0 / churn_period_s);
  for (int step = 0; step < steps; ++step) {
    if (!down) {
      victim = rng.below(static_cast<std::uint64_t>(nodes) - 1);
      farm.fail_node(victim);
      down = true;
    } else {
      farm.recover_node(victim);
      down = false;
    }
    sim.run_until(sim.now() + gs::sim::seconds(churn_period_s));
  }
  out.churn_per_min =
      static_cast<double>(central->reports_received() - before_churn) /
      churn_minutes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const double churn_period =
      flags.get_double("churn_period", 10.0, "seconds between churn events");
  if (const auto exit_code = flags.finish()) return *exit_code;

  const std::vector<int> sizes = {8, 16, 32, 64, 96};
  std::vector<Result> results(sizes.size());
  gs::bench::parallel_trials(sizes.size(), [&](std::size_t i) {
    results[i] = measure(sizes[i], churn_period, 7);
  });

  gs::bench::print_header(
      "GulfStream Central load — reports received (Section 4.2)");
  std::printf("3 AMGs per farm, churn: one node toggled every %.0fs\n\n",
              churn_period);
  std::printf("%8s %10s %22s %20s\n", "nodes", "adapters",
              "discovery reports", "steady / churn (per min)");
  gs::bench::print_rule(66);
  gs::bench::BenchJson json("gsc_load");
  json.set("churn_period_s", churn_period);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Result& r = results[i];
    auto& row = json.add_row("farms");
    row.set("nodes", sizes[i]);
    row.set("adapters", sizes[i] * 3);
    row.set("converged", r.discovery_reports >= 0);
    if (r.discovery_reports < 0) {
      std::printf("%8d %10d %22s\n", sizes[i], sizes[i] * 3, "no-converge");
      continue;
    }
    row.set("discovery_reports", r.discovery_reports);
    row.set("steady_reports_per_min", r.steady_per_min);
    row.set("churn_reports_per_min", r.churn_per_min);
    std::printf("%8d %10d %22.0f %10.0f / %-8.0f\n", sizes[i], sizes[i] * 3,
                r.discovery_reports, r.steady_per_min, r.churn_per_min);
  }
  std::printf(
      "\nExpected shape: discovery reports grow mildly with size (merges of\n"
      "late starters), steady state is ZERO at every size, and churn load\n"
      "tracks the churn rate (a few delta reports per event), independent\n"
      "of farm size — the property that keeps a single Central viable.\n");
  json.write();
  return 0;
}
