// Océano's reason for existing, end to end: "a hosting environment which
// can rapidly adjust the resources assigned to each hosted web-site
// (domain) to a dynamically fluctuating workload... Océano reallocates
// servers in short time (minutes) in response to changing workloads" (§1).
//
// A toy autoscaler watches a synthetic per-domain load trace and, whenever
// one domain runs hot while another has slack, asks GulfStream Central to
// move a back-end server between the customer domains (§3.1). GulfStream's
// job is to make each move quiet: re-stabilize both AMGs and suppress every
// failure notification the rewiring causes.
//
//   ./oceano_autoscaler [--hours=1] [--verbose]
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

// Synthetic offered load per domain, normalized to [0, 1]: out-of-phase
// sinusoids plus a flash-crowd spike on domain 0 in the second half hour
// ("peak loads that are orders of magnitude larger than the steady state").
double offered_load(int domain, double t_seconds) {
  const double base = 0.45 + 0.35 * std::sin(t_seconds / 600.0 + domain * 2.1);
  double spike = 0.0;
  if (domain == 0 && t_seconds > 1800 && t_seconds < 2400) spike = 0.45;
  return std::min(1.0, std::max(0.05, base + spike));
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const double hours = flags.get_double("hours", 1.0, "simulated hours");
  const bool verbose = flags.get_bool("verbose", false, "per-tick load dump");
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(3);
  params.amg_stable_wait = gs::sim::seconds(2);
  params.gsc_stable_wait = gs::sim::seconds(5);
  params.move_window = gs::sim::seconds(10);

  // Two customer domains, a pool of back ends initially split 4/4.
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::oceano(2, 2, 4), params, 2001);
  gs::proto::EventLog events(farm.event_bus());
  farm.start();
  std::printf("Stabilizing the hosting farm...\n");
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300))) return 1;
  gs::proto::Central* central = farm.active_central();
  events.clear();  // audit only what happens after stabilization

  // Track which domain each back end currently serves.
  std::map<std::size_t, int> domain_of_backend;
  for (std::size_t idx : farm.nodes_with_role(gs::farm::NodeRole::kBackEnd))
    domain_of_backend[idx] = static_cast<int>(farm.domain_of(idx).value());

  auto backends_in = [&](int domain) {
    std::vector<std::size_t> out;
    for (const auto& [node, dom] : domain_of_backend)
      if (dom == domain) out.push_back(node);
    return out;
  };

  int moves = 0;
  const gs::sim::SimTime end = gs::sim::seconds(hours * 3600.0);
  std::printf("\n%8s %18s %18s %s\n", "time", "domain0 load/cap",
              "domain1 load/cap", "action");
  while (sim.now() < end) {
    sim.run_until(sim.now() + gs::sim::seconds(30));
    const double t = gs::sim::to_seconds(sim.now());

    // Per-domain utilization = offered load / capacity share.
    double util[2];
    for (int d = 0; d < 2; ++d) {
      const double capacity =
          static_cast<double>(backends_in(d).size()) / 8.0 * 2.0;
      util[d] = offered_load(d, t) / std::max(0.125, capacity);
    }
    if (verbose)
      std::printf("%7.0fs %9.2f/%zu %14.2f/%zu\n", t, util[0],
                  backends_in(0).size(), util[1], backends_in(1).size());

    // Policy: if one domain is hot (>90% utilized) and the other has slack
    // (<60%) and more than one server, shift a back end over.
    int hot = util[0] > util[1] ? 0 : 1;
    int cold = 1 - hot;
    if (util[hot] <= 0.9 || util[cold] >= 0.6 ||
        backends_in(cold).size() <= 1)
      continue;

    const std::size_t mover = backends_in(cold).back();
    const gs::util::AdapterId adapter = farm.node_adapters(mover)[1];
    if (!central->move_adapter(
            adapter, gs::farm::internal_vlan(static_cast<std::uint32_t>(hot))))
      continue;
    domain_of_backend[mover] = hot;
    ++moves;
    std::printf("%7.0fs %9.2f/%zu %14.2f/%zu   move back-end-%zu -> domain %d\n",
                t, util[0], backends_in(0).size(), util[1],
                backends_in(1).size(), mover, hot);
  }

  // Settle and audit: every reallocation must have been quiet.
  sim.run_until(sim.now() + gs::sim::seconds(120));
  gs::farm::run_until_converged(farm, sim.now() + gs::sim::seconds(120));
  std::size_t completed = 0, spurious_failures = 0;
  for (const auto& e : events) {
    if (e.kind == gs::proto::FarmEvent::Kind::kMoveCompleted) ++completed;
    if (e.kind == gs::proto::FarmEvent::Kind::kAdapterFailed)
      ++spurious_failures;
  }
  std::printf("\n%.1f simulated hour(s): %d reallocations, %zu completed at "
              "GSC, %zu spurious failure notifications.\n",
              hours, moves, completed, spurious_failures);
  std::printf("Farm %s; verification: %zu inconsistencies.\n",
              farm.converged() ? "converged" : "NOT converged",
              central->verify_now().size());
  return spurious_failures == 0 && farm.converged() ? 0 : 1;
}
