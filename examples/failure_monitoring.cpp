// Failure monitoring: inject adapter, node, and switch failures into a
// running farm and watch GulfStream detect, verify, correlate, and report
// them through Central (§3's event-correlation function).
//
//   ./failure_monitoring [--nodes=12]
#include <cstdio>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

void drain_events(const gs::proto::EventLog& log, std::size_t& cursor) {
  const auto& events = log.records();
  for (; cursor < events.size(); ++cursor) {
    const gs::proto::FarmEvent& e = events[cursor];
    std::printf("  t=%7.2fs  %-18s", gs::sim::to_seconds(e.time),
                std::string(to_string(e.kind)).c_str());
    if (!e.ip.is_unspecified()) std::printf("  %s", e.ip.to_string().c_str());
    if (e.node.valid()) std::printf("  node%u", e.node.value());
    if (e.switch_id.valid()) std::printf("  switch%u", e.switch_id.value());
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int nodes = static_cast<int>(flags.get_int("nodes", 12, "farm size"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(3);
  params.amg_stable_wait = gs::sim::seconds(2);
  params.gsc_stable_wait = gs::sim::seconds(5);
  params.move_window = gs::sim::seconds(5);

  // Small switches so whole racks share fate (switch correlation).
  gs::farm::FarmSpec spec = gs::farm::FarmSpec::uniform(nodes, 2);
  spec.switch_ports = 6;  // three 2-adapter nodes per switch
  gs::farm::Farm farm(sim, spec, params, 7);
  gs::proto::EventLog log(farm.event_bus());
  farm.start();

  std::printf("Waiting for the farm (%d nodes, 2 adapters each) to "
              "stabilize...\n", nodes);
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300))) {
    std::printf("farm never stabilized\n");
    return 1;
  }
  std::size_t cursor = 0;
  drain_events(log, cursor);

  // --- Scenario 1: one NIC dies -------------------------------------------
  std::printf("\n== t=%.0fs: adapter 1 of node 2 fails (one NIC, node "
              "stays up) ==\n", gs::sim::to_seconds(sim.now()));
  farm.fabric().set_adapter_health(farm.node_adapters(2)[1],
                                   gs::net::HealthState::kDown);
  sim.run_until(sim.now() + gs::sim::seconds(30));
  drain_events(log, cursor);
  std::printf("  (no node-failed event: the other adapter still answers)\n");

  // --- Scenario 2: a whole node dies --------------------------------------
  std::printf("\n== t=%.0fs: node 4 loses power ==\n",
              gs::sim::to_seconds(sim.now()));
  farm.fail_node(4);
  sim.run_until(sim.now() + gs::sim::seconds(30));
  drain_events(log, cursor);

  // --- Scenario 3: node 4 comes back ---------------------------------------
  std::printf("\n== t=%.0fs: node 4 boots again ==\n",
              gs::sim::to_seconds(sim.now()));
  farm.recover_node(4);
  sim.run_until(sim.now() + gs::sim::seconds(40));
  drain_events(log, cursor);

  // --- Scenario 4: a switch dies --------------------------------------------
  std::printf("\n== t=%.0fs: switch 0 fails (takes its whole rack down) ==\n",
              gs::sim::to_seconds(sim.now()));
  farm.fabric().fail_switch(gs::util::SwitchId(0));
  sim.run_until(sim.now() + gs::sim::seconds(45));
  drain_events(log, cursor);

  std::printf("\n== t=%.0fs: switch 0 recovers ==\n",
              gs::sim::to_seconds(sim.now()));
  farm.fabric().recover_switch(gs::util::SwitchId(0));
  sim.run_until(sim.now() + gs::sim::seconds(60));
  drain_events(log, cursor);

  gs::proto::Central* central = farm.active_central();
  std::printf("\nFinal state: %zu/%zu adapters alive, farm %s\n",
              central->alive_adapter_count(), central->known_adapter_count(),
              farm.converged() ? "converged" : "NOT converged");
  return 0;
}
