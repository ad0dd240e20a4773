// Partition and heal: split the administrative segment so two GulfStream
// Centrals coexist (one per island, §2.2's partition discussion), then heal
// the segment and watch the AMGs merge under the highest-IP leader and the
// losing Central stand down.
//
//   ./partition_heal
#include <cstdio>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

void show_admin_groups(gs::farm::Farm& farm) {
  const gs::util::VlanId admin = gs::farm::admin_vlan();
  std::printf("  admin AMGs:");
  std::map<gs::util::IpAddress, std::size_t> leaders;
  for (gs::util::AdapterId id : farm.fabric().adapters_in_vlan(admin)) {
    gs::proto::AdapterProtocol* proto = farm.protocol_for(id);
    if (proto != nullptr && proto->is_committed())
      leaders[proto->leader_ip()]++;
  }
  for (const auto& [leader, count] : leaders)
    std::printf("  [leader %s: %zu members]", leader.to_string().c_str(),
                count);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int nodes = static_cast<int>(flags.get_int("nodes", 10, "farm size"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(3);
  params.amg_stable_wait = gs::sim::seconds(1);
  params.gsc_stable_wait = gs::sim::seconds(4);

  gs::farm::Farm farm(sim, gs::farm::FarmSpec::uniform(nodes, 2), params, 3);
  farm.start();
  std::printf("Stabilizing %d nodes...\n", nodes);
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300))) return 1;
  show_admin_groups(farm);
  std::printf("  GSC: %s\n",
              farm.active_central()->self_ip().to_string().c_str());

  // Split the admin VLAN down the middle.
  const gs::util::VlanId admin = gs::farm::admin_vlan();
  auto adapters = farm.fabric().adapters_in_vlan(admin);
  std::vector<gs::util::AdapterId> left(adapters.begin(),
                                        adapters.begin() + nodes / 2);
  std::vector<gs::util::AdapterId> right(adapters.begin() + nodes / 2,
                                         adapters.end());
  std::printf("\n== t=%.0fs: the administrative segment partitions "
              "(%zu | %zu) ==\n",
              gs::sim::to_seconds(sim.now()), left.size(), right.size());
  farm.fabric().partition_vlan(admin, {left, right});

  // Wait for both sides to settle into their own AMGs.
  gs::farm::run_until(sim, sim.now() + gs::sim::seconds(120), [&] {
    std::set<gs::util::IpAddress> leaders;
    for (gs::util::AdapterId id : adapters) {
      gs::proto::AdapterProtocol* proto = farm.protocol_for(id);
      if (proto == nullptr || !proto->is_committed()) return false;
      leaders.insert(proto->leader_ip());
    }
    return leaders.size() == 2;
  });
  show_admin_groups(farm);

  std::size_t active = 0;
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    gs::proto::Central* c = farm.daemon(i).central();
    if (c != nullptr && c->active()) {
      ++active;
      std::printf("  active Central on %s covering %zu adapters\n",
                  c->self_ip().to_string().c_str(),
                  c->known_adapter_count());
    }
  }
  std::printf("  (%zu Centrals active — one per island; only one can reach\n"
              "   the database and switch consoles, §2.2)\n", active);

  std::printf("\n== t=%.0fs: the partition heals ==\n",
              gs::sim::to_seconds(sim.now()));
  farm.fabric().heal_vlan(admin);
  auto merged =
      gs::farm::run_until_converged(farm, sim.now() + gs::sim::seconds(180));
  show_admin_groups(farm);
  if (!merged) {
    std::printf("groups never merged!\n");
    return 1;
  }
  std::printf("  merged at t=%.2fs; GSC: %s (the losing Central stood "
              "down)\n",
              gs::sim::to_seconds(*merged),
              farm.active_central()->self_ip().to_string().c_str());
  return 0;
}
