// Dynamic domain reconfiguration (§3.1): Océano moves a server between
// customer domains by rewriting its switch port's VLAN. The moved adapter's
// old AMG sees a death, the new AMG sees a join, and only GulfStream
// Central can put the two together — suppressing the failure notification
// when it initiated the move itself, or flagging an unexpected move (plus a
// database inconsistency) when an operator rewires behind its back.
//
//   ./domain_reconfiguration
#include <cstdio>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

void show_domain_membership(gs::farm::Farm& farm) {
  gs::proto::Central* central = farm.active_central();
  for (int d = 0; d < farm.spec().domains; ++d) {
    std::printf("  domain %d (vlan %u):", d,
                gs::farm::internal_vlan(static_cast<std::uint32_t>(d)).value());
    for (const auto& group : central->groups()) {
      const auto rec = farm.db().adapter_by_ip(group.leader.ip);
      if (!rec || rec->expected_vlan !=
                      gs::farm::internal_vlan(static_cast<std::uint32_t>(d)))
        continue;
      for (gs::util::IpAddress ip : group.members)
        std::printf(" %s", ip.to_string().c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(3);
  params.amg_stable_wait = gs::sim::seconds(1);
  params.gsc_stable_wait = gs::sim::seconds(5);
  params.move_window = gs::sim::seconds(10);

  gs::farm::Farm farm(sim, gs::farm::FarmSpec::oceano(2, 3, 3), params, 11);
  gs::proto::EventLog events(farm.event_bus());
  farm.start();
  std::printf("Stabilizing a 2-domain hosting farm...\n");
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300))) return 1;
  gs::proto::Central* central = farm.active_central();
  std::printf("\nBefore the move:\n");
  show_domain_membership(farm);

  // Customer 1's load spiked: take a back end from domain 0.
  const auto backs = farm.nodes_with_role(gs::farm::NodeRole::kBackEnd);
  std::size_t mover = SIZE_MAX;
  for (std::size_t idx : backs)
    if (farm.domain_of(idx) == gs::util::DomainId(0)) mover = idx;
  const gs::util::AdapterId adapter = farm.node_adapters(mover)[1];
  const gs::util::IpAddress ip = farm.fabric().adapter(adapter).ip();

  std::printf("\n== GSC moves %s (node %zu) from domain 0 to domain 1 ==\n",
              ip.to_string().c_str(), mover);
  const std::size_t before = events.size();
  central->move_adapter(adapter, gs::farm::internal_vlan(1));

  auto done = gs::farm::run_until(sim, sim.now() + gs::sim::seconds(120), [&] {
    return events.count(gs::proto::FarmEvent::Kind::kMoveCompleted) > 0;
  });
  gs::farm::run_until_converged(farm, sim.now() + gs::sim::seconds(60));
  for (std::size_t i = before; i < events.size(); ++i) {
    const auto& e = events.records()[i];
    std::printf("  t=%7.2fs  %-16s %s\n", gs::sim::to_seconds(e.time),
                std::string(to_string(e.kind)).c_str(),
                e.ip.is_unspecified() ? "" : e.ip.to_string().c_str());
  }
  std::printf("  -> move %s; failure notifications suppressed: %s\n",
              done ? "completed" : "TIMED OUT",
              events.count(gs::proto::FarmEvent::Kind::kAdapterFailed) == 0
                  ? "yes"
                  : "NO");

  std::printf("\nAfter the move:\n");
  show_domain_membership(farm);

  // Now an operator rewires a front end at the switch, without telling GSC.
  const auto fronts = farm.nodes_with_role(gs::farm::NodeRole::kFrontEnd);
  std::size_t rogue = SIZE_MAX;
  for (std::size_t idx : fronts)
    if (farm.domain_of(idx) == gs::util::DomainId(1)) rogue = idx;
  const gs::util::AdapterId rogue_adapter = farm.node_adapters(rogue)[1];
  const auto& na = farm.fabric().adapter(rogue_adapter);
  std::printf("\n== operator silently rewires %s to domain 0's VLAN ==\n",
              na.ip().to_string().c_str());
  const std::size_t before2 = events.size();
  farm.fabric().set_port_vlan(na.attached_switch(), na.attached_port(),
                              gs::farm::internal_vlan(0));

  gs::farm::run_until(sim, sim.now() + gs::sim::seconds(120), [&] {
    return events.count(gs::proto::FarmEvent::Kind::kUnexpectedMove) > 0;
  });
  gs::farm::run_until_converged(farm, sim.now() + gs::sim::seconds(60));
  for (std::size_t i = before2; i < events.size(); ++i) {
    const auto& e = events.records()[i];
    std::printf("  t=%7.2fs  %-16s %s\n", gs::sim::to_seconds(e.time),
                std::string(to_string(e.kind)).c_str(), e.detail.c_str());
  }

  // Let the post-churn membership reports drain to Central before judging.
  sim.run_until(sim.now() + gs::sim::seconds(15));

  std::printf("\nVerification against the configuration database:\n");
  for (const auto& finding : central->verify_now())
    std::printf("  [%s] %s\n", std::string(to_string(finding.kind)).c_str(),
                finding.detail.c_str());
  std::printf("(the unexpected move is treated 'as when mismatches are found\n"
              "between the discovered configuration and the database', §3.1)\n");
  return 0;
}
