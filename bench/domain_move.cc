// E7 — §3.1 dynamic domain reconfiguration.
//
// Océano "reallocates servers in short time (minutes) in response to
// changing workloads"; GulfStream must re-stabilize membership after each
// VLAN move and suppress the resulting failure notifications. Measured per
// move: time from the switch-console rewrite until (a) GSC infers the move
// complete and (b) both affected AMGs are stable again; plus the count of
// spurious AdapterFailed events (must be zero for expected moves). A second
// table performs the moves behind GSC's back and reports the unexpected-
// move inference time.
#include <cstdio>

#include "bench/bench_common.h"
#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

using gs::proto::FarmEvent;

struct MoveResult {
  double inference_s = -1;   // console write -> MoveCompleted/UnexpectedMove
  double restabilize_s = -1; // console write -> both AMGs converged
  std::size_t spurious_failures = 0;
};

MoveResult run_moves(bool expected, int moves, std::uint64_t seed,
                     std::vector<double>* per_move_inference) {
  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(2);
  params.amg_stable_wait = gs::sim::seconds(1);
  params.gsc_stable_wait = gs::sim::seconds(3);
  params.move_window = gs::sim::seconds(15);
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::oceano(2, 4, 4, 2, 2), params,
                      seed);
  gs::proto::EventLog events(farm.event_bus());
  farm.start();
  if (!gs::farm::run_until_converged(farm, gs::sim::seconds(120))) return {};
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(180))) return {};
  events.clear();

  MoveResult out;
  out.spurious_failures = 0;

  // Alternate a back-end node's internal adapter between the two domains.
  const auto backs = farm.nodes_with_role(gs::farm::NodeRole::kBackEnd);
  std::size_t mover = backs.front();
  std::uint32_t current_domain = 0;

  double total_restab = 0;
  int completed = 0;
  for (int m = 0; m < moves; ++m) {
    const gs::util::AdapterId adapter = farm.node_adapters(mover)[1];
    const gs::util::IpAddress ip = farm.fabric().adapter(adapter).ip();
    const std::uint32_t target = 1 - current_domain;
    const gs::sim::SimTime start = sim.now();
    const std::size_t events_before = events.size();

    if (expected) {
      if (!farm.active_central()->move_adapter(adapter,
                                               gs::farm::internal_vlan(target)))
        break;
    } else {
      const auto& a = farm.fabric().adapter(adapter);
      farm.fabric().set_port_vlan(a.attached_switch(), a.attached_port(),
                                  gs::farm::internal_vlan(target));
    }
    current_domain = target;

    const FarmEvent::Kind want = expected ? FarmEvent::Kind::kMoveCompleted
                                          : FarmEvent::Kind::kUnexpectedMove;
    auto inferred = gs::farm::run_until(
        sim, start + gs::sim::seconds(180), [&] {
          for (std::size_t i = events_before; i < events.size(); ++i)
            if (events.records()[i].kind == want && events.records()[i].ip == ip)
              return true;
          return false;
        });
    if (!inferred) break;
    per_move_inference->push_back(gs::sim::to_seconds(*inferred - start));

    auto stable = gs::farm::run_until_converged(
        farm, sim.now() + gs::sim::seconds(120));
    if (!stable) break;
    total_restab += gs::sim::to_seconds(*stable - start);
    ++completed;

    for (std::size_t i = events_before; i < events.size(); ++i)
      if (events.records()[i].kind == FarmEvent::Kind::kAdapterFailed &&
          events.records()[i].ip == ip)
        ++out.spurious_failures;

    // If this was an unexpected move, re-align the database so verification
    // noise does not accumulate across iterations.
    if (!expected)
      farm.db().set_expected_vlan(adapter, gs::farm::internal_vlan(target));
    sim.run_until(sim.now() + gs::sim::seconds(5));
  }

  if (completed > 0) out.restabilize_s = total_restab / completed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int moves = static_cast<int>(flags.get_int("moves", 6,
                                                   "moves per scenario"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::bench::print_header(
      "Dynamic domain reconfiguration (Section 3.1) — Oceano farm, "
      "2 domains x (4 front + 4 back)");

  gs::bench::BenchJson json("domain_move");
  json.set("moves_per_scenario", moves);
  for (bool expected : {true, false}) {
    std::vector<double> inference;
    MoveResult result = run_moves(expected, moves, 17, &inference);
    const auto s = gs::util::Summary::of(inference);
    std::printf("\n%s moves (%zu completed):\n",
                expected ? "GSC-initiated (expected)" : "operator (unexpected)",
                inference.size());
    std::printf("  inference time   : %6.2f ±%5.2f s  (%s)\n", s.mean, s.stddev,
                expected ? "console write -> MoveCompleted"
                         : "console write -> UnexpectedMove inferred");
    std::printf("  re-stabilization : %6.2f s mean (both AMGs converged)\n",
                result.restabilize_s);
    std::printf("  spurious AdapterFailed notifications: %zu\n",
                result.spurious_failures);
    auto& row = json.add_row("scenarios");
    row.set("expected", expected);
    row.set("moves_completed", static_cast<std::uint64_t>(inference.size()));
    row.set("inference_mean_s", s.mean);
    row.set("inference_stddev_s", s.stddev);
    row.set("restabilize_mean_s", result.restabilize_s);
    row.set("spurious_failures",
            static_cast<std::uint64_t>(result.spurious_failures));
  }

  std::printf(
      "\nExpected shape: expected moves complete with ZERO failure\n"
      "notifications (suppression, §3.1); unexpected moves are inferred as\n"
      "moves — not deaths — once the rejoin is observed inside the move\n"
      "window; re-stabilization is dominated by heartbeat detection of the\n"
      "departed member plus the beacon/merge of the arriving one.\n");
  json.write();
  return 0;
}
