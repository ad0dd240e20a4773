// E9 (ablation) — sizing GulfStream Central's move-inference window.
//
// The window is this design's one genuinely new knob (the paper describes
// the inference but not its timing), so we ablate it: Central holds each
// failure notification for `move_window` hoping a rejoin reveals a domain
// move (§3.1). Too short and operator moves surface as spurious deaths; the
// cost of longer windows is a delayed failure notification for adapters
// that really died. This bench sweeps the window and reports both sides of
// the trade-off, locating the knee.
#include <cstdio>

#include "bench/bench_common.h"
#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

using gs::proto::FarmEvent;

gs::proto::Params base_params(double window_s) {
  gs::proto::Params p;
  p.beacon_phase = gs::sim::seconds(2);
  p.amg_stable_wait = gs::sim::seconds(1);
  p.gsc_stable_wait = gs::sim::seconds(3);
  p.move_window = gs::sim::seconds(window_s);
  return p;
}

// Unexpected operator move: was it inferred as a move (good) or reported as
// an adapter failure (bad)?
struct MoveOutcome {
  bool inferred_as_move = false;
  bool reported_as_death = false;
};

MoveOutcome run_move(double window_s, std::uint64_t seed) {
  gs::sim::Simulator sim;
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::oceano(2, 3, 3),
                      base_params(window_s), seed);
  gs::proto::EventLog events(farm.event_bus());
  farm.start();
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(180))) return {};
  events.clear();

  const auto backs = farm.nodes_with_role(gs::farm::NodeRole::kBackEnd);
  std::size_t victim = SIZE_MAX;
  for (std::size_t idx : backs)
    if (farm.domain_of(idx) == gs::util::DomainId(0)) victim = idx;
  const gs::util::AdapterId moved = farm.node_adapters(victim)[1];
  const gs::util::IpAddress ip = farm.fabric().adapter(moved).ip();
  const auto& adapter = farm.fabric().adapter(moved);
  farm.fabric().set_port_vlan(adapter.attached_switch(),
                              adapter.attached_port(),
                              gs::farm::internal_vlan(1));

  sim.run_until(sim.now() + gs::sim::seconds(90 + 2 * window_s));
  MoveOutcome out;
  for (const FarmEvent& e : events) {
    if (e.kind == FarmEvent::Kind::kUnexpectedMove && e.ip == ip)
      out.inferred_as_move = true;
    if (e.kind == FarmEvent::Kind::kAdapterFailed && e.ip == ip)
      out.reported_as_death = true;
  }
  return out;
}

// True death: how long from NIC failure to the external AdapterFailed?
double run_death(double window_s, std::uint64_t seed) {
  gs::sim::Simulator sim;
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::uniform(8, 2),
                      base_params(window_s), seed);
  gs::proto::EventLog events(farm.event_bus());
  farm.start();
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(120))) return -1;
  events.clear();

  const gs::util::AdapterId victim = farm.node_adapters(3)[1];
  const gs::util::IpAddress ip = farm.fabric().adapter(victim).ip();
  const gs::sim::SimTime death = sim.now();
  farm.fabric().set_adapter_health(victim, gs::net::HealthState::kDown);

  auto reported = gs::farm::run_until(
      sim, death + gs::sim::seconds(120 + 2 * window_s), [&] {
        for (const FarmEvent& e : events)
          if (e.kind == FarmEvent::Kind::kAdapterFailed && e.ip == ip)
            return true;
        return false;
      });
  if (!reported) return -1;
  return gs::sim::to_seconds(*reported - death);
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int trials = static_cast<int>(flags.get_int("trials", 5, "seeds"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  const std::vector<double> windows = {0.5, 2.0, 5.0, 10.0, 20.0};

  gs::bench::print_header(
      "Ablation — GSC move-inference window (Section 3.1)");
  std::printf("%10s %26s %26s\n", "window", "unexpected move inferred",
              "true-death notify latency");
  std::printf("%10s %13s %12s %26s\n", "", "as move", "as death", "");
  gs::bench::print_rule(66);

  gs::bench::BenchJson json("ablation_move_window");
  json.set("trials", trials);
  for (double window : windows) {
    int moves = 0, deaths = 0;
    std::vector<MoveOutcome> outcomes(static_cast<std::size_t>(trials));
    gs::bench::parallel_trials(outcomes.size(), [&](std::size_t i) {
      outcomes[i] = run_move(window, 500 + i);
    });
    for (const MoveOutcome& o : outcomes) {
      if (o.inferred_as_move) ++moves;
      if (o.reported_as_death) ++deaths;
    }

    std::vector<double> latencies(static_cast<std::size_t>(trials), -1);
    gs::bench::parallel_trials(latencies.size(), [&](std::size_t i) {
      latencies[i] = run_death(window, 600 + i);
    });
    std::erase(latencies, -1.0);
    const auto s = gs::util::Summary::of(latencies);
    std::printf("%9.1fs %10d/%-2d %9d/%-2d %20.2f ±%.2fs\n", window, moves,
                trials, deaths, trials, s.mean, s.stddev);
    auto& row = json.add_row("windows");
    row.set("window_s", window);
    row.set("moves_inferred", moves);
    row.set("moves_as_death", deaths);
    row.set("death_notify_mean_s", s.mean);
    row.set("death_notify_stddev_s", s.stddev);
  }

  std::printf(
      "\nExpected shape: below the ~3-6s it takes a moved adapter to reset,\n"
      "beacon, and resurface in its destination AMG, the window is too short\n"
      "and operator moves leak out as spurious deaths; above it every move\n"
      "is inferred. True-death latency = detection + recommit + report +\n"
      "window, i.e. grows linearly with the window — pick the knee.\n");
  json.write();
  return 0;
}
