// Scripted scenario runner: replay an operator-action script against a
// simulated farm and stream GulfStream Central's events.
//
//   ./scripted_scenario --script=ops.txt [--nodes=10] [--adapters=2]
//
// Without --script a built-in demonstration script runs. Script grammar
// (see src/farm/script.h):
//
//   at 30s  fail-node 3
//   at 60s  recover-node 3
//   at 90s  fail-switch 0
//   ...
#include <cstdio>
#include <fstream>
#include <sstream>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "farm/script.h"
#include "util/flags.h"

namespace {

constexpr const char* kDemoScript = R"(# built-in demo: a rough day in the farm
at 30s   fail-adapter 3
at 60s   recover-adapter 3
at 90s   fail-node 2
at 130s  recover-node 2
at 170s  fail-switch 0
at 215s  recover-switch 0
at 260s  verify
)";

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const std::string script_path =
      flags.get_string("script", "", "script file (empty = built-in demo)");
  const int nodes = static_cast<int>(flags.get_int("nodes", 10, "farm size"));
  const int adapters =
      static_cast<int>(flags.get_int("adapters", 2, "adapters per node"));
  const double horizon =
      flags.get_double("horizon", 60.0, "extra seconds after the last action");
  if (const auto exit_code = flags.finish()) return *exit_code;

  std::string text = kDemoScript;
  if (!script_path.empty()) {
    std::ifstream in(script_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  const auto parsed = gs::farm::parse_script(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "script error on line %d: %s\n", parsed.error_line,
                 parsed.error.c_str());
    return 1;
  }
  std::printf("Loaded %zu actions.\n", parsed.actions.size());

  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(3);
  params.amg_stable_wait = gs::sim::seconds(2);
  params.gsc_stable_wait = gs::sim::seconds(5);
  gs::farm::FarmSpec spec = gs::farm::FarmSpec::uniform(nodes, adapters);
  spec.switch_ports = 3 * adapters;  // a few nodes per switch
  gs::farm::Farm farm(sim, spec, params, 4);
  gs::proto::EventLog events(farm.event_bus());
  farm.start();
  if (!gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300))) {
    std::fprintf(stderr, "farm never stabilized\n");
    return 1;
  }
  std::printf("Farm stable at t=%.2fs (%d nodes, %zu switches). Running "
              "script...\n\n",
              gs::sim::to_seconds(sim.now()), nodes,
              farm.fabric().switch_count());

  gs::farm::ScriptRun run;
  gs::farm::schedule_script(farm, parsed.actions, &run);

  const gs::sim::SimTime end =
      (parsed.actions.empty() ? sim.now() : parsed.actions.back().at) +
      gs::sim::seconds(horizon);
  std::size_t cursor = events.size();
  while (sim.now() < end) {
    sim.run_until(sim.now() + gs::sim::seconds(1));
    for (; cursor < events.size(); ++cursor) {
      const auto& e = events.records()[cursor];
      std::printf("  t=%7.2fs  %-20s %s %s\n", gs::sim::to_seconds(e.time),
                  std::string(to_string(e.kind)).c_str(),
                  e.ip.is_unspecified() ? "" : e.ip.to_string().c_str(),
                  e.detail.c_str());
    }
  }

  std::printf("\nScript done: %zu actions executed, %zu failed.\n",
              run.executed, run.failed);
  std::printf("Farm %s; GSC sees %zu/%zu adapters alive.\n",
              farm.converged() ? "converged" : "NOT converged",
              farm.active_central() ? farm.active_central()->alive_adapter_count()
                                    : 0,
              farm.active_central() ? farm.active_central()->known_adapter_count()
                                    : 0);
  return farm.converged() ? 0 : 1;
}
