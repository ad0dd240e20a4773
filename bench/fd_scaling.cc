// E5 — §4.2 AMG scaling: steady-state monitoring load vs group size for
// every failure-detection strategy the paper discusses.
//
//   bi-ring    GulfStream's scheme: 2 heartbeats per member per period.
//   uni-ring   half the traffic, weaker evidence.
//   all-to-all HACMP-style: n-1 heartbeats per member — "a form of
//              heartbeating which scales poorly" (§5).
//   subgroup   §4.2 alternative: rings within small subgroups plus a
//              low-frequency leader poll per subgroup.
//   rand-ping  §4.2 alternative: "a much lower load on the network
//              compared to heartbeating protocols" (ref [9]).
//
// Reported per strategy and group size: frames/s and KiB/s on the segment,
// and frames per member per second — the quantity that decides whether a
// strategy scales.
#include <cstdio>

#include "bench/bench_common.h"
#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

struct Load {
  double frames_per_s = -1;
  double kib_per_s = -1;
  double frames_per_member_s = -1;
};

Load measure(gs::proto::FdKind kind, int nodes, double window_s,
             std::uint64_t seed) {
  gs::sim::Simulator sim;
  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(2);
  params.amg_stable_wait = gs::sim::seconds(1);
  params.gsc_stable_wait = gs::sim::seconds(3);
  params.fd_kind = kind;
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::uniform(nodes, 1), params,
                      seed);
  farm.start();
  if (!gs::farm::run_until_converged(farm, gs::sim::seconds(240))) return {};

  // Settle, then measure a clean steady-state window.
  sim.run_until(sim.now() + gs::sim::seconds(5));
  farm.fabric().reset_load_accounting();
  sim.run_until(sim.now() + gs::sim::seconds(window_s));

  const auto& load = farm.fabric().load(gs::farm::uniform_vlan(0));
  Load out;
  out.frames_per_s = static_cast<double>(load.frames_sent) / window_s;
  out.kib_per_s =
      static_cast<double>(load.bytes_sent) / window_s / 1024.0;
  out.frames_per_member_s = out.frames_per_s / nodes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const double window =
      flags.get_double("seconds", 60.0, "measurement window (simulated)");
  const int max_all2all = static_cast<int>(flags.get_int(
      "max_all2all", 128, "cap for the quadratic all-to-all baseline"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  const std::vector<int> sizes = {4, 8, 16, 32, 64, 128, 256};
  const gs::proto::FdKind kinds[] = {
      gs::proto::FdKind::kBidirectionalRing,
      gs::proto::FdKind::kUnidirectionalRing, gs::proto::FdKind::kAllToAll,
      gs::proto::FdKind::kSubgroupRing, gs::proto::FdKind::kRandomPing};

  struct Job {
    gs::proto::FdKind kind;
    int nodes;
  };
  std::vector<Job> jobs;
  for (gs::proto::FdKind kind : kinds)
    for (int n : sizes) {
      if (kind == gs::proto::FdKind::kAllToAll && n > max_all2all) continue;
      jobs.push_back({kind, n});
    }

  std::vector<Load> results(jobs.size());
  gs::bench::parallel_trials(jobs.size(), [&](std::size_t i) {
    results[i] = measure(jobs[i].kind, jobs[i].nodes, window, 55);
  });

  gs::bench::print_header(
      "Failure-detector scaling — steady-state segment load (Section 4.2)");
  std::printf("heartbeat period 500ms, subgroups of 8 (poll 5s), ping period "
              "1s, %gs window\n\n",
              window);
  std::printf("%11s %6s %14s %12s %18s\n", "strategy", "size", "frames/s",
              "KiB/s", "frames/member/s");
  gs::bench::print_rule(66);
  gs::bench::BenchJson json("fd_scaling");
  json.set("window_s", window);
  json.set("max_all2all", max_all2all);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0 && jobs[i].kind != jobs[i - 1].kind) gs::bench::print_rule(66);
    const Load& load = results[i];
    auto& row = json.add_row("segment_load");
    row.set("strategy", to_string(jobs[i].kind));
    row.set("size", jobs[i].nodes);
    row.set("converged", load.frames_per_s >= 0);
    if (load.frames_per_s < 0) {
      std::printf("%11s %6d %14s\n", to_string(jobs[i].kind), jobs[i].nodes,
                  "no-converge");
      continue;
    }
    row.set("frames_per_s", load.frames_per_s);
    row.set("kib_per_s", load.kib_per_s);
    row.set("frames_per_member_s", load.frames_per_member_s);
    std::printf("%11s %6d %14.1f %12.2f %18.2f\n", to_string(jobs[i].kind),
                jobs[i].nodes, load.frames_per_s, load.kib_per_s,
                load.frames_per_member_s);
  }
  std::printf(
      "\nExpected shape: rings stay constant per member (bi = 2/tau, uni =\n"
      "1/tau); all-to-all grows linearly per member, i.e. quadratically per\n"
      "segment (HACMP, 'scales poorly'); subgroup is bounded by its subgroup\n"
      "size — 2(s-1)/tau per member regardless of group size — plus a tiny\n"
      "poll overhead, trading extra frames for a leader that no longer\n"
      "maintains one giant ring; rand-ping is the cheapest per member at\n"
      "any size (§4.2's 'much lower load' claim).\n");

  // --- Detection quality at fixed size --------------------------------------
  // Ref [9]'s full claim is lower load *at similar detection time*: measure
  // the death-to-removal latency per strategy on a 32-member group.
  gs::bench::print_header(
      "Detection latency at size 32 (load is only half the story)");
  std::printf("%11s %22s\n", "strategy", "death -> removal (s)");
  gs::bench::print_rule(40);
  const int latency_trials = 5;
  for (gs::proto::FdKind kind : kinds) {
    std::vector<double> samples(static_cast<std::size_t>(latency_trials), -1);
    gs::bench::parallel_trials(samples.size(), [&](std::size_t i) {
      gs::sim::Simulator sim;
      gs::proto::Params params;
      params.beacon_phase = gs::sim::seconds(2);
      params.amg_stable_wait = gs::sim::seconds(1);
      params.gsc_stable_wait = gs::sim::seconds(3);
      params.fd_kind = kind;
      gs::farm::Farm farm(sim, gs::farm::FarmSpec::uniform(32, 1), params,
                          700 + i);
      farm.start();
      if (!gs::farm::run_until_converged(farm, gs::sim::seconds(120))) return;
      const gs::util::AdapterId victim = farm.node_adapters(13)[0];
      const gs::util::IpAddress ip = farm.fabric().adapter(victim).ip();
      gs::proto::AdapterProtocol* leader =
          farm.protocol_for(farm.node_adapters(31)[0]);
      const gs::sim::SimTime death = sim.now();
      farm.fabric().set_adapter_health(victim, gs::net::HealthState::kDown);
      auto removed = gs::farm::run_until(
          sim, death + gs::sim::seconds(120),
          [&] { return !leader->committed().contains(ip); },
          gs::sim::milliseconds(10));
      if (removed) samples[i] = gs::sim::to_seconds(*removed - death);
    });
    std::erase(samples, -1.0);
    const auto s = gs::util::Summary::of(samples);
    std::printf("%11s %16.2f ±%.2f\n", to_string(kind), s.mean, s.stddev);
    auto& row = json.add_row("detection_latency_32");
    row.set("strategy", to_string(kind));
    row.set("latency_mean_s", s.mean);
    row.set("latency_stddev_s", s.stddev);
  }
  std::printf(
      "\nExpected: the heartbeat strategies detect within (k+1/2)*tau plus\n"
      "verification (~2.7s here); rand-ping adds the wait until the dead\n"
      "member is randomly probed (a few ping periods) — similar detection\n"
      "time at a fraction of the load, completing ref [9]'s claim.\n");
  json.write();
  return 0;
}
