// E3 — §4.1 loss analysis: "if p is the probability of losing a message,
// the probability of losing k BEACON messages is p^k. In this case, an
// initial topology will still be formed in time; however, some nodes will
// be missing."
//
// Measures the fraction of adapters missing from the discovery leader's
// FIRST committed view as a function of the segment loss probability, and
// overlays the analytic p^k (k = beacons sent during the phase). Measured
// can exceed analytic because two-phase-commit traffic is lossy too (a
// member whose Prepare/Ack exchanges all drop is also excluded) — the paper
// left this distribution "not yet further studied"; this bench studies it.
#include <cstdio>

#include "bench/bench_common.h"
#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

// Fraction of adapters missing from the leader's first committed view.
double run_trial(int nodes, double loss, std::uint64_t seed,
                 const gs::proto::Params& params) {
  gs::sim::Simulator sim;
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::uniform(nodes, 1), params,
                      seed);
  gs::net::ChannelModel lossy;
  lossy.loss_probability = loss;
  for (gs::util::VlanId vlan : farm.vlans())
    farm.fabric().segment(vlan).set_model(lossy);
  farm.start();

  // The discovery winner is the highest IP = the last node's adapter.
  const gs::util::AdapterId winner =
      farm.node_adapters(static_cast<std::size_t>(nodes) - 1)[0];
  gs::proto::AdapterProtocol* proto = farm.protocol_for(winner);
  auto committed = gs::farm::run_until(
      sim, gs::sim::seconds(120), [&] { return proto->is_committed(); },
      gs::sim::milliseconds(20));
  if (!committed) return 1.0;
  const double missing =
      static_cast<double>(nodes) - static_cast<double>(proto->committed().size());
  return missing / static_cast<double>(nodes);
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int nodes = static_cast<int>(flags.get_int("nodes", 40, "farm size"));
  const int trials = static_cast<int>(flags.get_int("trials", 30,
                                                    "seeds per loss rate"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::proto::Params params;
  params.beacon_phase = gs::sim::seconds(5);
  params.beacon_interval = gs::sim::seconds(1);
  params.amg_stable_wait = gs::sim::seconds(2);
  params.gsc_stable_wait = gs::sim::seconds(5);
  // Fixed listen window: disable the start-up noise so k is crisp.
  params.start_skew_max = 0;
  params.beacon_setup_min = params.beacon_setup_max = gs::sim::seconds(1);

  // An adapter beacons once per second for T_b: the winner hears ~k of them.
  const int k = static_cast<int>(params.beacon_phase / params.beacon_interval);

  const std::vector<double> losses = {0.0,  0.05, 0.10, 0.20, 0.30,
                                      0.40, 0.50, 0.60, 0.70};

  std::vector<double> missing(losses.size() * static_cast<std::size_t>(trials));
  gs::bench::parallel_trials(missing.size(), [&](std::size_t i) {
    const double loss = losses[i / static_cast<std::size_t>(trials)];
    const std::uint64_t seed = 42 + i % static_cast<std::size_t>(trials);
    missing[i] = run_trial(nodes, loss, seed, params);
  });

  gs::bench::print_header(
      "Beacon loss — missing nodes in the initial topology (Section 4.1)");
  std::printf("%d nodes, k=%d beacons per phase, %d trials per point\n\n",
              nodes, k, trials);
  std::printf("%8s %18s %14s %16s\n", "loss p", "measured missing",
              "beacons p^k", "+2PC model");
  gs::bench::print_rule(62);
  const int attempts = params.twopc_retries + 1;
  gs::bench::BenchJson json("beacon_loss");
  json.set("nodes", nodes);
  json.set("trials_per_point", trials);
  json.set("beacons_per_phase", k);
  json.set("twopc_attempts", attempts);
  for (std::size_t li = 0; li < losses.size(); ++li) {
    std::vector<double> samples(
        missing.begin() + static_cast<std::ptrdiff_t>(li * static_cast<std::size_t>(trials)),
        missing.begin() + static_cast<std::ptrdiff_t>((li + 1) * static_cast<std::size_t>(trials)));
    const auto s = gs::util::Summary::of(samples);
    const double p = losses[li];
    double beacons = 1.0;
    for (int i = 0; i < k; ++i) beacons *= p;
    // A heard member still misses the first commit if its Prepare/Ack round
    // trip fails on every attempt: (1 - (1-p)^2)^attempts.
    double round_fail = 1.0;
    for (int i = 0; i < attempts; ++i) round_fail *= 1.0 - (1 - p) * (1 - p);
    const double model = beacons + (1.0 - beacons) * round_fail;
    std::printf("%8.2f %9.4f ±%6.4f %14.6f %16.4f\n", p, s.mean, s.stddev,
                beacons, model);
    auto& row = json.add_row("points");
    row.set("loss_p", p);
    row.set("measured_missing_mean", s.mean);
    row.set("measured_missing_stddev", s.stddev);
    row.set("beacon_model", beacons);
    row.set("beacon_plus_twopc_model", model);
  }
  std::printf(
      "\nExpected shape: the paper's analysis covers the beacon term only\n"
      "(p^%d, negligible below p=0.3); this system additionally loses a\n"
      "member from the *first* commit when its 2PC round trip fails all %d\n"
      "attempts — the '+2PC model' column. Measured tracks the combined\n"
      "model; every miss is repaired within seconds by the merge protocol.\n",
      k, attempts);
  json.write();
  return 0;
}
