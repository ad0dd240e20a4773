// E4 — §3 failure-detection trade-offs.
//
// Three tables:
//  A. Detection latency vs heartbeat period tau and sensitivity k
//     ("adjusted to trade off between network load, timeliness of
//     detection, and the probability of a false failure report").
//  B. False failure reports under message loss: the one-strike
//     unidirectional ring vs the bidirectional two-reporter consensus vs
//     leader verification probes — the paper's two amelioration steps.
//  C. The loopback-test ablation: a receive-dead adapter blames its healthy
//     neighbors unless it self-tests first (§3's first flaw).
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "farm/farm.h"
#include "farm/scenario.h"
#include "util/flags.h"

namespace {

using gs::proto::FdKind;

struct FarmRun {
  gs::sim::Simulator sim;
  std::unique_ptr<gs::farm::Farm> farm;

  FarmRun(int nodes, const gs::proto::Params& params, std::uint64_t seed,
          double loss) {
    farm = std::make_unique<gs::farm::Farm>(
        sim, gs::farm::FarmSpec::uniform(nodes, 1), params, seed);
    if (loss > 0) {
      gs::net::ChannelModel lossy;
      lossy.loss_probability = loss;
      for (gs::util::VlanId vlan : farm->vlans())
        farm->fabric().segment(vlan).set_model(lossy);
    }
    farm->start();
  }
};

// Detection latency: kill a mid-rank member. Two measurements per trial:
//  * commit_s — the external timer the bench always had: sim time until the
//    leader commits a view excluding the victim (detection + verification
//    probes + 2PC + change debounce);
//  * leader_span_s — the SpanTracker's kFaultInjected -> kDeathDeclared
//    latency ("span.detection_leader_us"), the pure §3 detection path that
//    Eq. 1's (k + 1/2)·tau + verification term models.
struct DetectionSample {
  double commit_s = -1;
  double leader_span_s = -1;
};

DetectionSample detection_latency_s(const gs::proto::Params& params, int nodes,
                                    std::uint64_t seed) {
  FarmRun run(nodes, params, seed, 0.0);
  gs::obs::SpanTracker& spans = run.farm->enable_span_tracking();
  if (!gs::farm::run_until_converged(*run.farm, gs::sim::seconds(120)))
    return {};

  const std::size_t victim_node = static_cast<std::size_t>(nodes) / 2;
  const gs::util::AdapterId victim = run.farm->node_adapters(victim_node)[0];
  const gs::util::IpAddress victim_ip =
      run.farm->fabric().adapter(victim).ip();
  const gs::util::AdapterId leader =
      run.farm->node_adapters(static_cast<std::size_t>(nodes) - 1)[0];
  gs::proto::AdapterProtocol* leader_proto = run.farm->protocol_for(leader);

  const gs::sim::SimTime death = run.sim.now();
  run.farm->fabric().set_adapter_health(victim, gs::net::HealthState::kDown);
  auto removed = gs::farm::run_until(
      run.sim, death + gs::sim::seconds(120),
      [&] { return !leader_proto->committed().contains(victim_ip); },
      gs::sim::milliseconds(5));
  if (!removed) return {};
  DetectionSample out;
  out.commit_s = gs::sim::to_seconds(*removed - death);
  const gs::util::Histogram* leader_hist =
      spans.stats().find_histogram("span.detection_leader_us");
  if (leader_hist != nullptr && leader_hist->count() > 0)
    out.leader_span_s = leader_hist->mean() / 1e6;
  return out;
}

// Eq. 1's detection term: a fault lands uniformly within a heartbeat
// period, the ring raises suspicion after k consecutive misses, and the
// leader spends (retries + 1) timed-out verification probes before
// declaring: E[T_detect] = (k + 1/2)·tau + (probe_retries + 1)·T_probe.
double detection_model_s(const gs::proto::Params& p) {
  return (static_cast<double>(p.hb_sensitivity) + 0.5) *
             gs::sim::to_seconds(p.hb_period) +
         static_cast<double>(p.probe_retries + 1) *
             gs::sim::to_seconds(p.probe_timeout);
}

struct FalseReportStats {
  std::uint64_t suspicions = 0;
  std::uint64_t false_removals = 0;  // deaths declared with nobody dead
  std::uint64_t probes_refuted = 0;
};

FalseReportStats false_reports(const gs::proto::Params& params, int nodes,
                               double loss, double run_seconds,
                               std::uint64_t seed) {
  FarmRun run(nodes, params, seed, loss);
  if (!gs::farm::run_until_converged(*run.farm, gs::sim::seconds(240)))
    return {};
  run.sim.run_until(run.sim.now() + gs::sim::seconds(run_seconds));

  FalseReportStats out;
  for (std::size_t n = 0; n < run.farm->node_count(); ++n) {
    const auto& stats = run.farm->daemon(n).protocol(0).stats();
    out.suspicions += stats.suspicions_raised;
    out.false_removals += stats.deaths_declared;
    out.probes_refuted += stats.probes_refuted;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int nodes = static_cast<int>(flags.get_int("nodes", 16, "AMG size"));
  const int trials = static_cast<int>(flags.get_int("trials", 5, "seeds"));
  const double horizon =
      flags.get_double("seconds", 300.0, "healthy-run length for table B/C");
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::proto::Params base;
  base.beacon_phase = gs::sim::seconds(2);
  base.amg_stable_wait = gs::sim::seconds(1);
  base.gsc_stable_wait = gs::sim::seconds(3);

  gs::bench::BenchJson json("detection_tradeoff");
  json.set("nodes", nodes);
  json.set("trials", trials);
  json.set("horizon_s", horizon);

  // --- Table A ---------------------------------------------------------------
  gs::bench::print_header(
      "A. Detection latency vs heartbeat period tau and sensitivity k");
  std::printf("bidirectional ring + leader verification, AMG of %d\n\n", nodes);
  std::printf("%10s", "tau");
  for (int k : {1, 2, 3}) std::printf("        k=%d       ", k);
  std::printf("\n");
  gs::bench::print_rule(64);
  struct GateRow {
    double tau_ms = 0;
    int k = 0;
    double span_mean_s = -1;
    double model_s = 0;
    double tolerance_s = 0;
  };
  std::vector<GateRow> gate_rows;
  for (double tau_ms : {100.0, 500.0, 1000.0}) {
    std::printf("%8.0fms", tau_ms);
    for (int k : {1, 2, 3}) {
      gs::proto::Params p = base;
      p.hb_period = gs::sim::milliseconds(static_cast<std::int64_t>(tau_ms));
      p.hb_sensitivity = k;
      std::vector<DetectionSample> samples(static_cast<std::size_t>(trials));
      gs::bench::parallel_trials(samples.size(), [&](std::size_t i) {
        samples[i] = detection_latency_s(p, nodes, 100 + i);
      });
      std::vector<double> commit, leader_span;
      for (const DetectionSample& d : samples) {
        if (d.commit_s >= 0) commit.push_back(d.commit_s);
        if (d.leader_span_s >= 0) leader_span.push_back(d.leader_span_s);
      }
      const auto s = gs::util::Summary::of(commit);
      const auto ls = gs::util::Summary::of(leader_span);
      std::printf("  %ss", gs::bench::fmt_mean_std(s).c_str());
      auto& row = json.add_row("detection_latency");
      row.set("tau_ms", tau_ms);
      row.set("k", k);
      row.set("latency_mean_s", s.mean);
      row.set("latency_stddev_s", s.stddev);
      row.set("span_leader_mean_s", ls.mean);
      row.set("span_leader_stddev_s", ls.stddev);
      row.set("model_s", detection_model_s(p));
      GateRow gate;
      gate.tau_ms = tau_ms;
      gate.k = k;
      gate.span_mean_s = leader_span.empty() ? -1 : ls.mean;
      gate.model_s = detection_model_s(p);
      // The fault phase within a heartbeat period is uniform, so trial
      // means scatter around the model by O(tau/sqrt(12·trials)); suspect
      // relays and probe scheduling add a constant-ish tail. Half a period
      // plus 300ms comfortably covers both without masking real drift.
      gate.tolerance_s = 0.5 * tau_ms / 1000.0 + 0.3;
      gate_rows.push_back(gate);
    }
    std::printf("\n");
  }
  std::printf("\nExpected: latency ~ (k + 1/2)*tau + verification probes;\n"
              "rows scale linearly with tau, columns with k.\n");

  // --- Table A', the Eq. 1 sanity gate ---------------------------------------
  // The span-measured leader detection latency (kFaultInjected ->
  // kDeathDeclared) must agree with the closed-form model — this pins the
  // tracer's correlation AND the simulator's detection pipeline at once.
  gs::bench::print_header(
      "A'. Span-measured leader detection vs Eq. 1 model (gate)");
  std::printf("%10s %4s %12s %12s %12s  %s\n", "tau", "k", "span mean",
              "model", "|delta|", "verdict");
  gs::bench::print_rule(64);
  int gate_failures = 0;
  for (const GateRow& g : gate_rows) {
    const double delta =
        g.span_mean_s < 0 ? -1 : std::abs(g.span_mean_s - g.model_s);
    const bool ok = delta >= 0 && delta <= g.tolerance_s;
    if (!ok) ++gate_failures;
    std::printf("%8.0fms %4d %11.3fs %11.3fs %11.3fs  %s\n", g.tau_ms, g.k,
                g.span_mean_s, g.model_s, delta, ok ? "ok" : "FAIL");
    auto& row = json.add_row("eq1_gate");
    row.set("tau_ms", g.tau_ms);
    row.set("k", g.k);
    row.set("span_leader_mean_s", g.span_mean_s);
    row.set("model_s", g.model_s);
    row.set("tolerance_s", g.tolerance_s);
    row.set("passed", ok);
  }
  json.set("eq1_gate_failures", gate_failures);
  if (gate_failures > 0)
    std::printf("\nGATE FAILED: %d combination(s) disagree with Eq. 1.\n",
                gate_failures);

  // --- Table B -------------------------------------------------------------------
  gs::bench::print_header(
      "B. False failure reports under loss (healthy group, per run)");
  std::printf("%d nodes, %.0fs horizon, %d trials averaged\n\n", nodes, horizon,
              trials);
  std::printf("%8s | %26s | %26s | %26s\n", "loss",
              "uni-ring k=1, no verify", "bi-ring consensus, no verify",
              "bi-ring + verify probes");
  std::printf("%8s | %13s %12s | %13s %12s | %13s %12s\n", "", "suspicions",
              "removals", "suspicions", "removals", "suspicions", "removals");
  gs::bench::print_rule(96);

  struct Mode {
    FdKind kind;
    int k;
    bool verify;
  };
  const Mode modes[] = {{FdKind::kUnidirectionalRing, 1, false},
                        {FdKind::kBidirectionalRing, 1, false},
                        {FdKind::kBidirectionalRing, 1, true}};
  for (double loss : {0.0, 0.02, 0.05, 0.10}) {
    std::printf("%7.0f%% |", loss * 100);
    for (const Mode& mode : modes) {
      gs::proto::Params p = base;
      p.fd_kind = mode.kind;
      p.hb_sensitivity = mode.k;
      p.leader_verify = mode.verify;
      std::vector<FalseReportStats> stats(static_cast<std::size_t>(trials));
      gs::bench::parallel_trials(stats.size(), [&](std::size_t i) {
        stats[i] = false_reports(p, nodes, loss, horizon, 200 + i);
      });
      double suspicions = 0, second = 0;
      for (const auto& s : stats) {
        suspicions += static_cast<double>(s.suspicions);
        second += static_cast<double>(s.false_removals);
      }
      std::printf(" %13.1f %12.1f |", suspicions / trials,
                  second / trials);
      auto& row = json.add_row("false_reports");
      row.set("loss_p", loss);
      row.set("fd_kind", mode.kind == FdKind::kUnidirectionalRing
                             ? "unidirectional_ring"
                             : "bidirectional_ring");
      row.set("leader_verify", mode.verify);
      row.set("suspicions_per_run", suspicions / trials);
      row.set("removals_per_run", second / trials);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected: the one-strike uni-ring wrongly removes members as loss\n"
      "grows; consensus reduces removals; verification probes convert the\n"
      "remaining false suspicions into refutations (zero removals).\n");

  // --- Table C -----------------------------------------------------------------------
  gs::bench::print_header("C. Loopback self-test ablation (receive-dead NIC)");
  std::printf("%12s %22s\n", "loopback", "false suspicions");
  gs::bench::print_rule(40);
  for (bool loopback : {true, false}) {
    gs::proto::Params p = base;
    p.fd_loopback_test = loopback;
    p.leader_verify = true;
    std::vector<double> counts(static_cast<std::size_t>(trials));
    gs::bench::parallel_trials(counts.size(), [&](std::size_t i) {
      FarmRun run(nodes, p, 300 + i, 0.0);
      if (!gs::farm::run_until_converged(*run.farm, gs::sim::seconds(120)))
        return;
      const gs::util::AdapterId broken = run.farm->node_adapters(3)[0];
      run.farm->fabric().set_adapter_health(broken,
                                            gs::net::HealthState::kRecvDead);
      run.sim.run_until(run.sim.now() + gs::sim::seconds(60));
      counts[i] = static_cast<double>(
          run.farm->daemon(3).protocol(0).stats().suspicions_raised);
    });
    const auto s = gs::util::Summary::of(counts);
    std::printf("%12s %16.1f ±%4.1f\n", loopback ? "on" : "off", s.mean,
                s.stddev);
    auto& row = json.add_row("loopback_ablation");
    row.set("loopback", loopback);
    row.set("false_suspicions_mean", s.mean);
    row.set("false_suspicions_stddev", s.stddev);
  }
  std::printf("\nExpected: with the test off, the broken receiver blames its\n"
              "healthy neighbors repeatedly (§3's first flaw); with it on,\n"
              "it stays silent.\n");
  json.write();
  return gate_failures > 0 ? 1 : 0;
}
