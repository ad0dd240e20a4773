// E10 — flat vs hierarchical Central scaling (two-level hierarchy PR).
//
// The flat design funnels every AMG leader's report into ONE Central: at
// 4096 VLANs the top coordinator handles 4096 frames per churn wave. The
// two-level hierarchy (gs/central_hier.h) keeps a plain Central per domain
// and batches each domain's table changes into compressed DomainReport
// digests — many changes per frame — so the root GSC's frame load scales
// with the DOMAIN count, not the VLAN count.
//
// Both tiers are driven object-level (no fabric, no daemons): synthetic
// leaders feed MembershipReports straight into the Central(s), uplinks are
// wired to the RootCentral through a direct-call Iface, and the simulator
// clock advances between churn waves so batch/lease timers fire. Measured
// per size, identical workload on both sides:
//
//   top-tier throughput   membership changes conveyed per frame the top
//                         coordinator processes (flat: leader reports at
//                         the one Central; hier: digests at the root).
//                         speedup = hier / flat; --min_speedup turns a
//                         regression into a nonzero exit.
//   death propagation     sim-time from a member death to the top tier
//                         recording it dead, under a fixed 2s detection
//                         model plus 1ms per frame hop. The hierarchy pays
//                         one batch window extra; --max_death_ratio (2.0)
//                         gates hier staying within that bound of flat.
//   ingest wall clock     wall seconds to drive the whole schedule, as
//                         reports/s (informational — the object-level cost,
//                         dominated by table updates on both sides).
//
// Results additionally go to BENCH_central_scale.json (see bench_common.h).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "gs/central.h"
#include "gs/central_hier.h"
#include "gs/messages.h"
#include "gs/params.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/ip.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::uint32_t kMembers = 4;           // adapters per VLAN
constexpr std::uint32_t kVlansPerDomain = 64;   // domain fan-in
const gs::sim::SimDuration kDetect = gs::sim::seconds(2);   // leader notices
const gs::sim::SimDuration kDeliver = gs::sim::milliseconds(1);  // per hop

gs::util::IpAddress member_ip(std::uint32_t vlan, std::uint32_t host) {
  return gs::util::IpAddress(0x0A000000u | (vlan << 12) | host);
}

gs::proto::MemberInfo member(std::uint32_t vlan, std::uint32_t host) {
  gs::proto::MemberInfo m;
  m.ip = member_ip(vlan, host);
  m.node = gs::util::NodeId(vlan * (kMembers + 1) + host);
  return m;
}

// The leader is the highest host; its full report establishes the group.
gs::proto::MembershipReport full_report(std::uint32_t vlan) {
  gs::proto::MembershipReport rep;
  rep.seq = 1;
  rep.view = 1;
  rep.full = true;
  rep.leader = member(vlan, kMembers);
  for (std::uint32_t h = 1; h <= kMembers; ++h)
    rep.added.push_back(member(vlan, h));
  return rep;
}

gs::proto::MembershipReport delta_report(std::uint32_t vlan,
                                         std::uint64_t seq,
                                         std::uint32_t host, bool add) {
  gs::proto::MembershipReport rep;
  rep.seq = seq;
  rep.view = 1;
  rep.full = false;
  rep.leader = member(vlan, kMembers);
  if (add)
    rep.added.push_back(member(vlan, host));
  else
    rep.removed.push_back(
        {member_ip(vlan, host), gs::proto::RemoveReason::kFailed});
  return rep;
}

struct RunResult {
  bool ok = false;
  double wall_s = 0;
  std::uint64_t top_frames = 0;   // frames the top coordinator processed
  std::uint64_t changes = 0;      // membership changes conveyed to it
  double death_ms = 0;            // fault to top-tier dead verdict
};

// One flat Central ingesting every leader's reports directly. `rounds` must
// be even so the churned member ends the schedule alive.
RunResult run_flat(std::uint32_t vlans, int rounds) {
  gs::sim::Simulator sim;
  gs::proto::Params params;
  gs::proto::Central central(sim, params, nullptr, nullptr);
  central.activate(gs::util::IpAddress(10, 255, 0, 1));
  const auto no_ack = [](const gs::proto::ReportAck&) {};

  RunResult out;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t v = 0; v < vlans; ++v)
    central.handle_report(member_ip(v, kMembers), full_report(v), no_ack);
  out.changes += vlans * kMembers;
  std::vector<std::uint64_t> seq(vlans, 1);
  for (int r = 0; r < rounds; ++r) {
    sim.run_until(sim.now() + gs::sim::seconds(1));
    const bool add = (r % 2) != 0;  // kill host 1, then revive it
    for (std::uint32_t v = 0; v < vlans; ++v)
      central.handle_report(member_ip(v, kMembers),
                            delta_report(v, ++seq[v], 1, add), no_ack);
    out.changes += vlans;
  }

  // Death propagation: host 2 of VLAN 0 dies; the leader notices after
  // kDetect and its delta reaches the Central one frame hop later.
  sim.run_until(sim.now() + kDetect);
  central.handle_report(member_ip(0, kMembers),
                        delta_report(0, ++seq[0], 2, false), no_ack);
  out.changes += 1;
  out.death_ms = gs::sim::to_seconds(kDetect + kDeliver) * 1e3;
  out.wall_s = seconds_since(start);

  out.top_frames = central.reports_received();
  const auto victim = central.adapter_status(member_ip(0, 2));
  const auto survivor = central.adapter_status(member_ip(0, 1));
  out.ok = victim.has_value() && !victim->alive && survivor.has_value() &&
           survivor->alive;
  return out;
}

// Per-domain Centrals ingest the same leader reports; DomainUplinks batch
// the resulting table changes into digests for one RootCentral.
RunResult run_hier(std::uint32_t vlans, int rounds) {
  const std::uint32_t domains = std::max(1u, vlans / kVlansPerDomain);
  gs::sim::Simulator sim;
  gs::proto::Params params;
  gs::proto::RootCentral root(sim, params);
  root.activate(gs::util::IpAddress(10, 255, 0, 1));

  std::vector<std::unique_ptr<gs::proto::Central>> centrals;
  std::vector<std::unique_ptr<gs::proto::DomainUplink>> uplinks;
  uplinks.reserve(domains);
  for (std::uint32_t d = 0; d < domains; ++d) {
    centrals.push_back(
        std::make_unique<gs::proto::Central>(sim, params, nullptr, nullptr));
    gs::proto::DomainUplink::Iface iface;
    iface.send = [&root, &uplinks, d](const gs::proto::DomainReport& rep) {
      root.handle_domain_report(
          rep.sender, rep, [&uplinks, d](const gs::proto::DomainReportAck& a) {
            uplinks[d]->handle_ack(a);
          });
    };
    iface.root_ip = [&root] { return root.self_ip(); };
    uplinks.push_back(std::make_unique<gs::proto::DomainUplink>(
        sim, params, *centrals[d], d,
        gs::util::IpAddress(0x0AFE0000u | d), iface));
    centrals[d]->activate(gs::util::IpAddress(0x0AFF0000u | d));
  }
  const auto no_ack = [](const gs::proto::ReportAck&) {};
  const auto central_of = [&](std::uint32_t vlan) -> gs::proto::Central& {
    return *centrals[vlan / kVlansPerDomain];
  };

  RunResult out;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t v = 0; v < vlans; ++v)
    central_of(v).handle_report(member_ip(v, kMembers), full_report(v),
                                no_ack);
  out.changes += vlans * kMembers;
  std::vector<std::uint64_t> seq(vlans, 1);
  for (int r = 0; r < rounds; ++r) {
    sim.run_until(sim.now() + gs::sim::seconds(1));  // batch windows flush
    const bool add = (r % 2) != 0;
    for (std::uint32_t v = 0; v < vlans; ++v)
      central_of(v).handle_report(member_ip(v, kMembers),
                                  delta_report(v, ++seq[v], 1, add), no_ack);
    out.changes += vlans;
  }
  sim.run_until(sim.now() + gs::sim::seconds(1));  // final flush

  // Death propagation: same event, but the verdict must cross the batch
  // window and one extra frame hop before the ROOT records it.
  const gs::sim::SimTime fault_at = sim.now();
  sim.run_until(fault_at + kDetect);
  centrals[0]->handle_report(member_ip(0, kMembers),
                             delta_report(0, ++seq[0], 2, false), no_ack);
  out.changes += 1;
  const gs::util::IpAddress victim_ip = member_ip(0, 2);
  const auto root_sees_dead = [&] {
    const auto st = root.adapter_status(victim_ip);
    return st.has_value() && !st->alive;
  };
  const gs::sim::SimTime deadline = sim.now() + gs::sim::seconds(30);
  while (!root_sees_dead() && sim.now() < deadline)
    sim.run_until(sim.now() + gs::sim::milliseconds(1));
  out.death_ms =
      gs::sim::to_seconds(sim.now() - fault_at + 2 * kDeliver) * 1e3;
  out.wall_s = seconds_since(start);

  out.top_frames = root.reports_received();
  const auto survivor = root.adapter_status(member_ip(0, 1));
  out.ok = root_sees_dead() && survivor.has_value() && survivor->alive &&
           root.domain_count() == domains &&
           root.alive_adapter_count() ==
               static_cast<std::size_t>(vlans) * kMembers - 1;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const bool smoke = flags.get_bool(
      "smoke", false, "one 256-VLAN size only (CI release-job gate)");
  const int rounds = static_cast<int>(
      flags.get_int("rounds", 4, "churn waves per run (kept even)"));
  const double min_speedup = flags.get_double(
      "min_speedup", 2.0,
      "exit nonzero if hier/flat top-tier throughput falls below this");
  const double max_death_ratio = flags.get_double(
      "max_death_ratio", 2.0,
      "exit nonzero if hier/flat death propagation exceeds this");
  if (const auto exit_code = flags.finish()) return *exit_code;

  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{256}
            : std::vector<std::uint32_t>{64, 256, 1024, 4096};

  gs::bench::print_header(
      "Central scaling — flat vs two-level hierarchy (top-tier frame load)");
  std::printf("%u members/VLAN, %u VLANs/domain, %d churn waves\n\n",
              kMembers, kVlansPerDomain, rounds);
  std::printf("%6s %9s %8s %12s %12s %8s %16s %7s\n", "vlans", "adapters",
              "domains", "flat frames", "hier frames", "speedup",
              "death ms (f/h)", "ratio");
  gs::bench::print_rule();

  gs::bench::BenchJson json("central_scale");
  json.set("members_per_vlan", std::uint64_t{kMembers});
  json.set("vlans_per_domain", std::uint64_t{kVlansPerDomain});
  json.set("rounds", rounds);
  json.set("smoke", smoke);

  bool all_ok = true;
  double gated_speedup = 0;
  double gated_death_ratio = 0;
  for (std::uint32_t vlans : sizes) {
    const RunResult flat = run_flat(vlans, rounds);
    const RunResult hier = run_hier(vlans, rounds);
    // Identical change workload both sides, so the changes-per-frame ratio
    // reduces to the frame-count ratio.
    const double speedup =
        hier.top_frames > 0 ? static_cast<double>(flat.top_frames) /
                                  static_cast<double>(hier.top_frames)
                            : 0.0;
    const double death_ratio =
        flat.death_ms > 0 ? hier.death_ms / flat.death_ms : 0.0;
    const std::uint32_t domains = std::max(1u, vlans / kVlansPerDomain);
    std::printf("%6u %9u %8u %12llu %12llu %7.1fx %8.0f / %-6.0f %6.2fx%s\n",
                vlans, vlans * kMembers, domains,
                static_cast<unsigned long long>(flat.top_frames),
                static_cast<unsigned long long>(hier.top_frames), speedup,
                flat.death_ms, hier.death_ms, death_ratio,
                flat.ok && hier.ok ? "" : "  [INVALID]");
    auto& row = json.add_row("sizes");
    row.set("vlans", std::uint64_t{vlans});
    row.set("adapters", std::uint64_t{vlans} * kMembers);
    row.set("domains", std::uint64_t{domains});
    row.set("flat_top_frames", flat.top_frames);
    row.set("hier_top_frames", hier.top_frames);
    row.set("throughput_speedup", speedup);
    row.set("flat_death_ms", flat.death_ms);
    row.set("hier_death_ms", hier.death_ms);
    row.set("death_ratio", death_ratio);
    row.set("flat_ingest_per_s",
            flat.wall_s > 0
                ? static_cast<double>(flat.changes) / flat.wall_s
                : 0.0);
    row.set("hier_ingest_per_s",
            hier.wall_s > 0
                ? static_cast<double>(hier.changes) / hier.wall_s
                : 0.0);
    row.set("ok", flat.ok && hier.ok);
    all_ok = all_ok && flat.ok && hier.ok;
    gated_speedup = speedup;          // the gate judges the largest size run
    gated_death_ratio = death_ratio;
  }

  std::printf(
      "\nframes = what the top coordinator processed for the SAME workload:\n"
      "the hierarchy conveys a whole domain's churn wave in one digest, so\n"
      "its top-tier load scales with domains, not VLANs, while a death\n"
      "verdict pays at most one extra batch window on the way up.\n");
  json.set("throughput_speedup", gated_speedup);
  json.set("death_ratio", gated_death_ratio);
  json.set("ok", all_ok);
  json.write();

  if (!all_ok) {
    std::fprintf(stderr, "\nFAIL: a run ended with wrong top-tier tables\n");
    return 1;
  }
  if (gated_speedup < min_speedup) {
    std::fprintf(stderr,
                 "\nFAIL: top-tier throughput speedup %.2fx below the "
                 "--min_speedup=%.2f floor\n",
                 gated_speedup, min_speedup);
    return 1;
  }
  if (gated_death_ratio > max_death_ratio) {
    std::fprintf(stderr,
                 "\nFAIL: death propagation ratio %.2fx above the "
                 "--max_death_ratio=%.2f ceiling\n",
                 gated_death_ratio, max_death_ratio);
    return 1;
  }
  return 0;
}
