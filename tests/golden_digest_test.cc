// Golden digests: one small seeded Océano farm driven through discovery,
// one node failure and its recovery. The run depends only on the farm seed
// (util::Rng) and the simulator, so its full JSONL trace stream and its
// final Prometheus exposition are fixed byte for byte. Both are hashed and
// pinned here: a refactor or optimisation that claims to leave protocol
// behaviour unchanged must leave these constants unchanged too. A change
// that alters behaviour on purpose re-records them and says why.
//
// Last re-recorded when the heartbeat lost its unused per-period `seq` and
// became {view} only, so a detector frames it once per view: a heartbeat
// frame is 24 bytes instead of 32. Only OceanoDiscoveryFailureRecovery
// moved, and only through byte counters. Its 1 844 records are the same
// records in the same order; the only fields that differ are the `b` (bytes
// sent) of the health sampler's "wire" records, and in the Prometheus
// exposition only gs_wire_bytes_sent, each lower by 8 bytes per heartbeat
// sent. The other two scenarios run with the sampler off and export no byte
// counter, so their digests are unchanged. A throwaway build that kept
// `seq` on the wire and always sent 0 (same bytes as before) passed all
// three pins unchanged.
//
// The time before that, committed members left the beacon group: a
// multicast now reaches only adapters that beacon, wait for a leader or
// lead, and skips every other member before its latency, δ and corruption
// draws (EXPERIMENTS.md, E23). Each pin was attributed with throwaway
// builds that keep those draws (the skipped receiver consumes its draws
// and is then dropped):
//  * LargeAdminAmgFailureRecoveryBurst is then byte-identical to before,
//    both digests: it changes only through the VLAN segments' RNG streams.
//  * OceanoDiscoveryFailureRecovery then keeps every protocol record; only
//    the health sampler's codec records (frames decoded so far) and the
//    Prometheus exposition change, as members decode fewer beacons.
//    Checking membership at delivery instead of at send time changes only
//    those counts too. The protocol records move through the RNG streams.
//  * HierarchicalSwitchMoveAndPartitionScript then matches, hash for hash
//    (1 960 records against 1 976), the old code with one line removed:
//    the view-clock bump a committed member took from any beacon it heard,
//    a foreign leader's included. Members no longer hear those beacons.
//    The RNG streams account for the rest (1 965 records).
// The change before that moved δ from the daemon into the fabric (E21).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "farm/script.h"
#include "obs/expo.h"
#include "obs/trace.h"

namespace gs::farm {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// 64-bit FNV-1a, chained over successive pieces of one stream.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenDigest, OceanoDiscoveryFailureRecovery) {
  proto::Params params;
  params.beacon_phase = sim::seconds(2);
  params.amg_stable_wait = sim::seconds(1);
  params.gsc_stable_wait = sim::seconds(3);

  sim::Simulator sim;
  Farm farm(sim, FarmSpec::oceano(2, 3, 3), params, /*seed=*/4242);
  farm.enable_span_tracking();
  farm.enable_health_sampling(sim::seconds(5));

  // Hash exactly what a JsonlSink tapping every kind would write.
  std::uint64_t trace_digest = kFnvBasis;
  std::uint64_t records = 0;
  auto tap = farm.trace_bus().subscribe([&](const obs::TraceRecord& record) {
    trace_digest = fnv1a(trace_digest, obs::to_json(record));
    trace_digest = fnv1a(trace_digest, "\n");
    ++records;
  });

  farm.start();
  ASSERT_TRUE(run_until_converged(farm, sim::seconds(120)));
  const std::size_t victim = farm.nodes_with_role(NodeRole::kBackEnd).front();
  farm.fail_node(victim);
  sim.run_until(sim.now() + sim::seconds(40));
  farm.recover_node(victim);
  ASSERT_TRUE(run_until_converged(farm, sim.now() + sim::seconds(120)));
  sim.run_until(sim.now() + sim::seconds(10));
  tap.reset();

  const std::string prometheus = obs::expo::to_prometheus(farm.metrics());
  const std::uint64_t prometheus_digest = fnv1a(kFnvBasis, prometheus);

  EXPECT_EQ(records, 1844u);
  EXPECT_EQ(hex(trace_digest), "0x136f9464c99d7169")
      << "JSONL trace stream changed";
  EXPECT_EQ(hex(prometheus_digest), "0x2afb251fe6f3b3eb")
      << "Prometheus exposition changed";
}

// The same pins for a farm whose admin AMG holds 108 members (every node),
// driven through a burst of six staggered node failures (one of them the
// leader) and their recoveries: each is a two-phase commit over the whole
// admin AMG, about a dozen view changes of 100+ members in all. The small
// farm above never builds a group large enough to exercise that path.
TEST(GoldenDigest, LargeAdminAmgFailureRecoveryBurst) {
  proto::Params params;
  params.beacon_phase = sim::seconds(2);
  params.amg_stable_wait = sim::seconds(1);
  params.gsc_stable_wait = sim::seconds(3);

  sim::Simulator sim;
  Farm farm(sim, FarmSpec::oceano(4, 10, 16), params, /*seed=*/777);
  farm.enable_span_tracking();

  std::uint64_t trace_digest = kFnvBasis;
  std::uint64_t records = 0;
  auto tap = farm.trace_bus().subscribe([&](const obs::TraceRecord& record) {
    trace_digest = fnv1a(trace_digest, obs::to_json(record));
    trace_digest = fnv1a(trace_digest, "\n");
    ++records;
  });

  farm.start();
  ASSERT_TRUE(run_until_converged(farm, sim::seconds(120)));
  const std::vector<std::size_t> backs =
      farm.nodes_with_role(NodeRole::kBackEnd);
  const std::vector<std::size_t> fronts =
      farm.nodes_with_role(NodeRole::kFrontEnd);
  ASSERT_GE(backs.size(), 3u);
  ASSERT_GE(fronts.size(), 2u);
  // The third victim is the admin AMG's leader (the active GSC): its
  // successor takes over and recommits the whole group.
  const std::optional<std::size_t> gsc = farm.expected_gsc_node();
  ASSERT_TRUE(gsc.has_value());
  const std::vector<std::size_t> victims = {backs[0], fronts[0], *gsc,
                                            backs[1], fronts[1], backs[2]};
  for (const std::size_t node : victims) {
    farm.fail_node(node);
    sim.run_until(sim.now() + sim::seconds(3));
  }
  sim.run_until(sim.now() + sim::seconds(30));
  for (const std::size_t node : victims) {
    farm.recover_node(node);
    sim.run_until(sim.now() + sim::seconds(2));
  }
  ASSERT_TRUE(run_until_converged(farm, sim.now() + sim::seconds(120)));
  sim.run_until(sim.now() + sim::seconds(10));
  tap.reset();

  const std::string prometheus = obs::expo::to_prometheus(farm.metrics());
  const std::uint64_t prometheus_digest = fnv1a(kFnvBasis, prometheus);

  EXPECT_EQ(records, 55538u);
  EXPECT_EQ(hex(trace_digest), "0x263c96efdb4b6e36")
      << "JSONL trace stream changed";
  EXPECT_EQ(hex(prometheus_digest), "0x03472870c0fffd8c")
      << "Prometheus exposition changed";
}

// The same pins for a small two-level hierarchy driven by a script through
// every fabric mutation that changes where a unicast lands: a switch dies
// and recovers (its adapters leave and rejoin their VLANs), Central moves a
// worker's data adapter to the other domain's data VLAN and back, and a
// data VLAN is partitioned and healed. Heartbeats keep flowing across each
// change, so cached unicast resolution must follow the topology exactly.
TEST(GoldenDigest, HierarchicalSwitchMoveAndPartitionScript) {
  proto::Params params;
  params.beacon_phase = sim::seconds(2);
  params.amg_stable_wait = sim::seconds(1);
  params.gsc_stable_wait = sim::seconds(3);

  FarmSpec spec = FarmSpec::hierarchical(2, 4);
  spec.switch_ports = 8;  // several switches, so fail-switch is partial
  sim::Simulator sim;
  Farm farm(sim, spec, params, /*seed=*/5150);
  farm.enable_span_tracking();

  std::uint64_t trace_digest = kFnvBasis;
  std::uint64_t records = 0;
  auto tap = farm.trace_bus().subscribe([&](const obs::TraceRecord& record) {
    trace_digest = fnv1a(trace_digest, obs::to_json(record));
    trace_digest = fnv1a(trace_digest, "\n");
    ++records;
  });

  farm.start();
  ASSERT_TRUE(run_until_converged(farm, sim::seconds(120)));
  // Switch 3 carries the last domain-1 worker; adapter 9 is a domain-0
  // worker's data adapter on VLAN 100, and VLAN 101 is domain 1's.
  ScriptParseResult parsed = parse_script(
      "at 0s   fail-switch 3\n"
      "at 20s  recover-switch 3\n"
      "at 40s  move-adapter 9 vlan 101\n"
      "at 60s  partition-vlan 100\n"
      "at 80s  heal-vlan 100\n"
      "at 90s  move-adapter 9 vlan 100\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  for (ScriptAction& action : parsed.actions) action.at += sim.now();
  ScriptRun run;
  schedule_script(farm, parsed.actions, &run);
  sim.run_until(sim.now() + sim::seconds(100));
  EXPECT_EQ(run.executed, parsed.actions.size());
  EXPECT_EQ(run.failed, 0u);
  ASSERT_TRUE(run_until_converged(farm, sim.now() + sim::seconds(120)));
  sim.run_until(sim.now() + sim::seconds(10));
  tap.reset();

  const std::string prometheus = obs::expo::to_prometheus(farm.metrics());
  const std::uint64_t prometheus_digest = fnv1a(kFnvBasis, prometheus);

  EXPECT_EQ(records, 1965u);
  EXPECT_EQ(hex(trace_digest), "0x5846cedd372d4d15")
      << "JSONL trace stream changed";
  EXPECT_EQ(hex(prometheus_digest), "0xcd4b5ff8e042b753")
      << "Prometheus exposition changed";
}

}  // namespace
}  // namespace gs::farm
