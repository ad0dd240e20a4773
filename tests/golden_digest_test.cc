// Golden digests: one small seeded Océano farm driven through discovery,
// one node failure and its recovery. The run depends only on the farm seed
// (util::Rng) and the simulator, so its full JSONL trace stream and its
// final Prometheus exposition are fixed byte for byte. Both are hashed and
// pinned here: a refactor or optimisation that claims to leave protocol
// behaviour unchanged must leave these constants unchanged too. A change
// that alters behaviour on purpose re-records them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "farm/farm.h"
#include "farm/scenario.h"
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

  EXPECT_EQ(records, 1841u);
  EXPECT_EQ(hex(trace_digest), "0x23a594be2318de01")
      << "JSONL trace stream changed";
  EXPECT_EQ(hex(prometheus_digest), "0xb5621968866c6d1e")
      << "Prometheus exposition changed";
}

}  // namespace
}  // namespace gs::farm
