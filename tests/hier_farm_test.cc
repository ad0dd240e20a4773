// Farm-level integration of the two-level Central hierarchy: per-domain
// Centrals digest their VLANs into a RootCentral over batched DomainReports,
// with failover exercised at BOTH levels — a domain Central standby taking
// over (new epoch, slice replaced) and a root GSC loss rebuilding the
// aggregate from the domain fulls its successor solicits.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "soak/invariants.h"

namespace gs {
namespace {

proto::Params hier_params() {
  proto::Params p;
  p.beacon_phase = sim::seconds(2);
  p.amg_stable_wait = sim::milliseconds(500);
  p.gsc_stable_wait = sim::seconds(2);
  p.move_window = sim::seconds(3);
  p.domain_refresh = sim::seconds(2);
  p.domain_lease = sim::seconds(6);
  return p;
}

class HierFarmTest : public ::testing::Test {
 protected:
  void build(int domains, int workers, std::uint64_t seed = 1,
             const proto::Params& params = hier_params()) {
    params_ = params;
    farm_.emplace(sim_, farm::FarmSpec::hierarchical(domains, workers),
                  params_, seed);
    farm_->start();
    ASSERT_TRUE(farm::run_until_converged(*farm_, sim::seconds(120)));
    ASSERT_TRUE(farm::run_until_gsc_stable(*farm_, sim::seconds(240)));
  }

  // Adapters the domain tier covers: everything off the root VLAN. (The
  // root VLAN's own membership — root mgmt plus the uplink adapters — is the
  // root-tier plain Central's job; the RootCentral only aggregates digests.)
  std::size_t domain_covered_healthy() {
    std::size_t n = 0;
    for (util::VlanId vlan : farm_->vlans())
      if (vlan != farm::admin_vlan())
        n += farm_->healthy_adapters_in_vlan(vlan).size();
    return n;
  }

  bool root_caught_up() {
    proto::RootCentral* root = farm_->active_root_central();
    return root != nullptr &&
           root->alive_adapter_count() == domain_covered_healthy();
  }

  sim::Simulator sim_;
  proto::Params params_;
  std::optional<farm::Farm> farm_;
};

// Every detector takes its heartbeat from the farm's one table, so once the
// farm settles the frames somebody besides the table holds are exactly one
// per view number in use, however many AMGs share that number.
TEST_F(HierFarmTest, OneLiveHeartbeatFramePerViewNumberInUse) {
  build(4, 6);
  // Let heartbeats of any view replaced on the way to convergence drain.
  sim_.run_until(sim_.now() + sim::seconds(2));
  ASSERT_TRUE(farm_->converged());
  std::set<std::uint64_t> views;
  std::set<util::IpAddress> leaders;
  for (std::size_t n = 0; n < farm_->node_count(); ++n) {
    const proto::GsDaemon& daemon = farm_->daemon(n);
    for (std::size_t i = 0; i < daemon.adapter_count(); ++i) {
      const proto::AdapterProtocol& p = daemon.protocol(i);
      // A running detector with a neighbour to heartbeat holds a frame.
      if (!p.is_committed() || p.committed().size() < 2) continue;
      views.insert(p.committed().view());
      leaders.insert(p.leader_ip());
    }
  }
  ASSERT_FALSE(views.empty());
  EXPECT_LT(views.size(), leaders.size()) << "no two AMGs share a view";
  EXPECT_EQ(farm_->heartbeat_frames().live(), views.size());
}

TEST_F(HierFarmTest, DigestsReachRootAndDeriveGroups) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  proto::RootCentral* root = farm_->active_root_central();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->domain_count(), 2u);
  // One derived group per non-root VLAN: each domain's admin VLAN plus its
  // workers' data VLAN.
  EXPECT_EQ(root->groups().size(), 4u);
  EXPECT_GT(root->reports_received(), 0u);
  // Rows carry the owning domain, and the root tier also runs a plain
  // Central for the root VLAN itself.
  for (util::VlanId vlan : farm_->vlans()) {
    if (vlan == farm::admin_vlan()) continue;
    for (util::AdapterId id : farm_->healthy_adapters_in_vlan(vlan)) {
      auto status = root->adapter_status(farm_->fabric().adapter(id).ip());
      ASSERT_TRUE(status.has_value());
      EXPECT_TRUE(status->alive);
    }
  }
  EXPECT_NE(farm_->active_root_tier_central(), nullptr);
}

TEST_F(HierFarmTest, DomainCentralFailoverStandbyTakesOver) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  const auto victim = farm_->expected_domain_gsc_node(0);
  ASSERT_TRUE(victim.has_value());
  farm_->fail_node(*victim);
  // The standby management node must win the domain-admin election, bring
  // up its own Central + uplink incarnation (new epoch), and re-establish
  // the domain's slice at the root — minus the dead node's adapters.
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    const auto now_expected = farm_->expected_domain_gsc_node(0);
    return now_expected.has_value() && *now_expected != *victim &&
           farm_->active_domain_central(0) != nullptr && root_caught_up();
  }));
  proto::RootCentral* root = farm_->active_root_central();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->domain_count(), 2u);
  // The re-established slice still attributes its rows to domain 0.
  const util::VlanId vlan = farm::domain_admin_vlan(0);
  for (util::AdapterId id : farm_->healthy_adapters_in_vlan(vlan)) {
    auto status = root->adapter_status(farm_->fabric().adapter(id).ip());
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->alive);
    EXPECT_EQ(status->domain, 0u);
  }
}

TEST_F(HierFarmTest, RootFailoverRebuildsFromDomainFulls) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  const auto victim = farm_->expected_root_node();
  ASSERT_TRUE(victim.has_value());
  proto::RootCentral* old_root = farm_->active_root_central();
  ASSERT_NE(old_root, nullptr);
  farm_->fail_node(*victim);
  // A fresh RootCentral starts empty on the surviving root-tier node and
  // rebuilds the whole farm view from the fulls the uplinks send when the
  // root-VLAN AMG re-elects (or its need_full acks solicit).
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    const auto now_expected = farm_->expected_root_node();
    proto::RootCentral* root = farm_->active_root_central();
    return now_expected.has_value() && *now_expected != *victim &&
           root != nullptr && root != old_root && root_caught_up();
  }));
  EXPECT_EQ(farm_->active_root_central()->domain_count(), 2u);
}

TEST_F(HierFarmTest, DarkDomainExpiresWholesaleAndRecovers) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  // Kill BOTH of domain 1's management nodes: no eligible host remains, so
  // the domain goes dark at the root — no successor, no death notices.
  const auto first = farm_->expected_domain_gsc_node(1);
  ASSERT_TRUE(first.has_value());
  farm_->fail_node(*first);
  const auto second = farm_->expected_domain_gsc_node(1);
  ASSERT_TRUE(second.has_value());
  ASSERT_NE(*second, *first);
  farm_->fail_node(*second);
  // After domain_lease of silence the root retires the slice wholesale:
  // every row it owned goes dead and the incarnation is forgotten.
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    proto::RootCentral* root = farm_->active_root_central();
    return root != nullptr && root->domain_count() == 1;
  }));
  proto::RootCentral* root = farm_->active_root_central();
  for (util::AdapterId id :
       farm_->healthy_adapters_in_vlan(farm::domain_admin_vlan(1))) {
    auto status = root->adapter_status(farm_->fabric().adapter(id).ip());
    ASSERT_TRUE(status.has_value());
    EXPECT_FALSE(status->alive);  // stale-info-wins: dark, presumed dead
  }
  // A management node returning re-elects the domain Central, whose fresh
  // epoch re-establishes the slice and revives the rows.
  farm_->recover_node(*first);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(180), [&] {
    proto::RootCentral* r = farm_->active_root_central();
    return r != nullptr && r->domain_count() == 2 && root_caught_up();
  }));
}

// The paper's scaling claim on the real protocol: a 5 202-adapter farm with
// default parameters through discovery, a fault burst and recovery. The
// burst lands at one simulated instant, so no leader can die after it has
// declared a member dead (the only way a death report can be lost), and the
// victims are picked without sparing leaders.
TEST_F(HierFarmTest, FiveThousandAdapterBurstReachesRootAndRecovers) {
  build(52, 48, /*seed=*/7, proto::Params());
  net::Fabric& fabric = farm_->fabric();
  ASSERT_EQ(fabric.adapter_count(), 5202u);
  sim_.run_until(sim_.now() + sim::seconds(5));
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  ASSERT_TRUE(fabric.vlan_index_consistent());

  // 32 of the 2 496 workers at stride 79: domains 0..51 at worker offsets
  // i*31 mod 48, which include worker 47, its data VLAN's leader.
  const std::vector<std::size_t> workers =
      farm_->nodes_with_role(farm::NodeRole::kGeneric);
  std::vector<std::size_t> victims;
  std::set<util::IpAddress> dead;
  for (std::size_t i = 0; i < 32; ++i) {
    victims.push_back(workers[i * 79]);
    for (util::AdapterId a : farm_->node_adapters(victims.back()))
      dead.insert(fabric.adapter(a).ip());
  }
  // Plus the first switch from the middle of the plant up that racks only
  // workers: one racking a domain-management node would turn the burst into
  // a domain-Central failover, which DomainCentralFailoverStandbyTakesOver
  // covers. Workers carry no root-VLAN adapter, so every victim adapter is
  // domain-side.
  auto workers_only = [&](util::SwitchId sw) {
    for (util::AdapterId a : fabric.nic_switch(sw).wired_adapters())
      if (farm_->role(*farm_->node_of(a)) != farm::NodeRole::kGeneric)
        return false;
    return true;
  };
  std::uint32_t sw = static_cast<std::uint32_t>(fabric.switch_count() / 2);
  while (sw < fabric.switch_count() && !workers_only(util::SwitchId(sw))) ++sw;
  ASSERT_LT(sw, fabric.switch_count());
  const util::SwitchId dead_switch(sw);
  for (util::AdapterId a : fabric.nic_switch(dead_switch).wired_adapters())
    dead.insert(fabric.adapter(a).ip());

  // Succession (§2.1) walks a group's ranks one at a time, and each dead
  // rank costs suspect_retries x suspect_retry before the next is tried, so
  // the bound grows with the longest run of dead adapters at the top of a
  // VLAN's rank order. 10 s more covers detection, the successor's probes,
  // the 2PC, the new leader's full report and the uplink's batch.
  long dead_ranks = 0;
  for (util::VlanId vlan : farm_->vlans()) {
    std::vector<util::IpAddress> ranked;
    for (util::AdapterId a : fabric.adapters_in_vlan(vlan))
      ranked.push_back(fabric.adapter(a).ip());
    std::sort(ranked.rbegin(), ranked.rend());
    const auto survivor = std::find_if(
        ranked.begin(), ranked.end(),
        [&](util::IpAddress ip) { return dead.count(ip) == 0; });
    dead_ranks = std::max(dead_ranks, survivor - ranked.begin());
  }
  const sim::SimDuration bound =
      dead_ranks * params_.suspect_retries * params_.suspect_retry +
      sim::seconds(10);

  const sim::SimTime burst = sim_.now();
  for (std::size_t node : victims) farm_->fail_node(node);
  fabric.fail_switch(dead_switch);
  ASSERT_TRUE(farm::run_until(sim_, burst + bound, [&] {
    proto::RootCentral* root = farm_->active_root_central();
    return root != nullptr &&
           std::all_of(dead.begin(), dead.end(), [&](util::IpAddress ip) {
             const auto status = root->adapter_status(ip);
             return status.has_value() && !status->alive;
           });
  })) << "the root did not see all " << dead.size()
      << " victim adapters dead within " << sim::to_seconds(bound) << " s";

  for (std::size_t node : victims) farm_->recover_node(node);
  fabric.recover_switch(dead_switch);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    return farm_->converged() && root_caught_up();
  }));
  // The soak runner's settle window: report retries, the move-window hold
  // and a full group-lease cycle, so the Central tables are final.
  sim_.run_until(sim_.now() + params_.group_lease + params_.move_window +
                 params_.amg_stable_wait + 2 * params_.report_retry +
                 sim::seconds(3));
  EXPECT_TRUE(fabric.vlan_index_consistent());
  EXPECT_TRUE(root_caught_up());
  const auto violations = soak::check_farm_invariants(*farm_);
  EXPECT_TRUE(violations.empty()) << soak::format_violations(violations);
}

}  // namespace
}  // namespace gs
