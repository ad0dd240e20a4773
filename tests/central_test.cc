// Unit tests for GulfStream Central driven with synthetic reports — no
// network, no daemons: exact control over report ordering, gaps, and moves.
#include <gtest/gtest.h>

#include "config/configdb.h"
#include "gs/central.h"
#include "net/console.h"
#include "net/fabric.h"

namespace gs::proto {
namespace {

MemberInfo member(std::uint8_t host, std::uint32_t node) {
  MemberInfo m;
  m.ip = util::IpAddress(10, 0, 0, host);
  m.mac = util::MacAddress(host);
  m.node = util::NodeId(node);
  return m;
}

util::IpAddress ip(std::uint8_t host) { return util::IpAddress(10, 0, 0, host); }

class CentralTest : public ::testing::Test {
 protected:
  CentralTest() : fabric_(sim_, util::Rng(1)), console_(fabric_) {
    params_.gsc_stable_wait = sim::seconds(2);
    params_.move_window = sim::seconds(5);
    central_ = std::make_unique<Central>(sim_, params_, &db_, &console_);
    sub_ = central_->event_bus().subscribe(
        [this](const FarmEvent& e) { events_.push_back(e); });
    central_->activate(ip(200));
  }

  // Sends a report; returns the ack.
  ReportAck report(const MembershipReport& rep) {
    ReportAck out;
    central_->handle_report(rep.leader.ip, rep,
                            [&out](const ReportAck& ack) { out = ack; });
    return out;
  }

  MembershipReport full_report(std::uint8_t leader_host, std::uint64_t seq,
                               std::vector<MemberInfo> members,
                               std::uint64_t view = 1) {
    MembershipReport rep;
    rep.seq = seq;
    rep.view = view;
    rep.full = true;
    rep.leader = members.front();
    (void)leader_host;
    rep.added = std::move(members);
    return rep;
  }

  std::size_t count(FarmEvent::Kind kind) const {
    std::size_t n = 0;
    for (const auto& e : events_)
      if (e.kind == kind) ++n;
    return n;
  }

  sim::Simulator sim_;
  Params params_;
  config::ConfigDb db_;
  net::Fabric fabric_;
  net::SwitchConsole console_;
  std::unique_ptr<Central> central_;
  std::vector<FarmEvent> events_;
  obs::Subscription sub_;
};

TEST_F(CentralTest, FullReportEstablishesGroup) {
  auto ack = report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(ack.seq, 1u);
  EXPECT_EQ(central_->known_adapter_count(), 2u);
  EXPECT_EQ(central_->alive_adapter_count(), 2u);
  ASSERT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].members.size(), 2u);
}

TEST_F(CentralTest, DeltaWithoutSnapshotAsksForFull) {
  MembershipReport delta;
  delta.seq = 1;
  delta.full = false;
  delta.leader = member(9, 0);
  delta.added = {member(5, 1)};
  auto ack = report(delta);
  EXPECT_TRUE(ack.need_full);
  EXPECT_EQ(central_->known_adapter_count(), 0u);
}

TEST_F(CentralTest, SequenceGapAsksForFull) {
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  MembershipReport delta;
  delta.seq = 3;  // gap: 2 missing
  delta.full = false;
  delta.leader = member(9, 0);
  delta.added = {member(4, 2)};
  auto ack = report(delta);
  EXPECT_TRUE(ack.need_full);
}

TEST_F(CentralTest, DuplicateReportIsIdempotent) {
  auto rep = full_report(9, 1, {member(9, 0), member(5, 1)});
  report(rep);
  auto ack = report(rep);  // retransmission
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(central_->known_adapter_count(), 2u);
}

TEST_F(CentralTest, RegressedSeqFullSnapshotIsAppliedNotDupAcked) {
  // The leader's record sits at seq 5 when its daemon restarts; the reborn
  // process numbers reports from 1 again. Its full snapshot must be applied
  // — acking it as a duplicate would wedge the record, with every later
  // report from this leader looking stale too.
  report(full_report(9, 5, {member(9, 0), member(5, 1)}));
  auto ack = report(full_report(9, 1, {member(9, 0), member(4, 2)}, 2));
  EXPECT_FALSE(ack.need_full);
  ASSERT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].view, 2u);
  ASSERT_EQ(central_->groups()[0].members.size(), 2u);
  EXPECT_TRUE(central_->adapter_status(ip(4)).has_value());

  // And the record chains off the new numbering: delta seq 2 is no gap.
  MembershipReport delta;
  delta.seq = 2;
  delta.view = 2;
  delta.leader = member(9, 0);
  delta.added = {member(3, 3)};
  EXPECT_FALSE(report(delta).need_full);
  EXPECT_EQ(central_->groups()[0].members.size(), 3u);
}

TEST_F(CentralTest, FullSnapshotWithCollidingSeqButNewViewIsApplied) {
  // A restarted leader numbers from scratch, so its fresh snapshot can
  // collide with last_seq at small values. Only an exact (seq, view) match
  // is a retransmission; a colliding seq under a new view is fresh state
  // and must be applied, not dup-acked.
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  auto ack = report(full_report(9, 1, {member(9, 0), member(4, 2)}, 3));
  EXPECT_FALSE(ack.need_full);
  ASSERT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].view, 3u);
  ASSERT_EQ(central_->groups()[0].members.size(), 2u);
  EXPECT_TRUE(central_->adapter_status(ip(4)).has_value());
  EXPECT_EQ(central_->adapter_status(ip(5))->group_leader, util::IpAddress());

  // An exact retransmission (same seq AND view) is still idempotent.
  report(full_report(9, 1, {member(9, 0), member(4, 2)}, 3));
  ASSERT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].members.size(), 2u);
}

TEST_F(CentralTest, StaleReportFromRetiredLeaderCannotCorruptGroupTable) {
  // Regression: a stale pre-takeover report whose every membership claim is
  // fenced by a fresher view leaves the (re-created) group record empty;
  // its removed-member entries then drove unassign() into erasing that
  // record mid-loop while handle_report still held a reference into it.
  report(full_report(9, 1, {member(9, 0), member(5, 1), member(6, 2)}));

  // Adapter 5 dies: its record keeps group_leader=9 even once failed.
  MembershipReport death;
  death.seq = 2;
  death.view = 1;
  death.leader = member(9, 0);
  death.removed = {{ip(5), RemoveReason::kFailed}};
  report(death);

  // A fresher group (view 5) absorbs 9 and 6; group 9 is retired.
  report(full_report(12, 1, {member(12, 3), member(9, 0), member(6, 2)}, 5));
  ASSERT_EQ(central_->groups().size(), 1u);

  // The stale report from 9 arrives late: its claim of itself is fenced by
  // group 12's fresher view (zero successful claims), and its death list
  // touches both an adapter still recorded under 9 and one group 12 owns.
  MembershipReport stale;
  stale.seq = 3;
  stale.view = 1;
  stale.full = true;
  stale.leader = member(9, 0);
  stale.added = {member(9, 0)};
  stale.removed = {{ip(5), RemoveReason::kLeft}, {ip(6), RemoveReason::kLeft}};
  report(stale);

  // Group 12 is untouched; the stale leader's empty record was swept.
  ASSERT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].leader.ip, ip(12));
  EXPECT_EQ(central_->groups()[0].members.size(), 3u);
  EXPECT_EQ(central_->adapter_status(ip(5))->group_leader, util::IpAddress());
  EXPECT_EQ(central_->adapter_status(ip(6))->group_leader, ip(12));
}

TEST_F(CentralTest, TakeoverSnapshotFailsOldLeaderAndCoDeadHigherRanks) {
  // Leader 9 and member 8, ranked above the successor 7, die at once. 7's
  // takeover snapshot removes both (ascending, as a leader lists its
  // departures). Judged against group 9 as it stood before 7's claims, the
  // takeover absorbed a majority, so 9's death counts and retires its
  // group, and 8 is no longer held by it.
  report(full_report(9, 1,
                     {member(9, 0), member(8, 1), member(7, 2), member(5, 3),
                      member(4, 4)}));
  MembershipReport takeover =
      full_report(7, 1, {member(7, 2), member(5, 3), member(4, 4)}, 2);
  takeover.removed = {{ip(8), RemoveReason::kFailed},
                      {ip(9), RemoveReason::kFailed}};
  report(takeover);
  EXPECT_FALSE(central_->adapter_status(ip(9))->alive);
  EXPECT_FALSE(central_->adapter_status(ip(8))->alive);
  ASSERT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].leader.ip, ip(7));
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 2u);
}

TEST_F(CentralTest, LoneMoverCannotFailItsOldLeader) {
  // Adapter 5 alone leaves group 9 and reports 9 dead from a group of its
  // own: it absorbed one of 9's three other members, not a majority.
  report(full_report(9, 1,
                     {member(9, 0), member(8, 1), member(7, 2), member(5, 3)}));
  MembershipReport lone = full_report(5, 1, {member(5, 3)}, 2);
  lone.removed = {{ip(9), RemoveReason::kFailed}};
  report(lone);
  EXPECT_TRUE(central_->adapter_status(ip(9))->alive);
  EXPECT_TRUE(central_->adapter_status(ip(8))->alive);
}

TEST_F(CentralTest, LoneMoverOutOfThreeMemberGroupCannotFailItsOldLeader) {
  // Counting the mover itself, it holds one of 9's two other members: half
  // is a tie, not a majority.
  report(full_report(9, 1, {member(9, 0), member(8, 1), member(5, 2)}));
  MembershipReport lone = full_report(5, 1, {member(5, 2)}, 2);
  lone.removed = {{ip(9), RemoveReason::kFailed}};
  report(lone);
  EXPECT_TRUE(central_->adapter_status(ip(9))->alive);
  EXPECT_TRUE(central_->adapter_status(ip(8))->alive);
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 0u);
}

TEST_F(CentralTest, MinorityPartitionCannotFailItsOldLeaderOrItsPeers) {
  // {5,4} split from the five-member group 9 and report the other three
  // dead. Two of four is no majority, so 9 keeps its group and 8 and 7
  // stay held by it rather than falling to the partition's claim.
  report(full_report(9, 1,
                     {member(9, 0), member(8, 1), member(7, 2), member(5, 3),
                      member(4, 4)}));
  MembershipReport minority =
      full_report(5, 1, {member(5, 3), member(4, 4)}, 2);
  minority.removed = {{ip(7), RemoveReason::kFailed},
                      {ip(8), RemoveReason::kFailed},
                      {ip(9), RemoveReason::kFailed}};
  report(minority);
  for (util::IpAddress held : {ip(9), ip(8), ip(7)}) {
    EXPECT_TRUE(central_->adapter_status(held)->alive) << held;
    EXPECT_EQ(central_->adapter_status(held)->group_leader, ip(9)) << held;
  }
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 0u);
}

TEST_F(CentralTest, LeaseSweepDisabledWhenRefreshDisabled) {
  // With report_refresh = 0 leaders never renew, so lease expiry must be
  // off too — otherwise every healthy-but-unchanged group would be swept
  // and its whole membership declared dead on schedule.
  params_.report_refresh = 0;
  params_.group_lease = sim::seconds(8);
  Central central(sim_, params_, &db_, &console_);
  central.activate(ip(200));
  auto rep = full_report(9, 1, {member(9, 0), member(5, 1)});
  central.handle_report(rep.leader.ip, rep, [](const ReportAck&) {});
  sim_.run_until(sim_.now() + sim::seconds(40));
  EXPECT_EQ(central.groups().size(), 1u);
  EXPECT_TRUE(central.adapter_status(ip(5))->alive);
}

TEST_F(CentralTest, DuplicateFullReportRenewsGroupLease) {
  params_.group_lease = sim::seconds(8);
  Central central(sim_, params_, &db_, &console_);
  central.activate(ip(200));
  auto rep = full_report(9, 1, {member(9, 0), member(5, 1)});
  const auto send = [&] {
    central.handle_report(rep.leader.ip, rep, [](const ReportAck&) {});
  };
  send();
  // Retransmissions of an already-applied report are first-hand evidence
  // the leader is alive: each duplicate ack must renew the lease, or a
  // leader whose acks keep getting lost would have its whole live group
  // declared dead.
  for (int i = 0; i < 4; ++i) {
    sim_.run_until(sim_.now() + sim::seconds(5));
    send();
  }
  EXPECT_EQ(central.groups().size(), 1u);
  // Real silence past the lease still retires the group.
  sim_.run_until(sim_.now() + sim::seconds(12));
  EXPECT_TRUE(central.groups().empty());
}

TEST_F(CentralTest, GroupLeaseBoundaryIsExclusive) {
  // The lease check is strictly `>`: a group whose last report is EXACTLY
  // group_lease old is still inside its lease, so a report landing on the
  // same tick as the sweep renews a live group instead of racing its
  // retirement.
  params_.group_lease = sim::seconds(8);
  Central central(sim_, params_, &db_, &console_);
  central.activate(ip(200));
  auto rep = full_report(9, 1, {member(9, 0), member(5, 1)});
  central.handle_report(rep.leader.ip, rep, [](const ReportAck&) {});
  // Sweeps run every lease/4 = 2s; the one at t = 8s sees
  // now - last_report == group_lease exactly and must keep the group.
  sim_.run_until(sim::seconds(8));
  ASSERT_EQ(central.groups().size(), 1u);
  EXPECT_TRUE(central.adapter_status(ip(5))->alive);
  // A duplicate arriving on the boundary tick renews the lease...
  central.handle_report(rep.leader.ip, rep, [](const ReportAck&) {});
  sim_.run_until(sim::seconds(14));
  EXPECT_EQ(central.groups().size(), 1u);
  // ...after which real silence past the lease still retires the group.
  sim_.run_until(sim::seconds(20));
  EXPECT_TRUE(central.groups().empty());
}

TEST_F(CentralTest, StaleDeltaAfterLeaseExpiryCannotResurrectGroup) {
  params_.group_lease = sim::seconds(8);
  Central central(sim_, params_, &db_, &console_);
  central.activate(ip(200));
  auto rep = full_report(9, 1, {member(9, 0), member(5, 1)});
  central.handle_report(rep.leader.ip, rep, [](const ReportAck&) {});
  sim_.run_until(sim_.now() + sim::seconds(12));  // silence past the lease
  ASSERT_TRUE(central.groups().empty());
  ASSERT_FALSE(central.adapter_status(ip(5))->alive);
  // A late delta from the swept leader proves nothing about its members: it
  // must be bounced with need_full and must NOT re-create the group or touch
  // the member table — the requested full rebuilds it from scratch.
  MembershipReport delta;
  delta.seq = 2;
  delta.full = false;
  delta.leader = member(9, 0);
  delta.added = {member(4, 2)};
  ReportAck ack;
  central.handle_report(delta.leader.ip, delta,
                        [&ack](const ReportAck& a) { ack = a; });
  EXPECT_TRUE(ack.need_full);
  EXPECT_TRUE(central.groups().empty());
  EXPECT_FALSE(central.adapter_status(ip(4)).has_value());
  EXPECT_FALSE(central.adapter_status(ip(5))->alive);
  // The solicited full re-establishes the group and revives its members.
  auto fresh = full_report(9, 3, {member(9, 0), member(5, 1)}, 2);
  central.handle_report(fresh.leader.ip, fresh, [](const ReportAck&) {});
  ASSERT_EQ(central.groups().size(), 1u);
  EXPECT_TRUE(central.adapter_status(ip(5))->alive);
}

TEST_F(CentralTest, FailureDeltaEmitsAdapterFailedAfterMoveWindow) {
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  MembershipReport delta;
  delta.seq = 2;
  delta.leader = member(9, 0);
  delta.removed = {{ip(5), RemoveReason::kFailed}};
  report(delta);
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 0u);  // held
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 1u);
  EXPECT_FALSE(central_->adapter_status(ip(5))->alive);
}

TEST_F(CentralTest, RejoinWithinWindowBecomesUnexpectedMove) {
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  report(full_report(8, 1, {member(8, 2)}));
  MembershipReport death;
  death.seq = 2;
  death.leader = member(9, 0);
  death.removed = {{ip(5), RemoveReason::kFailed}};
  report(death);

  // The same IP joins another group within the window.
  MembershipReport join;
  join.seq = 2;
  join.leader = member(8, 2);
  join.added = {member(5, 1)};
  report(join);

  sim_.run_until(sim_.now() + params_.move_window * 2);
  EXPECT_EQ(count(FarmEvent::Kind::kUnexpectedMove), 1u);
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 0u);
  EXPECT_TRUE(central_->adapter_status(ip(5))->alive);
}

TEST_F(CentralTest, NodeCorrelationRequiresAllAdaptersDead) {
  db_.put_adapter({util::AdapterId(0), util::NodeId(1), ip(5),
                   util::VlanId(1), util::SwitchId(0), util::PortId(0), false});
  db_.put_adapter({util::AdapterId(1), util::NodeId(1), ip(6),
                   util::VlanId(2), util::SwitchId(0), util::PortId(1), false});
  report(full_report(9, 1, {member(9, 0), member(5, 1), member(6, 1)}));

  MembershipReport death1;
  death1.seq = 2;
  death1.leader = member(9, 0);
  death1.removed = {{ip(5), RemoveReason::kFailed}};
  report(death1);
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kNodeFailed), 0u);  // one of two alive

  MembershipReport death2;
  death2.seq = 3;
  death2.leader = member(9, 0);
  death2.removed = {{ip(6), RemoveReason::kFailed}};
  report(death2);
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kNodeFailed), 1u);
  EXPECT_TRUE(central_->node_down(util::NodeId(1)));
}

TEST_F(CentralTest, MergeRetiresAbsorbedGroup) {
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  report(full_report(7, 1, {member(7, 2), member(3, 3)}));
  EXPECT_EQ(central_->groups().size(), 2u);

  // Group 7 is absorbed by group 9: the next full from 9 claims everyone.
  report(full_report(9, 2,
                     {member(9, 0), member(7, 2), member(5, 1), member(3, 3)}));
  EXPECT_EQ(central_->groups().size(), 1u);
  EXPECT_EQ(central_->groups()[0].members.size(), 4u);
}

TEST_F(CentralTest, StabilityDeclaredAfterQuietPeriod) {
  EXPECT_FALSE(central_->initial_topology_stable());
  report(full_report(9, 1, {member(9, 0)}));
  sim_.run_until(sim_.now() + sim::seconds(1));
  EXPECT_FALSE(central_->initial_topology_stable());
  report(full_report(8, 1, {member(8, 1)}));  // re-arms the timer
  sim_.run_until(sim_.now() + params_.gsc_stable_wait + sim::seconds(1));
  EXPECT_TRUE(central_->initial_topology_stable());
  EXPECT_GT(central_->stable_time(), 0);
  EXPECT_EQ(count(FarmEvent::Kind::kInitialTopologyStable), 1u);
}

TEST_F(CentralTest, DeactivateClearsState) {
  report(full_report(9, 1, {member(9, 0)}));
  central_->deactivate();
  EXPECT_FALSE(central_->active());
  EXPECT_EQ(central_->known_adapter_count(), 0u);
  EXPECT_EQ(count(FarmEvent::Kind::kGscDeactivated), 1u);
  // Reports while inactive are ignored.
  report(full_report(9, 2, {member(9, 0)}));
  EXPECT_EQ(central_->known_adapter_count(), 0u);
}

TEST_F(CentralTest, ReactivationStartsEmpty) {
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  central_->deactivate();
  central_->activate(ip(201));
  EXPECT_TRUE(central_->active());
  EXPECT_EQ(central_->known_adapter_count(), 0u);
  // Deltas referencing the old snapshot are now rejected with need_full.
  MembershipReport delta;
  delta.seq = 2;
  delta.leader = member(9, 0);
  delta.removed = {{ip(5), RemoveReason::kFailed}};
  EXPECT_TRUE(report(delta).need_full);
}

TEST_F(CentralTest, VerifyFlagsWrongVlanUsingMajorityVote) {
  db_.put_adapter({util::AdapterId(0), util::NodeId(0), ip(9),
                   util::VlanId(1), util::SwitchId(0), util::PortId(0), false});
  db_.put_adapter({util::AdapterId(1), util::NodeId(1), ip(5),
                   util::VlanId(1), util::SwitchId(0), util::PortId(1), false});
  db_.put_adapter({util::AdapterId(2), util::NodeId(2), ip(3),
                   util::VlanId(2), util::SwitchId(0), util::PortId(2), false});
  // Adapter 3 (expected on VLAN 2) was discovered in the VLAN-1 group.
  report(full_report(9, 1, {member(9, 0), member(5, 1), member(3, 2)}));
  auto findings = central_->verify_now();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, config::InconsistencyKind::kWrongVlan);
  EXPECT_EQ(findings[0].ip, ip(3));
  EXPECT_EQ(findings[0].expected_vlan, util::VlanId(2));
  EXPECT_EQ(findings[0].discovered_vlan, util::VlanId(1));
  EXPECT_EQ(count(FarmEvent::Kind::kInconsistencyFound), 1u);
}

TEST_F(CentralTest, MoveAdapterRequiresDbRecordAndConsole) {
  EXPECT_FALSE(central_->move_adapter(util::AdapterId(42), util::VlanId(2)));

  // Wire a real adapter through the fabric so the console path works.
  auto sw = fabric_.add_switch(4);
  auto id = fabric_.add_adapter(util::NodeId(1));
  fabric_.attach(id, sw, util::VlanId(1));
  fabric_.set_adapter_ip(id, ip(5));
  db_.put_adapter({id, util::NodeId(1), ip(5), util::VlanId(1), sw,
                   fabric_.adapter(id).attached_port(), false});

  EXPECT_TRUE(central_->move_adapter(id, util::VlanId(2)));
  EXPECT_EQ(fabric_.vlan_of(id), util::VlanId(2));
  EXPECT_EQ(db_.adapter(id)->expected_vlan, util::VlanId(2));
  EXPECT_EQ(count(FarmEvent::Kind::kMoveInitiated), 1u);

  // Expected-move suppression: the failure delta for ip5 emits nothing.
  report(full_report(9, 1, {member(9, 0), member(5, 1)}));
  MembershipReport death;
  death.seq = 2;
  death.leader = member(9, 0);
  death.removed = {{ip(5), RemoveReason::kFailed}};
  report(death);
  sim_.run_until(sim_.now() + params_.move_window + sim::seconds(1));
  EXPECT_EQ(count(FarmEvent::Kind::kAdapterFailed), 0u);

  // The join on the new segment completes the move.
  report(full_report(8, 1, {member(8, 2), member(5, 1)}));
  EXPECT_EQ(count(FarmEvent::Kind::kMoveCompleted), 1u);
}

TEST_F(CentralTest, MoveFailsWhenConsoleUnreachable) {
  auto sw = fabric_.add_switch(4);
  auto id = fabric_.add_adapter(util::NodeId(1));
  fabric_.attach(id, sw, util::VlanId(1));
  fabric_.set_adapter_ip(id, ip(5));
  db_.put_adapter({id, util::NodeId(1), ip(5), util::VlanId(1), sw,
                   fabric_.adapter(id).attached_port(), false});
  console_.set_access_check([] { return false; });
  EXPECT_FALSE(central_->move_adapter(id, util::VlanId(2)));
  EXPECT_EQ(fabric_.vlan_of(id), util::VlanId(1));
}

TEST_F(CentralTest, CentralWithoutDbCannotVerifyOrMove) {
  Central bare(sim_, params_, nullptr, nullptr);
  bare.activate(ip(200));
  EXPECT_FALSE(bare.has_db_access());
  EXPECT_TRUE(bare.verify_now().empty());
  EXPECT_FALSE(bare.move_adapter(util::AdapterId(0), util::VlanId(2)));
  // ... but it still aggregates failure reports (partition GSC, §2.2).
  ReportAck ack;
  MembershipReport rep;
  rep.seq = 1;
  rep.full = true;
  rep.leader = member(9, 0);
  rep.added = {member(9, 0)};
  bare.handle_report(ip(9), rep, [&ack](const ReportAck& a) { ack = a; });
  EXPECT_EQ(bare.known_adapter_count(), 1u);
}

TEST(FarmEventNames, Strings) {
  EXPECT_EQ(to_string(FarmEvent::Kind::kGscActivated), "gsc-activated");
  EXPECT_EQ(to_string(FarmEvent::Kind::kInconsistencyFound), "inconsistency");
  EXPECT_EQ(to_string(FarmEvent::Kind::kMoveCompleted), "move-completed");
}

}  // namespace
}  // namespace gs::proto
