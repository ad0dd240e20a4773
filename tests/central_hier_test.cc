// Unit tests for the two-level Central hierarchy: RootCentral driven with
// hand-built digests (exact control over seq gaps, epochs, and cross-domain
// races), and DomainUplink wired object-level to a RootCentral (batching,
// retry, need_full recovery, lease renewal) — no network, no daemons.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gs/central.h"
#include "gs/central_hier.h"
#include "obs/spans.h"

namespace gs::proto {
namespace {

MemberInfo member(std::uint8_t host, std::uint32_t node) {
  MemberInfo m;
  m.ip = util::IpAddress(10, 0, 0, host);
  m.mac = util::MacAddress(host);
  m.node = util::NodeId(node);
  return m;
}

util::IpAddress ip(std::uint8_t host) {
  return util::IpAddress(10, 0, 0, host);
}

DomainAdapterEntry entry(std::uint8_t host, std::uint32_t node,
                         std::uint8_t leader_host, std::uint64_t view = 1,
                         bool alive = true) {
  DomainAdapterEntry e;
  e.info = member(host, node);
  e.alive = alive;
  e.group_leader = ip(leader_host);
  e.view = view;
  return e;
}

// --- RootCentral fed hand-built digests -------------------------------------

class RootCentralTest : public ::testing::Test {
 protected:
  RootCentralTest() : root_(sim_, params_) { root_.activate(ip(250)); }

  DomainReportAck send(RootCentral& root, const DomainReport& rep) {
    DomainReportAck out;
    root.handle_domain_report(rep.sender, rep,
                              [&out](const DomainReportAck& a) { out = a; });
    return out;
  }
  DomainReportAck send(const DomainReport& rep) { return send(root_, rep); }

  DomainReport full(std::uint32_t domain, std::uint64_t seq,
                    std::vector<DomainAdapterEntry> entries,
                    std::uint64_t epoch = 1, std::uint8_t sender = 201) {
    DomainReport rep;
    rep.seq = seq;
    rep.epoch = epoch;
    rep.domain = domain;
    rep.full = true;
    rep.sender = ip(sender);
    rep.entries = std::move(entries);
    return rep;
  }

  DomainReport delta(std::uint32_t domain, std::uint64_t seq,
                     std::vector<DomainAdapterEntry> entries,
                     std::uint64_t epoch = 1, std::uint8_t sender = 201) {
    DomainReport rep = full(domain, seq, std::move(entries), epoch, sender);
    rep.full = false;
    return rep;
  }

  sim::Simulator sim_;
  Params params_;
  RootCentral root_;
};

TEST_F(RootCentralTest, FullDigestEstablishesDomain) {
  auto ack = send(full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(ack.seq, 1u);
  EXPECT_EQ(ack.domain, 0u);
  EXPECT_EQ(root_.known_adapter_count(), 2u);
  EXPECT_EQ(root_.alive_adapter_count(), 2u);
  EXPECT_EQ(root_.domain_count(), 1u);
  auto groups = root_.groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].leader, ip(9));
  EXPECT_EQ(groups[0].members.size(), 2u);
}

TEST_F(RootCentralTest, DeltaBeforeFullAsksNeedFull) {
  auto ack = send(delta(0, 1, {entry(5, 2, 9)}));
  EXPECT_TRUE(ack.need_full);
  EXPECT_EQ(root_.known_adapter_count(), 0u);
  EXPECT_EQ(root_.need_fulls_sent(), 1u);
}

TEST_F(RootCentralTest, SeqGapAsksNeedFullThenFullConverges) {
  send(full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  // Delta seq 2 was dropped on the wire; seq 3 arrives first.
  auto ack = send(delta(0, 3, {entry(4, 3, 9)}));
  EXPECT_TRUE(ack.need_full);
  // The gap response must not touch the tables: the dropped delta could
  // have carried anything, so only the solicited full may be trusted.
  EXPECT_FALSE(root_.adapter_status(ip(4)).has_value());
  // The solicited full (the uplink's next seq) converges the root.
  ack = send(full(0, 4, {entry(9, 1, 9), entry(5, 2, 9), entry(4, 3, 9)}));
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(root_.known_adapter_count(), 3u);
  EXPECT_TRUE(root_.adapter_status(ip(4))->alive);
  // Delta flow resumes from the full's seq.
  ack = send(delta(0, 5, {entry(4, 3, 9, 1, false)}));
  EXPECT_FALSE(ack.need_full);
  EXPECT_FALSE(root_.adapter_status(ip(4))->alive);
}

TEST_F(RootCentralTest, DuplicateDigestAckedIdempotently) {
  auto rep = full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)});
  send(rep);
  auto ack = send(rep);  // retransmission
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(root_.known_adapter_count(), 2u);
  EXPECT_EQ(root_.reports_received(), 2u);
}

TEST_F(RootCentralTest, EpochBumpReplacesDomainSlice) {
  send(full(0, 5, {entry(9, 1, 9), entry(5, 2, 9)}, /*epoch=*/1));
  // The domain Central restarted: new epoch, seq space from scratch, and a
  // table that no longer contains adapter 5. The root must accept the new
  // incarnation (not dup-ack its low seq) and drop the forgotten row.
  auto ack = send(full(0, 1, {entry(9, 1, 9)}, /*epoch=*/2));
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(root_.known_adapter_count(), 1u);
  EXPECT_FALSE(root_.adapter_status(ip(5)).has_value());
}

TEST_F(RootCentralTest, StaleIncarnationDeltaAsksNeedFull) {
  send(full(0, 1, {entry(9, 1, 9)}, /*epoch=*/2));
  // A delta still numbered in the pre-restart incarnation's seq space must
  // be bounced, never spliced into the new incarnation's sequence.
  auto ack = send(delta(0, 2, {entry(5, 2, 9)}, /*epoch=*/1));
  EXPECT_TRUE(ack.need_full);
  EXPECT_FALSE(root_.adapter_status(ip(5)).has_value());
  // Same rule for a standby uplink taking over under a different sender IP.
  ack = send(delta(0, 2, {entry(5, 2, 9)}, /*epoch=*/2, /*sender=*/202));
  EXPECT_TRUE(ack.need_full);
}

TEST_F(RootCentralTest, CrossDomainMoveTransfersOwnership) {
  send(full(0, 1, {entry(9, 1, 9)}));
  // The node moved into domain 1, whose Central now reports the adapter
  // alive: the alive claim transfers ownership of the row.
  send(full(1, 1, {entry(9, 1, 9)}, 1, /*sender=*/202));
  ASSERT_TRUE(root_.adapter_status(ip(9)).has_value());
  EXPECT_EQ(root_.adapter_status(ip(9))->domain, 1u);
  // Domain 0's stale verdicts about the departed adapter are fenced: its
  // death claim must not kill the row the new owner renews...
  auto dead = delta(0, 2, {entry(9, 1, 9, 1, /*alive=*/false)});
  send(dead);
  EXPECT_TRUE(root_.adapter_status(ip(9))->alive);
  EXPECT_EQ(root_.adapter_status(ip(9))->domain, 1u);
  // ...and neither may its removal.
  DomainReport rm = delta(0, 3, {});
  rm.removed = {ip(9)};
  send(rm);
  EXPECT_TRUE(root_.adapter_status(ip(9)).has_value());
}

TEST_F(RootCentralTest, RemovedAdapterDropsFromTables) {
  send(full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  DomainReport rm = delta(0, 2, {});
  rm.removed = {ip(5)};
  auto ack = send(rm);
  EXPECT_FALSE(ack.need_full);
  EXPECT_EQ(root_.known_adapter_count(), 1u);
  EXPECT_FALSE(root_.adapter_status(ip(5)).has_value());
}

TEST_F(RootCentralTest, DomainLeaseExpiryMarksSliceDead) {
  params_.domain_lease = sim::seconds(8);
  params_.domain_refresh = sim::seconds(3);
  RootCentral root(sim_, params_);
  root.activate(ip(250));
  send(root, full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  // The whole domain goes silent past its lease: nobody is left to send
  // the deaths, so the root marks every owned row dead wholesale and
  // forgets the incarnation.
  sim_.run_until(sim_.now() + sim::seconds(12));
  ASSERT_TRUE(root.adapter_status(ip(5)).has_value());
  EXPECT_FALSE(root.adapter_status(ip(5))->alive);
  EXPECT_TRUE(root.adapter_status(ip(5))->group_leader.is_unspecified());
  EXPECT_EQ(root.domain_count(), 0u);
  EXPECT_TRUE(root.groups().empty());
  // The next contact must re-establish with a full.
  auto ack = send(root, delta(0, 2, {entry(5, 2, 9)}));
  EXPECT_TRUE(ack.need_full);
  ack = send(root, full(0, 3, {entry(9, 1, 9), entry(5, 2, 9)}));
  EXPECT_FALSE(ack.need_full);
  EXPECT_TRUE(root.adapter_status(ip(5))->alive);
}

TEST_F(RootCentralTest, LeaseSweepDisabledWhenRefreshDisabled) {
  // With domain_refresh = 0 uplinks never renew, so lease expiry must be
  // off too — otherwise every healthy-but-quiet domain would be swept and
  // its whole slice marked dead on schedule.
  params_.domain_refresh = 0;
  params_.domain_lease = sim::seconds(8);
  RootCentral root(sim_, params_);
  root.activate(ip(250));
  send(root, full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  sim_.run_until(sim_.now() + sim::seconds(40));
  EXPECT_EQ(root.domain_count(), 1u);
  EXPECT_TRUE(root.adapter_status(ip(5))->alive);
}

TEST_F(RootCentralTest, RejectedDeltaFromKnownDomainRenewsLease) {
  params_.domain_lease = sim::seconds(8);
  params_.domain_refresh = sim::seconds(3);
  RootCentral root(sim_, params_);
  root.activate(ip(250));
  send(root, full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  // The uplink is alive and mid-recovery: every delta past a gap is bounced
  // with need_full, and each bounce still renews the domain lease without
  // touching the row table.
  for (int i = 0; i < 4; ++i) {
    sim_.run_until(sim_.now() + sim::seconds(5));
    auto ack = send(root, delta(0, 3, {entry(4, 3, 9)}));
    EXPECT_TRUE(ack.need_full);
  }
  EXPECT_EQ(root.domain_count(), 1u);
  EXPECT_TRUE(root.adapter_status(ip(5))->alive);
  EXPECT_FALSE(root.adapter_status(ip(4)).has_value());
  // Real silence past the lease still retires the domain.
  sim_.run_until(sim_.now() + sim::seconds(12));
  EXPECT_EQ(root.domain_count(), 0u);
  EXPECT_FALSE(root.adapter_status(ip(5))->alive);
}

TEST_F(RootCentralTest, DuplicateDigestRenewsLease) {
  params_.domain_lease = sim::seconds(8);
  params_.domain_refresh = sim::seconds(3);
  RootCentral root(sim_, params_);
  root.activate(ip(250));
  send(root, full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)}));
  auto rep = delta(0, 2, {entry(4, 3, 9)});
  send(root, rep);
  // Retransmissions of an already-applied digest are first-hand evidence
  // the uplink is alive: each duplicate ack must renew the lease, or an
  // uplink whose acks keep getting lost would have its live slice marked
  // dead. (A duplicated delta, unlike a full, cannot re-establish an
  // expired domain, so a missed renewal shows as need_full here.)
  for (int i = 0; i < 4; ++i) {
    sim_.run_until(sim_.now() + sim::seconds(5));
    EXPECT_FALSE(send(root, rep).need_full);
  }
  EXPECT_EQ(root.domain_count(), 1u);
  EXPECT_TRUE(root.adapter_status(ip(4))->alive);
  // Real silence past the lease still retires the domain.
  sim_.run_until(sim_.now() + sim::seconds(12));
  EXPECT_EQ(root.domain_count(), 0u);
}

TEST_F(RootCentralTest, DomainLeaseBoundaryIsExclusive) {
  // The lease check is strictly `>`: a domain whose last digest is EXACTLY
  // domain_lease old is still inside its lease, so a digest landing on the
  // same tick as the sweep renews a live domain instead of racing its
  // expiry.
  params_.domain_lease = sim::seconds(8);
  params_.domain_refresh = sim::seconds(3);
  RootCentral root(sim_, params_);
  root.activate(ip(250));
  auto rep = full(0, 1, {entry(9, 1, 9), entry(5, 2, 9)});
  send(root, rep);
  // Sweeps run every lease/4 = 2s; the one at t = 8s sees
  // now - last_report == domain_lease exactly and must keep the domain.
  sim_.run_until(sim::seconds(8));
  ASSERT_EQ(root.domain_count(), 1u);
  EXPECT_TRUE(root.adapter_status(ip(5))->alive);
  // A duplicate arriving on the boundary tick renews the lease...
  send(root, rep);
  sim_.run_until(sim::seconds(14));
  EXPECT_EQ(root.domain_count(), 1u);
  // ...after which real silence past the lease still retires the domain.
  sim_.run_until(sim::seconds(20));
  EXPECT_EQ(root.domain_count(), 0u);
}

TEST_F(RootCentralTest, ReactivationStartsEmpty) {
  send(full(0, 1, {entry(9, 1, 9)}));
  root_.deactivate();
  EXPECT_FALSE(root_.active());
  root_.activate(ip(250));
  EXPECT_EQ(root_.known_adapter_count(), 0u);
  // Deltas from before the bounce hit the empty instance and are bounced.
  auto ack = send(delta(0, 2, {entry(5, 2, 9)}));
  EXPECT_TRUE(ack.need_full);
}

TEST_F(RootCentralTest, NodeDownRequiresAllAdaptersDead) {
  send(full(0, 1, {entry(9, 1, 9), entry(5, 1, 9), entry(4, 2, 9)}));
  send(delta(0, 2, {entry(9, 1, 9, 1, false)}));
  EXPECT_FALSE(root_.node_down(util::NodeId(1)));
  send(delta(0, 3, {entry(5, 1, 9, 1, false)}));
  EXPECT_TRUE(root_.node_down(util::NodeId(1)));
  EXPECT_FALSE(root_.node_down(util::NodeId(2)));
}

// --- DomainUplink wired to a RootCentral ------------------------------------

class UplinkTest : public ::testing::Test {
 protected:
  UplinkTest() {
    params_.trace = &bus_;
    params_.report_retry = sim::seconds(2);
    params_.domain_refresh = sim::seconds(3);
    params_.domain_lease = sim::seconds(8);
    tracker_ = std::make_unique<obs::SpanTracker>(bus_);
    central_ = std::make_unique<Central>(sim_, params_, nullptr, nullptr);
    root_ = std::make_unique<RootCentral>(sim_, params_);
    DomainUplink::Iface iface;
    iface.send = [this](const DomainReport& rep) {
      ++sends_;
      if (drop_sends_ > 0) {
        --drop_sends_;
        return;
      }
      root_->handle_domain_report(
          rep.sender, rep,
          [this](const DomainReportAck& ack) { uplink_->handle_ack(ack); });
    };
    iface.root_ip = [this] { return root_ip_; };
    uplink_ = std::make_unique<DomainUplink>(sim_, params_, *central_,
                                             /*domain=*/2, ip(201), iface);
    root_->activate(ip(250));
    central_->activate(ip(200));
  }

  // Feeds one leader report into the observed domain Central; the first
  // member is the leader.
  void leader_report(std::uint8_t /*leader_host*/, std::uint64_t seq,
                     std::vector<MemberInfo> members, std::uint64_t view = 1,
                     bool is_full = true) {
    MembershipReport rep;
    rep.seq = seq;
    rep.view = view;
    rep.full = is_full;
    rep.leader = members.front();
    rep.added = std::move(members);
    central_->handle_report(rep.leader.ip, rep, [](const ReportAck&) {});
  }

  void run_for(sim::SimDuration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulator sim_;
  Params params_;
  obs::TraceBus bus_;
  std::unique_ptr<obs::SpanTracker> tracker_;
  std::unique_ptr<Central> central_;
  std::unique_ptr<RootCentral> root_;
  std::unique_ptr<DomainUplink> uplink_;
  util::IpAddress root_ip_ = util::IpAddress(10, 0, 0, 250);
  int sends_ = 0;
  int drop_sends_ = 0;
};

TEST_F(UplinkTest, BatchesManyChangesIntoOneFullDigest) {
  leader_report(9, 1, {member(9, 1), member(5, 2), member(4, 3)});
  EXPECT_EQ(uplink_->reports_sent(), 0u);  // still inside the batch window
  run_for(sim::milliseconds(300));
  // Three table changes, ONE digest frame.
  EXPECT_EQ(uplink_->reports_sent(), 1u);
  EXPECT_EQ(root_->known_adapter_count(), 3u);
  EXPECT_EQ(root_->domain_count(), 1u);
  ASSERT_TRUE(root_->adapter_status(ip(5)).has_value());
  EXPECT_EQ(root_->adapter_status(ip(5))->domain, 2u);
  EXPECT_EQ(root_->adapter_status(ip(5))->group_leader, ip(9));
  auto groups = root_->groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 3u);
}

TEST_F(UplinkTest, SteadyStateChangesFlowAsDeltas) {
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  ASSERT_EQ(root_->known_adapter_count(), 2u);
  // One member leaves, another joins, inside one batch window: one delta.
  const auto sent_before = uplink_->reports_sent();
  leader_report(9, 2, {member(9, 1), member(4, 3)});
  run_for(sim::milliseconds(300));
  EXPECT_EQ(uplink_->reports_sent(), sent_before + 1);
  EXPECT_TRUE(root_->adapter_status(ip(4))->alive);
  // Adapter 5 silently absent from the leader's snapshot: unassigned, and
  // the root's derived group reflects the new membership.
  auto groups = root_->groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 2u);
}

TEST_F(UplinkTest, DroppedDigestIsRetriedUntilAcked) {
  drop_sends_ = 1;
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  EXPECT_EQ(root_->known_adapter_count(), 0u);  // first send lost
  EXPECT_TRUE(uplink_->report_outstanding());
  run_for(params_.report_retry + sim::milliseconds(100));
  EXPECT_EQ(root_->known_adapter_count(), 2u);
  EXPECT_FALSE(uplink_->report_outstanding());
  EXPECT_EQ(sends_, 2);
}

TEST_F(UplinkTest, RootBounceRecoversViaNeedFull) {
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  ASSERT_EQ(root_->known_adapter_count(), 2u);
  // The root GSC process bounces (same IP, so no uplink-side root change):
  // its tables restart empty and the next delta must be bounced with
  // need_full, which makes the uplink re-establish with a full digest.
  root_->deactivate();
  root_->activate(ip(250));
  ASSERT_EQ(root_->known_adapter_count(), 0u);
  leader_report(9, 2, {member(9, 1), member(5, 2), member(4, 3)});
  run_for(sim::seconds(1));
  EXPECT_EQ(root_->need_fulls_sent(), 1u);
  EXPECT_EQ(root_->known_adapter_count(), 3u);
  EXPECT_EQ(root_->domain_count(), 1u);
}

TEST_F(UplinkTest, CentralReactivationBumpsEpochAndResendsFull) {
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  EXPECT_EQ(uplink_->epoch(), 1u);
  // The domain Central bounces: fresh epoch, fresh seq space, and the root
  // replaces the domain's slice from the new incarnation's full.
  central_->deactivate();
  central_->activate(ip(200));
  EXPECT_EQ(uplink_->epoch(), 2u);
  leader_report(9, 1, {member(9, 1)});  // adapter 5 not rediscovered
  run_for(sim::milliseconds(300));
  EXPECT_EQ(root_->known_adapter_count(), 1u);
  EXPECT_FALSE(root_->adapter_status(ip(5)).has_value());
}

TEST_F(UplinkTest, RefreshRenewsDomainLease) {
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  // Nothing changes for several leases; the periodic full refresh must keep
  // renewing the domain at the root.
  run_for(sim::seconds(20));
  EXPECT_EQ(root_->domain_count(), 1u);
  EXPECT_TRUE(root_->adapter_status(ip(5))->alive);
  // Silence the uplink outright: the domain expires wholesale.
  uplink_->halt();
  run_for(sim::seconds(12));
  EXPECT_EQ(root_->domain_count(), 0u);
  EXPECT_FALSE(root_->adapter_status(ip(5))->alive);
}

TEST_F(UplinkTest, DeactivationDropsOutstandingDigest) {
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  ASSERT_FALSE(uplink_->report_outstanding());
  // A delta goes out and every copy is lost; then the domain Central is
  // demoted (a senior standby returned) with the digest still in flight.
  drop_sends_ = 1000;
  leader_report(9, 2, {member(9, 1)});
  run_for(sim::milliseconds(300));
  ASSERT_TRUE(uplink_->report_outstanding());
  const int sends_at_demotion = sends_;
  central_->deactivate();
  // The drop must be announced (kDomainReportDropped) so the span tracker
  // abandons the in-flight digest's span instead of leaking it...
  EXPECT_FALSE(uplink_->report_outstanding());
  EXPECT_EQ(tracker_->open_count(obs::SpanKind::kDomainReport), 0u);
  EXPECT_EQ(tracker_->abandoned(obs::SpanKind::kDomainReport,
                                obs::AbandonCause::kDemoted),
            1u);
  // ...and the demoted standby must stay silent: no retries, no refreshes.
  run_for(sim::seconds(20));
  EXPECT_EQ(sends_, sends_at_demotion);
}

TEST_F(UplinkTest, SpanBooksBalanceAcrossRecovery) {
  leader_report(9, 1, {member(9, 1), member(5, 2)});
  run_for(sim::milliseconds(300));
  drop_sends_ = 1;
  leader_report(9, 2, {member(9, 1), member(5, 2), member(4, 3)});
  run_for(sim::seconds(3));
  root_->deactivate();
  root_->activate(ip(250));
  leader_report(9, 3, {member(9, 1), member(4, 3)});
  run_for(sim::seconds(3));
  const auto k = obs::SpanKind::kDomainReport;
  EXPECT_EQ(tracker_->opened(k),
            tracker_->closed(k) + tracker_->abandoned(k) +
                tracker_->open_count(k));
  EXPECT_EQ(tracker_->open_count(k), 0u);
}

}  // namespace
}  // namespace gs::proto
