// White-box AdapterProtocol tests: frames are injected by hand and every
// outgoing frame is captured, so each 2PC / commit / stale / probe edge is
// exercised deterministically without a network in between.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "gs/adapter_protocol.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "wire/frame.h"

namespace gs::proto {
namespace {

MemberInfo member(std::uint8_t host) {
  MemberInfo m;
  m.ip = util::IpAddress(10, 0, 0, host);
  m.mac = util::MacAddress(host);
  m.node = util::NodeId(host);
  return m;
}

util::IpAddress ip(std::uint8_t host) { return util::IpAddress(10, 0, 0, host); }

struct SentFrame {
  util::IpAddress to;  // unspecified for beacon multicasts
  MsgType type;
  std::vector<std::uint8_t> payload;
};

class ProtocolUnit : public ::testing::Test {
 protected:
  ProtocolUnit() {
    params_.beacon_phase = sim::seconds(2);
    params_.beacon_interval = sim::seconds(1);
    params_.beacon_setup_min = params_.beacon_setup_max = 0;
    params_.change_debounce = sim::milliseconds(100);
    params_.twopc_timeout = sim::milliseconds(500);
    params_.amg_stable_wait = sim::milliseconds(200);
    // No peer in this harness ever heartbeats, so park the failure detector
    // out of the way: suspicions are injected explicitly where needed.
    params_.hb_period = sim::seconds(1000);
  }

  void make_protocol(std::uint8_t host) {
    AdapterProtocol::NetIface net;
    net.unicast = [this](util::IpAddress to, net::Payload frame) {
      record(to, frame);
      return true;
    };
    net.beacon_multicast = [this](net::Payload frame) {
      record(util::IpAddress(), frame);
      return true;
    };
    net.loopback_ok = [] { return true; };
    AdapterProtocol::Hooks hooks;
    hooks.on_report_pending = [this] { report_pending_ = true; };
    proto_ = std::make_unique<AdapterProtocol>(
        sim_, params_, frames_, member(host), std::move(net), std::move(hooks),
        util::Rng(host));
  }

  void record(util::IpAddress to, const net::Payload& frame) {
    auto decoded = wire::decode_frame(frame.bytes());
    ASSERT_TRUE(decoded.ok());
    sent_.push_back(
        SentFrame{to, static_cast<MsgType>(decoded.frame.type),
                  {decoded.frame.payload.begin(), decoded.frame.payload.end()}});
  }

  // Injects a message as if received from `src`.
  template <typename T>
  HandleResult inject(util::IpAddress src, const T& msg) {
    const auto payload = encode(msg);
    return proto_->handle_frame(src, T::kType, payload);
  }

  // First captured frame of the given type sent to `to`; consumes nothing.
  const SentFrame* find_sent(MsgType type,
                             util::IpAddress to = util::IpAddress()) {
    for (const SentFrame& f : sent_)
      if (f.type == type && (to.is_unspecified() || f.to == to)) return &f;
    return nullptr;
  }

  std::size_t count_sent(MsgType type) {
    std::size_t n = 0;
    for (const SentFrame& f : sent_)
      if (f.type == type) ++n;
    return n;
  }

  // Brings the protocol to a committed 3-member view {9(self-led)…} by
  // letting it win discovery over injected beacons from 5 and 3.
  void form_group_as_leader() {
    make_protocol(9);
    proto_->start();
    Beacon b5{};
    b5.self = member(5);
    inject(ip(5), b5);
    Beacon b3{};
    b3.self = member(3);
    inject(ip(3), b3);
    sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));
    // The coordinator sent Prepare to both; ack them.
    const SentFrame* prep = find_sent(MsgType::kPrepare, ip(5));
    ASSERT_NE(prep, nullptr);
    const auto prepare = decode<Prepare>(prep->payload);
    ASSERT_TRUE(prepare.has_value());
    PrepareAck ack{};
    ack.view = prepare->view;
    ack.ok = true;
    inject(ip(5), ack);
    inject(ip(3), ack);
    ASSERT_TRUE(proto_->is_committed());
    ASSERT_TRUE(proto_->is_leader());
    ASSERT_EQ(proto_->committed().size(), 3u);
    sent_.clear();
  }

  // Commits 5 as a plain member of the view-7 ring {9, 7, 5, 3} with a
  // running 100 ms heartbeat detector: 7 and 3 are its monitored ring
  // neighbours, 9 (the leader) is committed but not a neighbour.
  void join_ring_as_member() {
    params_.hb_period = sim::milliseconds(100);
    make_protocol(5);
    proto_->start();
    Commit commit{};
    commit.view = 7;
    commit.members = {member(9), member(7), member(5), member(3)};
    inject(ip(9), commit);
    ASSERT_EQ(proto_->state(), AdapterState::kMember);
    ASSERT_EQ(proto_->committed().left_of(ip(5)), ip(7));
    ASSERT_EQ(proto_->committed().right_of(ip(5)), ip(3));
    sent_.clear();
  }

  sim::Simulator sim_;
  Params params_;
  HeartbeatFrames frames_;
  std::unique_ptr<AdapterProtocol> proto_;
  std::vector<SentFrame> sent_;
  bool report_pending_ = false;
};

// --- Participant paths ----------------------------------------------------------

TEST_F(ProtocolUnit, PrepareDuringBeaconPhaseIsAckedAndCommitInstalls) {
  make_protocol(5);
  proto_->start();
  // A committed leader (9) absorbs us mid-beacon-phase: the §2.1 fast path.
  Prepare prepare{};
  prepare.view = 7;
  prepare.leader = ip(9);
  prepare.members = {member(9), member(5)};
  inject(ip(9), prepare);
  const SentFrame* ack = find_sent(MsgType::kPrepareAck, ip(9));
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(decode<PrepareAck>(ack->payload)->ok);

  Commit commit{};
  commit.view = 7;
  commit.members = prepare.members;
  inject(ip(9), commit);
  EXPECT_TRUE(proto_->is_committed());
  EXPECT_EQ(proto_->state(), AdapterState::kMember);
  EXPECT_EQ(proto_->leader_ip(), ip(9));
}

TEST_F(ProtocolUnit, StalePrepareIsNacked) {
  make_protocol(5);
  proto_->start();
  Prepare prepare{};
  prepare.view = 7;
  prepare.leader = ip(9);
  prepare.members = {member(9), member(5)};
  inject(ip(9), prepare);
  Commit commit{};
  commit.view = 7;
  commit.members = prepare.members;
  inject(ip(9), commit);
  sent_.clear();

  // An older coordinator retries with a stale view.
  Prepare stale{};
  stale.view = 6;
  stale.leader = ip(8);
  stale.members = {member(8), member(5)};
  inject(ip(8), stale);
  const SentFrame* nack = find_sent(MsgType::kPrepareAck, ip(8));
  ASSERT_NE(nack, nullptr);
  const auto decoded = decode<PrepareAck>(nack->payload);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->holder_view, 7u);
}

TEST_F(ProtocolUnit, PrepareNotListingSelfIsNacked) {
  make_protocol(5);
  proto_->start();
  Prepare prepare{};
  prepare.view = 7;
  prepare.leader = ip(9);
  prepare.members = {member(9), member(4)};  // we are not in it
  inject(ip(9), prepare);
  const SentFrame* nack = find_sent(MsgType::kPrepareAck, ip(9));
  ASSERT_NE(nack, nullptr);
  EXPECT_FALSE(decode<PrepareAck>(nack->payload)->ok);
}

TEST_F(ProtocolUnit, CommitExcludingSelfIsNotInstalled) {
  make_protocol(5);
  proto_->start();
  Prepare prepare{};
  prepare.view = 7;
  prepare.leader = ip(9);
  prepare.members = {member(9), member(5), member(3)};
  inject(ip(9), prepare);

  Commit commit{};
  commit.view = 7;
  commit.members = {member(9), member(3)};  // our ack was lost; excluded
  inject(ip(9), commit);
  EXPECT_FALSE(proto_->is_committed());
}

TEST_F(ProtocolUnit, ImplicitCommitViaGroupTraffic) {
  make_protocol(5);
  proto_->start();
  Prepare prepare{};
  prepare.view = 7;
  prepare.leader = ip(9);
  prepare.members = {member(9), member(5)};
  inject(ip(9), prepare);
  ASSERT_FALSE(proto_->is_committed());

  // The Commit was lost, but a view-7 heartbeat proves it happened.
  Heartbeat hb{};
  hb.view = 7;
  inject(ip(9), hb);
  EXPECT_TRUE(proto_->is_committed());
  EXPECT_EQ(proto_->committed().view(), 7u);
}

TEST_F(ProtocolUnit, SelfContainedCommitInstallsWithoutPrepare) {
  make_protocol(5);
  proto_->start();
  // No Prepare was ever seen (it was lost); the commit carries everything.
  Commit commit{};
  commit.view = 7;
  commit.members = {member(9), member(5)};
  inject(ip(9), commit);
  EXPECT_TRUE(proto_->is_committed());
  EXPECT_EQ(proto_->leader_ip(), ip(9));
}

TEST_F(ProtocolUnit, StaleNoticeResetsMemberToDiscovery) {
  make_protocol(5);
  proto_->start();
  Commit commit{};
  commit.view = 7;
  commit.members = {member(9), member(5)};
  inject(ip(9), commit);
  ASSERT_EQ(proto_->state(), AdapterState::kMember);

  StaleNotice notice{};
  notice.current_view = 9;
  inject(ip(8), notice);
  EXPECT_EQ(proto_->state(), AdapterState::kBeaconing);
  EXPECT_EQ(proto_->stats().resets, 1u);
}

TEST_F(ProtocolUnit, ProbeAnsweredInAnyState) {
  make_protocol(5);
  proto_->start();
  Probe probe{};
  probe.nonce = 0xABC;
  inject(ip(9), probe);
  const SentFrame* ack = find_sent(MsgType::kProbeAck, ip(9));
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(decode<ProbeAck>(ack->payload)->nonce, 0xABCu);
}

TEST_F(ProtocolUnit, PingAnsweredToOrigin) {
  make_protocol(5);
  proto_->start();
  Ping ping{};
  ping.nonce = 0xDEF;
  ping.origin = ip(7);  // proxied: origin differs from transport source
  inject(ip(6), ping);
  const SentFrame* ack = find_sent(MsgType::kPingAck, ip(7));
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(decode<PingAck>(ack->payload)->target, ip(5));
}

// A non-conforming coordinator may send its lists unsorted or with an
// entry repeated. The receiver normalizes what it is given: whichever path
// installs the view (the Commit, or group traffic implying it), and
// whether or not the Commit repeats the Prepare's list, it ends up with
// exactly the view the sorted list yields.
TEST_F(ProtocolUnit, UnsortedOrDuplicatedListsInstallTheNormalizedView) {
  const std::vector<MemberInfo> sorted = {member(9), member(7), member(5),
                                          member(3)};
  const std::vector<std::vector<MemberInfo>> lists = {
      sorted,
      {member(3), member(5), member(7), member(9)},
      {member(5), member(9), member(3), member(7)},
      {member(7), member(9), member(5), member(7), member(3), member(5)},
  };
  const MembershipView expected = MembershipView::make(7, sorted);
  enum class Path { kSameCommit, kSortedCommit, kImplicit };
  for (const auto& list : lists) {
    for (const Path path :
         {Path::kSameCommit, Path::kSortedCommit, Path::kImplicit}) {
      SCOPED_TRACE(static_cast<int>(path));
      sent_.clear();
      make_protocol(5);
      proto_->start();
      Prepare prepare{};
      prepare.view = 7;
      prepare.leader = ip(9);
      prepare.members = list;
      inject(ip(9), prepare);
      const SentFrame* ack = find_sent(MsgType::kPrepareAck, ip(9));
      ASSERT_NE(ack, nullptr);
      EXPECT_TRUE(decode<PrepareAck>(ack->payload)->ok);

      if (path == Path::kImplicit) {
        Heartbeat hb{};
        hb.view = 7;
        inject(ip(7), hb);
      } else {
        Commit commit{};
        commit.view = 7;
        commit.members = path == Path::kSameCommit ? list : sorted;
        inject(ip(9), commit);
      }
      ASSERT_TRUE(proto_->is_committed());
      EXPECT_EQ(proto_->committed(), expected);
      EXPECT_EQ(proto_->committed().left_of(ip(5)), ip(7));
      EXPECT_EQ(proto_->committed().right_of(ip(5)), ip(3));
    }
  }
}

// --- Coordinator paths -------------------------------------------------------------

// The coordinator's send order is part of the pinned behaviour: it fixes
// event sequence numbers, and with them every later tie-break in the
// simulator. Prepares go out in ascending IP order, Commits in rank order.
TEST_F(ProtocolUnit, CoordinatorSendsPreparesByAscendingIpCommitsByRank) {
  const auto destinations = [this](MsgType type) {
    std::vector<util::IpAddress> to;
    for (const SentFrame& f : sent_)
      if (f.type == type) to.push_back(f.to);
    return to;
  };
  const auto beacon = [this](int host) {
    Beacon b{};
    b.self = member(static_cast<std::uint8_t>(host));
    inject(b.self.ip, b);
  };
  const auto prepared_view = [this] {
    const SentFrame* prep = find_sent(MsgType::kPrepare);
    return prep == nullptr ? 0 : decode<Prepare>(prep->payload)->view;
  };
  const auto ack = [this](std::uint64_t view, int host) {
    PrepareAck a{};
    a.view = view;
    a.ok = true;
    inject(ip(static_cast<std::uint8_t>(host)), a);
  };

  make_protocol(9);
  proto_->start();
  for (const int host : {5, 2, 7, 3, 8}) beacon(host);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));
  EXPECT_EQ(destinations(MsgType::kPrepare),
            (std::vector{ip(2), ip(3), ip(5), ip(7), ip(8)}));
  const std::uint64_t formation = prepared_view();
  sent_.clear();
  for (const int host : {7, 2, 8, 5, 3}) ack(formation, host);
  ASSERT_TRUE(proto_->is_committed());
  EXPECT_EQ(destinations(MsgType::kCommit),
            (std::vector{ip(8), ip(7), ip(5), ip(3), ip(2)}));

  // Two newcomers trigger a second round. Retries go only to the silent
  // participants, still in ascending IP order, and the final Commit to the
  // acknowledged subset in rank order.
  sent_.clear();
  for (const int host : {6, 4}) beacon(host);
  sim_.run_until(sim_.now() + params_.change_debounce + sim::milliseconds(1));
  EXPECT_EQ(destinations(MsgType::kPrepare),
            (std::vector{ip(2), ip(3), ip(4), ip(5), ip(6), ip(7), ip(8)}));
  const std::uint64_t growth = prepared_view();
  sent_.clear();
  for (const int host : {8, 3, 6}) ack(growth, host);
  sim_.run_until(sim_.now() + params_.twopc_timeout + sim::milliseconds(1));
  EXPECT_EQ(destinations(MsgType::kPrepare),
            (std::vector{ip(2), ip(4), ip(5), ip(7)}));
  sent_.clear();
  sim_.run_until(sim_.now() + 2 * params_.twopc_timeout);
  EXPECT_EQ(destinations(MsgType::kPrepare),
            (std::vector{ip(2), ip(4), ip(5), ip(7)}));
  EXPECT_EQ(destinations(MsgType::kCommit),
            (std::vector{ip(8), ip(6), ip(3)}));
  EXPECT_EQ(proto_->committed().view(), growth);
  EXPECT_EQ(proto_->committed().size(), 4u);
}

TEST_F(ProtocolUnit, FormationCommitsAckedSubsetAfterTimeouts) {
  make_protocol(9);
  proto_->start();
  Beacon b5{};
  b5.self = member(5);
  inject(ip(5), b5);
  Beacon b3{};
  b3.self = member(3);
  inject(ip(3), b3);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));

  const SentFrame* prep = find_sent(MsgType::kPrepare, ip(5));
  ASSERT_NE(prep, nullptr);
  PrepareAck ack{};
  ack.view = decode<Prepare>(prep->payload)->view;
  ack.ok = true;
  inject(ip(5), ack);  // 3 stays silent

  // Ride out every retry; the commit excludes the silent member.
  sim_.run_until(sim_.now() + 4 * params_.twopc_timeout);
  ASSERT_TRUE(proto_->is_committed());
  EXPECT_EQ(proto_->committed().size(), 2u);
  EXPECT_TRUE(proto_->committed().contains(ip(5)));
  EXPECT_FALSE(proto_->committed().contains(ip(3)));
  // And the commit frame carried the final (reduced) membership.
  const SentFrame* commit = find_sent(MsgType::kCommit, ip(5));
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(decode<Commit>(commit->payload)->members.size(), 2u);
}

TEST_F(ProtocolUnit, NackMakesCoordinatorStepClockAndRetryWithoutHolder) {
  make_protocol(9);
  proto_->start();
  Beacon b5{};
  b5.self = member(5);
  inject(ip(5), b5);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));
  const SentFrame* prep = find_sent(MsgType::kPrepare, ip(5));
  ASSERT_NE(prep, nullptr);
  const std::uint64_t first_view = decode<Prepare>(prep->payload)->view;

  PrepareAck nack{};
  nack.view = first_view;
  nack.ok = false;
  nack.holder_view = 41;  // member is bound to a much newer group
  inject(ip(5), nack);
  sim_.run_until(sim_.now() + params_.change_debounce + sim::milliseconds(10));
  // The coordinator proceeds without the nacker, at a view past the holder.
  ASSERT_TRUE(proto_->is_committed());
  EXPECT_GT(proto_->committed().view(), 41u);
  EXPECT_FALSE(proto_->committed().contains(ip(5)));
}

TEST_F(ProtocolUnit, SuspectAckedAndVerifiedBeforeRemoval) {
  form_group_as_leader();
  Suspect suspect{};
  suspect.view = proto_->committed().view();
  suspect.suspect = ip(3);
  inject(ip(5), suspect);

  // Reporter gets an ack; the suspect gets a verification probe (§2.1).
  EXPECT_NE(find_sent(MsgType::kSuspectAck, ip(5)), nullptr);
  const SentFrame* probe = find_sent(MsgType::kProbe, ip(3));
  ASSERT_NE(probe, nullptr);

  // The suspect answers: suspicion refuted, no removal.
  ProbeAck alive{};
  alive.nonce = decode<Probe>(probe->payload)->nonce;
  inject(ip(3), alive);
  sim_.run_until(sim_.now() + sim::seconds(3));
  EXPECT_TRUE(proto_->committed().contains(ip(3)));
  EXPECT_EQ(proto_->stats().probes_refuted, 1u);
  EXPECT_EQ(proto_->stats().deaths_declared, 0u);
}

TEST_F(ProtocolUnit, UnansweredProbesRemoveTheSuspect) {
  form_group_as_leader();
  Suspect suspect{};
  suspect.view = proto_->committed().view();
  suspect.suspect = ip(3);
  inject(ip(5), suspect);

  // Ride out probe retries, the recommit debounce, and the 2PC; ack the
  // new Prepare so the group recommits without the dead member.
  sim_.run_until(sim_.now() +
                 (params_.probe_retries + 1) * params_.probe_timeout +
                 params_.change_debounce + sim::milliseconds(50));
  const SentFrame* prep = find_sent(MsgType::kPrepare, ip(5));
  ASSERT_NE(prep, nullptr);
  PrepareAck ack{};
  ack.view = decode<Prepare>(prep->payload)->view;
  ack.ok = true;
  inject(ip(5), ack);
  ASSERT_TRUE(proto_->is_committed());
  EXPECT_FALSE(proto_->committed().contains(ip(3)));
  EXPECT_EQ(proto_->stats().deaths_declared, 1u);
}

TEST_F(ProtocolUnit, LeaderReportsFullThenDelta) {
  form_group_as_leader();
  sim_.run_until(sim_.now() + params_.amg_stable_wait + sim::milliseconds(10));
  EXPECT_TRUE(report_pending_);

  MembershipReport full = proto_->build_report();
  EXPECT_TRUE(full.full);
  EXPECT_EQ(full.added.size(), 3u);
  EXPECT_TRUE(full.removed.empty());
  proto_->report_acked(full.seq);

  // Remove member 3 (probes unanswered), recommit, then build the delta.
  // Ack the re-Prepare promptly so member 5 is not dropped as silent too.
  Suspect suspect{};
  suspect.view = proto_->committed().view();
  suspect.suspect = ip(3);
  inject(ip(5), suspect);
  sim_.run_until(sim_.now() +
                 (params_.probe_retries + 1) * params_.probe_timeout +
                 params_.change_debounce + sim::milliseconds(50));
  const SentFrame* prep = find_sent(MsgType::kPrepare, ip(5));
  ASSERT_NE(prep, nullptr);
  PrepareAck ack{};
  ack.view = decode<Prepare>(prep->payload)->view;
  ack.ok = true;
  inject(ip(5), ack);
  ASSERT_FALSE(proto_->committed().contains(ip(3)));

  MembershipReport delta = proto_->build_report();
  EXPECT_FALSE(delta.full);
  EXPECT_TRUE(delta.added.empty());
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0].ip, ip(3));
  EXPECT_EQ(delta.removed[0].reason, RemoveReason::kFailed);
}

TEST_F(ProtocolUnit, LeaderIgnoresHigherIpNonLeaderBeacon) {
  form_group_as_leader();
  Beacon big{};
  big.self = member(200);  // outranks us; it must lead, not join
  inject(ip(200), big);
  sim_.run_until(sim_.now() + sim::seconds(1));
  EXPECT_EQ(count_sent(MsgType::kPrepare), 0u);
}

TEST_F(ProtocolUnit, LeaderMergesIntoHigherLeader) {
  form_group_as_leader();
  Beacon big{};
  big.self = member(200);
  big.is_leader = true;
  big.view = 3;
  inject(ip(200), big);
  const SentFrame* join = find_sent(MsgType::kJoinRequest, ip(200));
  ASSERT_NE(join, nullptr);
  const auto decoded = decode<JoinRequest>(join->payload);
  EXPECT_EQ(decoded->members.size(), 3u);  // we bring our whole group

  // Rate limited: another beacon right away sends nothing new.
  sent_.clear();
  inject(ip(200), big);
  EXPECT_EQ(count_sent(MsgType::kJoinRequest), 0u);
}

TEST_F(ProtocolUnit, JoinRequestSkipsHigherIpStaleClaims) {
  form_group_as_leader();
  JoinRequest join{};
  join.view = 2;
  join.members = {member(4), member(250)};  // 250 would outrank the leader
  inject(ip(4), join);
  sim_.run_until(sim_.now() + params_.change_debounce + sim::milliseconds(10));
  const SentFrame* prep = find_sent(MsgType::kPrepare, ip(4));
  ASSERT_NE(prep, nullptr);
  const auto prepared = decode<Prepare>(prep->payload);
  for (const MemberInfo& m : prepared->members) EXPECT_NE(m.ip, ip(250));
}

TEST_F(ProtocolUnit, ShutdownGoesSilentRestartRediscovers) {
  form_group_as_leader();
  proto_->shutdown();
  EXPECT_EQ(proto_->state(), AdapterState::kIdle);
  sent_.clear();
  sim_.run_until(sim_.now() + sim::seconds(5));
  EXPECT_TRUE(sent_.empty()) << "a shut-down daemon must not transmit";

  proto_->restart();
  EXPECT_EQ(proto_->state(), AdapterState::kBeaconing);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(10));
  EXPECT_TRUE(proto_->is_committed());  // singleton re-formation
}

TEST_F(ProtocolUnit, DeferTimeoutTriesHeardLeaderBeforeSingleton) {
  make_protocol(5);
  proto_->start();
  // A committed higher-IP leader beacons, but its Prepare never arrives
  // (one-way loss, or it never noticed us).
  Beacon b{};
  b.self = member(9);
  b.is_leader = true;
  b.view = 4;
  b.group_size = 2;
  inject(ip(9), b);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));
  ASSERT_EQ(proto_->state(), AdapterState::kWaitingForLeader);

  // First defer expiry: ask the heard leader for membership directly.
  // Forming a singleton next to a live group only to merge moments later
  // would put the whole segment through an extra view change.
  sim_.run_until(sim_.now() + params_.defer_timeout + sim::milliseconds(1));
  EXPECT_NE(find_sent(MsgType::kJoinRequest, ip(9)), nullptr);
  EXPECT_FALSE(proto_->is_committed());

  // Still nothing: the second expiry falls back to the singleton.
  sim_.run_until(sim_.now() + params_.defer_timeout + sim::milliseconds(1));
  ASSERT_TRUE(proto_->is_committed());
  EXPECT_TRUE(proto_->is_leader());
  EXPECT_EQ(proto_->committed().size(), 1u);
}

// --- Discovery state --------------------------------------------------------

TEST_F(ProtocolUnit, DeferJoinIgnoresLeaderWhoseLatestBeaconDisclaimsIt) {
  make_protocol(5);
  proto_->start();
  // 9 beacons as a committed leader, then (after a reset) as a beaconer:
  // the latest beacon wins, so at defer expiry there is nobody to join.
  Beacon b{};
  b.self = member(9);
  b.is_leader = true;
  b.view = 4;
  inject(ip(9), b);
  b.is_leader = false;
  b.view = 0;
  inject(ip(9), b);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));
  ASSERT_EQ(proto_->state(), AdapterState::kWaitingForLeader);

  sim_.run_until(sim_.now() + params_.defer_timeout + sim::milliseconds(1));
  EXPECT_EQ(count_sent(MsgType::kJoinRequest), 0u);
  ASSERT_TRUE(proto_->is_committed());
  EXPECT_EQ(proto_->committed().size(), 1u);
}

TEST_F(ProtocolUnit, DeferJoinTargetsHighestHeardLeader) {
  make_protocol(5);
  proto_->start();
  Beacon b{};
  b.is_leader = true;
  b.view = 4;
  b.self = member(9);
  inject(ip(9), b);
  b.self = member(7);
  inject(ip(7), b);
  b.self = member(3);  // a lower leader is never a join target
  inject(ip(3), b);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));
  ASSERT_EQ(proto_->state(), AdapterState::kWaitingForLeader);

  sim_.run_until(sim_.now() + params_.defer_timeout + sim::milliseconds(1));
  EXPECT_NE(find_sent(MsgType::kJoinRequest, ip(9)), nullptr);
  EXPECT_EQ(count_sent(MsgType::kJoinRequest), 1u);
}

TEST_F(ProtocolUnit, TopCandidateCountsDistinctPeersAndPreparesNonLeaders) {
  obs::TraceBus bus;
  params_.trace = &bus;
  std::vector<std::uint64_t> won;
  auto sub = bus.subscribe(obs::trace_mask({obs::TraceKind::kElectionWon}),
                           [&](const obs::TraceRecord& r) {
                             won.push_back(r.a);
                           });
  make_protocol(9);
  proto_->start();
  Beacon b{};
  // Repeats are one peer each: 5, 3 and 7 are heard, plus 4 below.
  for (const std::uint8_t host : std::initializer_list<std::uint8_t>{
           5, 3, 5, 7, 3}) {
    b.self = member(host);
    inject(ip(host), b);
  }
  b.self = member(4);  // a lower committed leader merges later, not now
  b.is_leader = true;
  inject(ip(4), b);
  b.self = member(7);  // 7's latest beacon claims leadership
  inject(ip(7), b);
  EXPECT_EQ(proto_->heard_entries(), 4u);
  sim_.run_until(sim_.now() + params_.beacon_phase + sim::milliseconds(1));

  ASSERT_EQ(won.size(), 1u);
  EXPECT_EQ(won[0], 4u);
  const SentFrame* prep = find_sent(MsgType::kPrepare);
  ASSERT_NE(prep, nullptr);
  const auto prepare = decode<Prepare>(prep->payload);
  ASSERT_TRUE(prepare.has_value());
  std::set<util::IpAddress> members;
  for (const MemberInfo& m : prepare->members) members.insert(m.ip);
  EXPECT_EQ(members, (std::set<util::IpAddress>{ip(9), ip(5), ip(3)}));
}

TEST_F(ProtocolUnit, HeardSetDroppedOnceHigherIpHeardAndOnShutdown) {
  make_protocol(5);
  proto_->start();
  Beacon b{};
  b.self = member(3);
  inject(ip(3), b);
  b.self = member(4);
  inject(ip(4), b);
  EXPECT_EQ(proto_->heard_entries(), 2u);

  b.self = member(9);
  inject(ip(9), b);
  EXPECT_EQ(proto_->heard_entries(), 0u);
  b.self = member(2);  // never refilled once self cannot win the phase
  inject(ip(2), b);
  EXPECT_EQ(proto_->heard_entries(), 0u);

  proto_->shutdown();
  EXPECT_EQ(proto_->heard_entries(), 0u);
  // A restart begins a fresh phase with an empty set.
  proto_->restart();
  b.self = member(3);
  inject(ip(3), b);
  EXPECT_EQ(proto_->heard_entries(), 1u);
}

TEST_F(ProtocolUnit, StaleNoticeMapPrunedWhenPeerJoins) {
  form_group_as_leader();
  // A stale ex-member heartbeats us: one notice, one rate-limit entry.
  Heartbeat hb{};
  hb.view = proto_->committed().view();
  inject(ip(7), hb);
  EXPECT_NE(find_sent(MsgType::kStaleNotice, ip(7)), nullptr);
  ASSERT_EQ(proto_->stale_notice_entries(), 1u);
  sent_.clear();

  // It re-discovers and joins; installing the view that contains it must
  // drop its rate-limit entry, or the map grows by one entry per stale
  // peer ever heard for as long as we stay committed.
  JoinRequest join{};
  join.members = {member(7)};
  inject(ip(7), join);
  sim_.run_until(sim_.now() + params_.change_debounce + sim::milliseconds(10));
  const SentFrame* prep = find_sent(MsgType::kPrepare, ip(7));
  ASSERT_NE(prep, nullptr);
  PrepareAck ack{};
  ack.view = decode<Prepare>(prep->payload)->view;
  ack.ok = true;
  inject(ip(5), ack);
  inject(ip(3), ack);
  inject(ip(7), ack);
  ASSERT_TRUE(proto_->committed().contains(ip(7)));
  EXPECT_EQ(proto_->stale_notice_entries(), 0u);
}

// --- Heartbeat dispatch ----------------------------------------------------------

TEST_F(ProtocolUnit, HeartbeatFromMonitoredNeighbourRearmsItsDeadline) {
  join_ring_as_member();
  // One second (four deadlines of 2.5 periods) in which only the left
  // neighbour (7) heartbeats: its deadline keeps moving, the silent right
  // neighbour's expires.
  Heartbeat hb{};
  hb.view = 7;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inject(ip(7), hb), HandleResult::kHandled);
    sim_.run_until(sim_.now() + params_.hb_period);
  }
  std::map<util::IpAddress, std::size_t> suspects;
  for (const SentFrame& f : sent_)
    if (f.type == MsgType::kSuspect)
      ++suspects[decode<Suspect>(f.payload)->suspect];
  EXPECT_GE(suspects[ip(3)], 1u);
  EXPECT_EQ(suspects[ip(7)], 0u);
  EXPECT_EQ(count_sent(MsgType::kStaleNotice), 0u);
}

TEST_F(ProtocolUnit, HeartbeatFromCommittedNonNeighbourIsHandledQuietly) {
  join_ring_as_member();
  Heartbeat hb{};
  hb.view = 7;
  EXPECT_EQ(inject(ip(9), hb), HandleResult::kHandled);
  // A stale view from a committed member is not a stale member either.
  hb.view = 6;
  EXPECT_EQ(inject(ip(9), hb), HandleResult::kHandled);
  EXPECT_EQ(count_sent(MsgType::kStaleNotice), 0u);
  EXPECT_EQ(proto_->stale_notice_entries(), 0u);
  EXPECT_EQ(proto_->state(), AdapterState::kMember);
}

TEST_F(ProtocolUnit, HeartbeatFromNonMemberGetsOneStaleNoticePerWindow) {
  join_ring_as_member();
  sim_.run_until(sim_.now() + sim::milliseconds(10));  // now() != 0
  Heartbeat hb{};
  hb.view = 7;  // equal views count as stale (different incarnations)
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(inject(ip(8), hb), HandleResult::kHandled);
  }
  ASSERT_EQ(count_sent(MsgType::kStaleNotice), 1u);
  EXPECT_EQ(find_sent(MsgType::kStaleNotice)->to, ip(8));
  EXPECT_EQ(decode<StaleNotice>(find_sent(MsgType::kStaleNotice)->payload)
                ->current_view,
            7u);

  // Still inside the one-second window: rate-limited.
  sim_.run_until(sim_.now() + sim::milliseconds(900));
  hb.view = 3;
  inject(ip(8), hb);
  EXPECT_EQ(count_sent(MsgType::kStaleNotice), 1u);

  // The window has passed: exactly one more.
  sim_.run_until(sim_.now() + sim::milliseconds(200));
  inject(ip(8), hb);
  inject(ip(8), hb);
  EXPECT_EQ(count_sent(MsgType::kStaleNotice), 2u);
  EXPECT_EQ(proto_->stats().stale_notices_sent, 2u);

  // A newer view is not stale traffic: no notice.
  sim_.run_until(sim_.now() + sim::seconds(2));
  hb.view = 8;
  inject(ip(8), hb);
  EXPECT_EQ(count_sent(MsgType::kStaleNotice), 2u);
}

TEST_F(ProtocolUnit, ProbeAckStatesWhetherResponderLeadsProber) {
  form_group_as_leader();
  Probe probe{};
  probe.nonce = 1;
  inject(ip(5), probe);  // group member
  const SentFrame* in_group = find_sent(MsgType::kProbeAck, ip(5));
  ASSERT_NE(in_group, nullptr);
  EXPECT_TRUE(decode<ProbeAck>(in_group->payload)->leads_prober);

  probe.nonce = 2;
  inject(ip(7), probe);  // stranger
  const SentFrame* stranger = find_sent(MsgType::kProbeAck, ip(7));
  ASSERT_NE(stranger, nullptr);
  EXPECT_FALSE(decode<ProbeAck>(stranger->payload)->leads_prober);
}

TEST_F(ProtocolUnit, TakeoverProceedsWhenProbedLeaderDisownsUs) {
  make_protocol(5);
  proto_->start();
  Commit commit{};
  commit.view = 7;
  commit.members = {member(9), member(5), member(3)};
  inject(ip(9), commit);
  ASSERT_EQ(proto_->state(), AdapterState::kMember);

  // A group-mate reports the leader dead; we are the first successor, so
  // we verify with a probe before assuming leadership.
  Suspect suspect{};
  suspect.view = 7;
  suspect.suspect = ip(9);
  inject(ip(3), suspect);
  const SentFrame* probe = find_sent(MsgType::kProbe, ip(9));
  ASSERT_NE(probe, nullptr);

  // The old leader answers — it is alive — but it restarted (or was
  // absorbed elsewhere) and no longer leads any view containing us. Mere
  // liveness must not veto the succession, or a blipped leader would
  // wedge its orphans into re-suspecting it forever.
  ProbeAck ack{};
  ack.nonce = decode<Probe>(probe->payload)->nonce;
  ack.leads_prober = false;
  inject(ip(9), ack);
  EXPECT_TRUE(proto_->is_leader());
  EXPECT_EQ(proto_->stats().takeovers, 1u);
}

TEST_F(ProtocolUnit, TakeoverStandsDownWhenLeaderStillClaimsUs) {
  make_protocol(5);
  proto_->start();
  Commit commit{};
  commit.view = 7;
  commit.members = {member(9), member(5), member(3)};
  inject(ip(9), commit);
  Suspect suspect{};
  suspect.view = 7;
  suspect.suspect = ip(9);
  inject(ip(3), suspect);
  const SentFrame* probe = find_sent(MsgType::kProbe, ip(9));
  ASSERT_NE(probe, nullptr);

  ProbeAck ack{};
  ack.nonce = decode<Probe>(probe->payload)->nonce;
  ack.leads_prober = true;  // false suspicion: the leader still counts us
  inject(ip(9), ack);
  EXPECT_EQ(proto_->state(), AdapterState::kMember);
  EXPECT_EQ(proto_->stats().takeovers, 0u);
}

}  // namespace
}  // namespace gs::proto
