// Unit tests for the failure-detector strategies, run against a minimal
// in-test message router (no daemon, no fabric): each endpoint owns one
// detector; the router plays the AdapterProtocol's part for ping/poll
// replies and records suspicions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gs/fd.h"
#include "gs/fd_impl.h"
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

class FdHarness {
 public:
  FdHarness(sim::Simulator& sim, Params params, FdKind kind, int n)
      : sim_(sim), params_(params) {
    std::vector<MemberInfo> members;
    for (int i = 1; i <= n; ++i)
      members.push_back(member(static_cast<std::uint8_t>(i)));
    view_ = MembershipView::make(1, members);

    for (const MemberInfo& m : view_.members()) {
      auto& ep = endpoints_[m.ip];
      ep.ip = m.ip;
      FdContext ctx;
      ctx.sim = &sim_;
      ctx.params = &params_;
      ctx.heartbeat_frames = &frames_;
      ctx.self = m.ip;
      ctx.rng = util::Rng(m.ip.bits());
      ctx.send = [this, self = m.ip](util::IpAddress to,
                                     net::Payload frame) {
        route(self, to, std::vector<std::uint8_t>(frame.bytes().begin(),
                                                  frame.bytes().end()));
        return true;
      };
      ctx.suspect = [this, self = m.ip](util::IpAddress suspect) {
        suspicions_.emplace_back(self, suspect);
      };
      ctx.loopback_ok = [this, self = m.ip] {
        return !endpoints_.at(self).recv_dead && !endpoints_.at(self).dead;
      };
      ep.fd = make_failure_detector(kind, std::move(ctx));
    }
    for (auto& [ip, ep] : endpoints_) ep.fd->start(view_);
  }

  void kill(std::uint8_t host) {
    auto& ep = endpoints_.at(member(host).ip);
    ep.dead = true;
    ep.fd->stop();
  }

  void kill_silently(std::uint8_t host) {  // stops sending, keeps receiving
    endpoints_.at(member(host).ip).send_dead = true;
  }

  void make_recv_dead(std::uint8_t host) {
    endpoints_.at(member(host).ip).recv_dead = true;
  }

  [[nodiscard]] std::size_t suspicion_count(std::uint8_t suspect_host) const {
    const util::IpAddress target = member(suspect_host).ip;
    std::size_t n = 0;
    for (const auto& [reporter, suspect] : suspicions_)
      if (suspect == target) ++n;
    return n;
  }

  [[nodiscard]] std::set<util::IpAddress> reporters_of(
      std::uint8_t suspect_host) const {
    const util::IpAddress target = member(suspect_host).ip;
    std::set<util::IpAddress> out;
    for (const auto& [reporter, suspect] : suspicions_)
      if (suspect == target) out.insert(reporter);
    return out;
  }

  [[nodiscard]] std::size_t total_suspicions() const {
    return suspicions_.size();
  }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }

  [[nodiscard]] const MembershipView& view() const { return view_; }

 private:
  struct Endpoint {
    util::IpAddress ip;
    std::unique_ptr<FailureDetector> fd;
    bool dead = false;
    bool send_dead = false;
    bool recv_dead = false;
  };

  void route(util::IpAddress from, util::IpAddress to,
             std::vector<std::uint8_t> frame) {
    ++frames_sent_;
    const auto& src = endpoints_.at(from);
    if (src.dead || src.send_dead) return;
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) return;
    Endpoint& dst = it->second;
    if (dst.dead || dst.recv_dead) return;
    // Small fixed latency keeps causality realistic.
    sim_.after(sim::microseconds(100), [this, from, &dst, frame] {
      if (dst.dead || dst.recv_dead) return;
      deliver(from, dst, frame);
    });
  }

  void deliver(util::IpAddress from, Endpoint& dst,
               const std::vector<std::uint8_t>& bytes) {
    auto decoded = wire::decode_frame(bytes);
    ASSERT_TRUE(decoded.ok());
    switch (static_cast<MsgType>(decoded.frame.type)) {
      case MsgType::kHeartbeat: {
        auto hb = decode<Heartbeat>(decoded.frame.payload);
        ASSERT_TRUE(hb.has_value());
        dst.fd->on_heartbeat(from, *hb);
        break;
      }
      case MsgType::kPing: {
        // The AdapterProtocol normally answers pings; play its part.
        auto ping = decode<Ping>(decoded.frame.payload);
        ASSERT_TRUE(ping.has_value());
        PingAck ack{};
        ack.nonce = ping->nonce;
        ack.target = dst.ip;
        route(dst.ip, ping->origin, to_frame(ack));
        break;
      }
      case MsgType::kPingAck: {
        auto ack = decode<PingAck>(decoded.frame.payload);
        ASSERT_TRUE(ack.has_value());
        dst.fd->on_ping_ack(from, *ack);
        break;
      }
      case MsgType::kPingReq: {
        auto req = decode<PingReq>(decoded.frame.payload);
        ASSERT_TRUE(req.has_value());
        dst.fd->on_ping_req(from, *req);
        break;
      }
      case MsgType::kSubgroupPoll: {
        auto poll = decode<SubgroupPoll>(decoded.frame.payload);
        ASSERT_TRUE(poll.has_value());
        SubgroupPollAck ack{};
        ack.seq = poll->seq;
        route(dst.ip, from, to_frame(ack));
        break;
      }
      case MsgType::kSubgroupPollAck: {
        auto ack = decode<SubgroupPollAck>(decoded.frame.payload);
        ASSERT_TRUE(ack.has_value());
        dst.fd->on_subgroup_poll_ack(from, *ack);
        break;
      }
      default:
        FAIL() << "unexpected message type on fd channel";
    }
  }

  sim::Simulator& sim_;
  Params params_;
  MembershipView view_;
  HeartbeatFrames frames_;
  std::map<util::IpAddress, Endpoint> endpoints_;
  std::vector<std::pair<util::IpAddress, util::IpAddress>> suspicions_;
  std::uint64_t frames_sent_ = 0;
};

Params fd_params() {
  Params p;
  p.hb_period = sim::milliseconds(100);
  p.hb_sensitivity = 2;
  p.resuspect_hold = sim::seconds(10);  // one suspicion per test window
  p.ping_period = sim::milliseconds(200);
  p.ping_timeout = sim::milliseconds(50);
  p.subgroup_size = 3;
  p.subgroup_poll_period = sim::milliseconds(500);
  p.subgroup_poll_misses = 2;
  return p;
}

// --- Healthy steady state -------------------------------------------------------

class FdSteadyState : public ::testing::TestWithParam<FdKind> {};

TEST_P(FdSteadyState, NoFalseSuspicionsWhenHealthy) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), GetParam(), 8);
  sim.run_until(sim::seconds(10));
  EXPECT_EQ(harness.total_suspicions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FdSteadyState,
                         ::testing::Values(FdKind::kUnidirectionalRing,
                                           FdKind::kBidirectionalRing,
                                           FdKind::kAllToAll,
                                           FdKind::kSubgroupRing,
                                           FdKind::kRandomPing));

// --- Detection of a dead member ----------------------------------------------------

class FdDetection : public ::testing::TestWithParam<FdKind> {};

TEST_P(FdDetection, DeadMemberIsSuspected) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), GetParam(), 8);
  sim.run_until(sim::seconds(2));
  harness.kill(4);
  sim.run_until(sim::seconds(2) + sim::seconds(12));
  EXPECT_GE(harness.suspicion_count(4), 1u)
      << "detector " << to_string(GetParam()) << " missed the death";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FdDetection,
                         ::testing::Values(FdKind::kUnidirectionalRing,
                                           FdKind::kBidirectionalRing,
                                           FdKind::kAllToAll,
                                           FdKind::kSubgroupRing,
                                           FdKind::kRandomPing));

// --- Ring-specific behaviour --------------------------------------------------------

TEST(RingFd, UniRingOnlyLeftNeighborReports) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kUnidirectionalRing, 6);
  sim.run_until(sim::seconds(1));
  harness.kill(3);
  sim.run_until(sim::seconds(6));
  // Rank order is 6,5,4,3,2,1; host 3's heartbeats went to host 2 (its
  // right neighbor), so host 2 is the monitor that notices.
  const auto reporters = harness.reporters_of(3);
  ASSERT_EQ(reporters.size(), 1u);
  EXPECT_EQ(*reporters.begin(), util::IpAddress(10, 0, 0, 2));
}

TEST(RingFd, BiRingBothNeighborsReport) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kBidirectionalRing, 6);
  sim.run_until(sim::seconds(1));
  harness.kill(3);
  sim.run_until(sim::seconds(6));
  const auto reporters = harness.reporters_of(3);
  EXPECT_EQ(reporters.size(), 2u);
  EXPECT_TRUE(reporters.count(util::IpAddress(10, 0, 0, 2)));
  EXPECT_TRUE(reporters.count(util::IpAddress(10, 0, 0, 4)));
}

TEST(RingFd, DetectionTimeTracksSensitivity) {
  for (int k : {1, 3}) {
    Params p = fd_params();
    p.hb_sensitivity = k;
    sim::Simulator sim;
    FdHarness harness(sim, p, FdKind::kBidirectionalRing, 4);
    sim.run_until(sim::seconds(1));
    harness.kill(2);
    // Expected detection at roughly (k + 1/2) * period after death.
    const sim::SimTime death = sim.now();
    while (harness.suspicion_count(2) == 0 && sim.now() < sim::seconds(30))
      sim.run_until(sim.now() + sim::milliseconds(10));
    const sim::SimTime latency = sim.now() - death;
    EXPECT_LE(latency, p.hb_period * (k + 2));
    EXPECT_GE(latency, p.hb_period * k / 2);
  }
}

TEST(RingFd, LoopbackTestSuppressesFalseBlame) {
  Params p = fd_params();
  p.fd_loopback_test = true;
  sim::Simulator sim;
  FdHarness harness(sim, p, FdKind::kBidirectionalRing, 4);
  sim.run_until(sim::seconds(1));
  // Host 2 stops receiving; its neighbors still hear it. Without a
  // loopback test host 2 would blame both neighbors.
  harness.make_recv_dead(2);
  sim.run_until(sim::seconds(8));
  EXPECT_EQ(harness.total_suspicions(), 0u);
}

TEST(RingFd, WithoutLoopbackTestRecvDeadBlamesNeighbors) {
  Params p = fd_params();
  p.fd_loopback_test = false;
  sim::Simulator sim;
  FdHarness harness(sim, p, FdKind::kBidirectionalRing, 4);
  sim.run_until(sim::seconds(1));
  harness.make_recv_dead(2);
  sim.run_until(sim::seconds(8));
  // The §3 flaw reproduced: the broken receiver reports healthy neighbors.
  EXPECT_GE(harness.total_suspicions(), 2u);
  EXPECT_GE(harness.suspicion_count(1), 1u);
  EXPECT_GE(harness.suspicion_count(3), 1u);
}

TEST(RingFd, PairGroupMonitorsEachOther) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kBidirectionalRing, 2);
  sim.run_until(sim::seconds(1));
  harness.kill(1);
  sim.run_until(sim::seconds(6));
  EXPECT_GE(harness.suspicion_count(1), 1u);
}

TEST(RingFd, SingletonIsQuiet) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kBidirectionalRing, 1);
  const std::uint64_t before = harness.frames_sent();
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(harness.frames_sent(), before);
  EXPECT_EQ(harness.total_suspicions(), 0u);
}

// One detector on its own, every outgoing frame captured with its send time
// (no router, so the payload objects themselves are observable). It frames
// heartbeats through its own table unless given one to share.
struct SentFrame {
  sim::SimTime at;
  util::IpAddress to;
  net::Payload frame;
};

class StandaloneFd {
 public:
  StandaloneFd(sim::Simulator& sim, FdKind kind, int n, std::uint8_t self,
               HeartbeatFrames* frames = nullptr)
      : sim_(sim),
        params_(fd_params()),
        self_(member(self).ip),
        frames_(frames != nullptr ? *frames : own_frames_) {
    std::vector<MemberInfo> members;
    for (int i = 1; i <= n; ++i)
      members.push_back(member(static_cast<std::uint8_t>(i)));
    view_ = MembershipView::make(1, members);
    rebuild(kind, view_, util::Rng(self));
  }

  // Replaces the detector with a newly built one started on `view`.
  void rebuild(FdKind kind, const MembershipView& view, util::Rng rng) {
    FdContext ctx;
    ctx.sim = &sim_;
    ctx.params = &params_;
    ctx.self = self_;
    ctx.rng = rng;
    ctx.send = [this](util::IpAddress to, net::Payload frame) {
      sent_.push_back(SentFrame{sim_.now(), to, std::move(frame)});
      return true;
    };
    ctx.suspect = [this](util::IpAddress ip) {
      suspected_.emplace_back(sim_.now(), ip);
    };
    ctx.encode_scratch = &scratch_;
    ctx.heartbeat_frames = &frames_;
    fd_.reset();
    fd_ = make_failure_detector(kind, std::move(ctx));
    fd_->start(view);
  }

  [[nodiscard]] FailureDetector& fd() { return *fd_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const HeartbeatFrames& frames() const { return frames_; }
  [[nodiscard]] const std::vector<SentFrame>& sent() const { return sent_; }
  void clear_sent() { sent_.clear(); }
  // Every suspicion raised, with the time it was raised.
  [[nodiscard]] const std::vector<std::pair<sim::SimTime, util::IpAddress>>&
  suspected() const {
    return suspected_;
  }

 private:
  sim::Simulator& sim_;
  Params params_;
  util::IpAddress self_;
  MembershipView view_;
  wire::Writer scratch_;
  HeartbeatFrames own_frames_;
  HeartbeatFrames& frames_;
  std::vector<SentFrame> sent_;
  std::vector<std::pair<sim::SimTime, util::IpAddress>> suspected_;
  std::unique_ptr<FailureDetector> fd_;
};

TEST(RingFd, BiRingSendsOnePayloadToBothNeighboursPerPeriod) {
  sim::Simulator sim;
  StandaloneFd host(sim, FdKind::kBidirectionalRing, 5, 3);
  const sim::SimDuration period = host.params().hb_period;
  // The first send lands in [0, period), so ten periods hold ten rounds.
  sim.run_until(10 * period - 1);
  const auto& sent = host.sent();
  ASSERT_EQ(sent.size(), 20u);
  for (std::size_t i = 0; i < sent.size(); i += 2) {
    const SentFrame& a = sent[i];
    const SentFrame& b = sent[i + 1];
    EXPECT_EQ(a.at, b.at);
    // Ring {5,4,3,2,1}: 3 heartbeats its right (2) and left (4) neighbours.
    EXPECT_EQ(a.to, member(2).ip);
    EXPECT_EQ(b.to, member(4).ip);
    // Framed once per view: both sends of every period share one payload
    // (and its decode cache).
    EXPECT_EQ(a.frame.identity(), sent[0].frame.identity());
    EXPECT_EQ(b.frame.identity(), sent[0].frame.identity());
    auto decoded = wire::decode_frame(a.frame.bytes());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(static_cast<MsgType>(decoded.frame.type), MsgType::kHeartbeat);
    const auto hb = decode<Heartbeat>(decoded.frame.payload);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->view, 1u);
    if (i > 0) {
      EXPECT_EQ(a.at - sent[i - 2].at, period);
    }
  }
}

// Decodes a captured heartbeat frame; nullopt when it is not one.
std::optional<Heartbeat> heartbeat_in(const net::Payload& frame) {
  const auto decoded = wire::decode_frame(frame.bytes());
  if (!decoded.ok() ||
      static_cast<MsgType>(decoded.frame.type) != MsgType::kHeartbeat)
    return std::nullopt;
  return decode<Heartbeat>(decoded.frame.payload);
}

TEST(RingFd, RestartFramesTheNewViewAndStopReleasesIt) {
  sim::Simulator sim;
  StandaloneFd host(sim, FdKind::kBidirectionalRing, 5, 3);
  const sim::SimDuration period = host.params().hb_period;
  sim.run_until(4 * period);
  ASSERT_FALSE(host.sent().empty());
  net::Payload first = host.sent().front().frame;

  // A new view gets its own frame, carrying the new view number, and keeps
  // resending it.
  host.fd().restart(
      MembershipView::make(
          2, {member(5), member(4), member(3), member(2), member(1)}),
      util::Rng(7));
  host.clear_sent();
  sim.run_until(8 * period);
  ASSERT_GE(host.sent().size(), 6u);
  net::Payload second = host.sent().front().frame;
  EXPECT_NE(second.identity(), first.identity());
  for (const SentFrame& f : host.sent())
    EXPECT_EQ(f.frame.identity(), second.identity());
  const auto hb = heartbeat_in(second);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->view, 2u);

  // Past the table and this test's copies, the detector holds the view-2
  // frame (and no longer view 1's), and stop() drops it.
  host.clear_sent();
  first = {};
  second = {};
  EXPECT_EQ(host.frames().live(), 1u);
  host.fd().stop();
  EXPECT_EQ(host.frames().live(), 0u);
}

TEST(RingFd, DetectorsOnOneViewNumberShareItsFrameAcrossGroups) {
  sim::Simulator sim;
  HeartbeatFrames frames;
  // Two AMGs with no member in common, both on view 1, and a third
  // detector of the first AMG's membership on view 2.
  StandaloneFd a(sim, FdKind::kBidirectionalRing, 5, 3, &frames);
  StandaloneFd b(sim, FdKind::kUnidirectionalRing, 23, 23, &frames);
  b.rebuild(FdKind::kUnidirectionalRing,
            MembershipView::make(1, {member(23), member(22), member(21)}),
            util::Rng(23));
  StandaloneFd c(sim, FdKind::kBidirectionalRing, 5, 3, &frames);
  c.rebuild(FdKind::kBidirectionalRing,
            MembershipView::make(
                2, {member(5), member(4), member(3), member(2), member(1)}),
            util::Rng(3));
  sim.run_until(4 * a.params().hb_period);
  ASSERT_FALSE(a.sent().empty());
  ASSERT_FALSE(b.sent().empty());
  ASSERT_FALSE(c.sent().empty());
  for (const StandaloneFd* host : {&a, &b, &c})
    for (const SentFrame& f : host->sent())
      EXPECT_EQ(f.frame.identity(), host->sent().front().frame.identity());
  EXPECT_EQ(a.sent().front().frame.identity(),
            b.sent().front().frame.identity());
  EXPECT_NE(a.sent().front().frame.identity(),
            c.sent().front().frame.identity());
  EXPECT_EQ(heartbeat_in(c.sent().front().frame)->view, 2u);
  EXPECT_EQ(frames.live(), 2u);
}

TEST(RingFd, BiRingPairSendsOneFramePerPeriod) {
  // In a 2-member view left == right: one target, one frame per period.
  sim::Simulator sim;
  StandaloneFd host(sim, FdKind::kBidirectionalRing, 2, 1);
  sim.run_until(10 * host.params().hb_period - 1);
  ASSERT_EQ(host.sent().size(), 10u);
  for (const SentFrame& f : host.sent()) EXPECT_EQ(f.to, member(2).ip);
}

TEST(RingFd, OnHeartbeatConsumesOnlyMonitoredPeersInItsView) {
  sim::Simulator sim;
  StandaloneFd host(sim, FdKind::kBidirectionalRing, 5, 3);
  Heartbeat hb{};
  hb.view = 1;
  EXPECT_TRUE(host.fd().on_heartbeat(member(2).ip, hb));   // right neighbour
  EXPECT_TRUE(host.fd().on_heartbeat(member(4).ip, hb));   // left neighbour
  EXPECT_FALSE(host.fd().on_heartbeat(member(5).ip, hb));  // member, not
                                                           // monitored
  EXPECT_FALSE(host.fd().on_heartbeat(member(9).ip, hb));  // not in the view
  hb.view = 2;
  EXPECT_FALSE(host.fd().on_heartbeat(member(4).ip, hb));  // other view
  hb.view = 1;
  host.fd().stop();
  EXPECT_FALSE(host.fd().on_heartbeat(member(4).ip, hb));  // stopped

  // The randomized pinger has no heartbeat duty and consumes none.
  StandaloneFd pinger(sim, FdKind::kRandomPing, 5, 3);
  EXPECT_FALSE(pinger.fd().on_heartbeat(member(4).ip, hb));
}

// Re-targeting a running detector at a new view must be indistinguishable
// from replacing it with a newly built one: same sends, at the same times,
// with the same bytes (view numbers, poll sequence numbers, ping nonces).
class FdRestart : public ::testing::TestWithParam<FdKind> {};

TEST_P(FdRestart, MatchesAFreshlyBuiltDetector) {
  // Self (9) leads both views, so the subgroup leader's polls are covered.
  const auto next = MembershipView::make(
      2, {member(9), member(8), member(6), member(5), member(4), member(3),
          member(2), member(1)});
  const auto run = [&](bool restart) {
    sim::Simulator sim;
    StandaloneFd host(sim, GetParam(), 9, 9);
    const sim::SimDuration period = host.params().subgroup_poll_period;
    sim.run_until(3 * period + 7);
    const std::size_t before = host.sent().size();
    if (restart)
      host.fd().restart(next, util::Rng(99));
    else
      host.rebuild(GetParam(), next, util::Rng(99));
    sim.run_until(9 * period);
    std::vector<std::tuple<sim::SimTime, util::IpAddress,
                           std::vector<std::uint8_t>>>
        after;
    for (std::size_t i = before; i < host.sent().size(); ++i) {
      const SentFrame& f = host.sent()[i];
      after.emplace_back(f.at, f.to,
                         std::vector<std::uint8_t>(f.frame.bytes().begin(),
                                                   f.frame.bytes().end()));
    }
    return after;
  };
  const auto restarted = run(true);
  EXPECT_FALSE(restarted.empty());
  EXPECT_EQ(restarted, run(false));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FdRestart,
                         ::testing::Values(FdKind::kUnidirectionalRing,
                                           FdKind::kBidirectionalRing,
                                           FdKind::kAllToAll,
                                           FdKind::kSubgroupRing,
                                           FdKind::kRandomPing));

// --- The deadline table ----------------------------------------------------------
//
// One deadline per monitored peer: a heartbeat from the peer moves it in
// place, silence lets it expire into one suspicion and then the suspicion
// hold, stop() cancels them all, and restart() keeps only the peers the new
// view monitors. Self is host 3 of view 1 {6,5,4,3,2,1} (rank 3, so the
// subgroup kind runs no leader polls); view 2 drops host 2.
struct DeadlineCase {
  FdKind kind;
  std::vector<std::uint8_t> monitored;        // in view 1
  std::vector<std::uint8_t> monitored_after;  // in view 2
};

// Names the case in test output (the default would dump its bytes).
void PrintTo(const DeadlineCase& c, std::ostream* os) {
  *os << to_string(c.kind);
}

class FdDeadlineTable : public ::testing::TestWithParam<DeadlineCase> {
 protected:
  static Heartbeat heartbeat(std::uint64_t view) {
    Heartbeat hb{};
    hb.view = view;
    return hb;
  }
  // Delivers one heartbeat in `view` from each of `hosts`; each must be
  // consumed.
  static void beat(FailureDetector& fd, const std::vector<std::uint8_t>& hosts,
                   std::uint64_t view) {
    for (std::uint8_t h : hosts)
      EXPECT_TRUE(fd.on_heartbeat(member(h).ip, heartbeat(view))) << int(h);
  }
  static sim::SimDuration timeout(const Params& p) {
    return p.hb_period * p.hb_sensitivity + p.hb_period / 2;
  }
};

TEST_P(FdDeadlineTable, HeartbeatsMoveEveryDeadline) {
  const DeadlineCase& c = GetParam();
  sim::Simulator sim;
  StandaloneFd host(sim, c.kind, 6, 3);
  const sim::SimDuration period = host.params().hb_period;
  // The send timer plus one deadline per monitored peer.
  ASSERT_EQ(sim.pending_events(), c.monitored.size() + 1);
  for (int round = 1; round <= 50; ++round) {
    sim.run_until(round * period);
    beat(host.fd(), c.monitored, 1);
    // Moved, not added: the count holds while heartbeats flow.
    EXPECT_EQ(sim.pending_events(), c.monitored.size() + 1);
  }
  const sim::SimTime last = 50 * period;
  sim.run_until(last + timeout(host.params()) - 1);
  EXPECT_TRUE(host.suspected().empty());
  // Every deadline counts from its peer's last heartbeat.
  sim.run_until(last + timeout(host.params()));
  ASSERT_EQ(host.suspected().size(), c.monitored.size());
  std::set<util::IpAddress> suspects;
  for (const auto& [at, ip] : host.suspected()) {
    EXPECT_EQ(at, last + timeout(host.params()));
    suspects.insert(ip);
  }
  std::set<util::IpAddress> expected;
  for (std::uint8_t h : c.monitored) expected.insert(member(h).ip);
  EXPECT_EQ(suspects, expected);
}

TEST_P(FdDeadlineTable, SilentPeerExpiresOnceThenHoldsOff) {
  const DeadlineCase& c = GetParam();
  sim::Simulator sim;
  StandaloneFd host(sim, c.kind, 6, 3);
  const Params& p = host.params();
  std::vector<std::uint8_t> talking = c.monitored;
  const std::uint8_t silent = talking.back();
  talking.pop_back();
  for (int round = 1; round <= 10; ++round) {
    sim.run_until(round * p.hb_period);
    beat(host.fd(), c.monitored, 1);
  }
  const sim::SimTime first = 10 * p.hb_period + timeout(p);
  const sim::SimTime second = first + p.resuspect_hold;
  for (int round = 11; sim.now() < second + p.hb_period; ++round) {
    sim.run_until(round * p.hb_period);
    beat(host.fd(), talking, 1);
  }
  using Raised = std::pair<sim::SimTime, util::IpAddress>;
  EXPECT_EQ(host.suspected(),
            (std::vector<Raised>{{first, member(silent).ip},
                                 {second, member(silent).ip}}));
}

TEST_P(FdDeadlineTable, StopCancelsEveryDeadline) {
  const DeadlineCase& c = GetParam();
  sim::Simulator sim;
  StandaloneFd host(sim, c.kind, 6, 3);
  for (int round = 1; round <= 3; ++round) {
    sim.run_until(round * host.params().hb_period);
    beat(host.fd(), c.monitored, 1);
  }
  host.fd().stop();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(sim::seconds(60));
  EXPECT_TRUE(host.suspected().empty());
}

TEST_P(FdDeadlineTable, RestartDropsPeersNoLongerMonitored) {
  const DeadlineCase& c = GetParam();
  sim::Simulator sim;
  StandaloneFd host(sim, c.kind, 6, 3);
  const sim::SimDuration period = host.params().hb_period;
  sim.run_until(period);
  beat(host.fd(), c.monitored, 1);
  host.fd().restart(MembershipView::make(2, {member(6), member(5), member(4),
                                             member(3), member(1)}),
                    util::Rng(7));
  EXPECT_EQ(sim.pending_events(), c.monitored_after.size() + 1);
  EXPECT_FALSE(host.fd().on_heartbeat(member(2).ip, heartbeat(2)));
  EXPECT_FALSE(host.fd().on_heartbeat(member(4).ip, heartbeat(1)));
  // Host 2 stays silent past many of its old deadlines; only the peers the
  // new view monitors are watched, and they keep talking.
  for (int round = 2; round <= 100; ++round) {
    sim.run_until(round * period);
    beat(host.fd(), c.monitored_after, 2);
  }
  EXPECT_TRUE(host.suspected().empty());
}

INSTANTIATE_TEST_SUITE_P(
    HeartbeatKinds, FdDeadlineTable,
    ::testing::Values(
        // Ring neighbours: ranks 2 and 4, then 4 and 1 once host 2 leaves.
        DeadlineCase{FdKind::kBidirectionalRing, {4, 2}, {4, 1}},
        DeadlineCase{FdKind::kAllToAll, {6, 5, 4, 2, 1}, {6, 5, 4, 1}},
        // Subgroups of three: {3,2,1}, then {3,1}.
        DeadlineCase{FdKind::kSubgroupRing, {2, 1}, {1}}),
    [](const ::testing::TestParamInfo<DeadlineCase>& param) {
      switch (param.param.kind) {
        case FdKind::kBidirectionalRing: return std::string("BiRing");
        case FdKind::kAllToAll: return std::string("AllToAll");
        case FdKind::kSubgroupRing: return std::string("Subgroup");
        default: return std::string("Other");
      }
    });

// --- Consensus hints ------------------------------------------------------------------

TEST(FdConsensus, ReporterRequirements) {
  sim::Simulator sim;
  Params p = fd_params();
  HeartbeatFrames frames;
  auto make = [&](FdKind kind) {
    FdContext ctx;
    ctx.sim = &sim;
    ctx.params = &p;
    ctx.heartbeat_frames = &frames;
    ctx.self = member(1).ip;
    ctx.send = [](util::IpAddress, net::Payload) { return true; };
    ctx.suspect = [](util::IpAddress) {};
    return make_failure_detector(kind, std::move(ctx));
  };
  EXPECT_EQ(make(FdKind::kUnidirectionalRing)->consensus_reporters(), 1);
  EXPECT_EQ(make(FdKind::kBidirectionalRing)->consensus_reporters(), 2);
  EXPECT_EQ(make(FdKind::kAllToAll)->consensus_reporters(), 2);
  EXPECT_EQ(make(FdKind::kSubgroupRing)->consensus_reporters(), 1);
  EXPECT_EQ(make(FdKind::kRandomPing)->consensus_reporters(), 1);
}

// --- Subgroup scheme ---------------------------------------------------------------------

TEST(SubgroupFd, SubgroupPartitioning) {
  auto sub = HeartbeatFd::subgroup_of(0, 10, 3);
  EXPECT_EQ(sub, (std::vector<std::size_t>{0, 1, 2}));
  sub = HeartbeatFd::subgroup_of(4, 10, 3);
  EXPECT_EQ(sub, (std::vector<std::size_t>{3, 4, 5}));
  sub = HeartbeatFd::subgroup_of(9, 10, 3);
  EXPECT_EQ(sub, (std::vector<std::size_t>{9}));
}

TEST(SubgroupFd, CatastrophicSubgroupLossDetectedByLeaderPoll) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kSubgroupRing, 9);
  sim.run_until(sim::seconds(1));
  // Rank order: 9..1; subgroups {9,8,7}, {6,5,4}, {3,2,1}. Kill the entire
  // middle subgroup: no in-subgroup monitor survives, so only the leader's
  // low-frequency poll can notice (§4.2).
  harness.kill(6);
  harness.kill(5);
  harness.kill(4);
  sim.run_until(sim::seconds(12));
  EXPECT_GE(harness.suspicion_count(6), 1u);
  EXPECT_GE(harness.suspicion_count(5), 1u);
  EXPECT_GE(harness.suspicion_count(4), 1u);
  // The leader (host 9) must be among the reporters.
  EXPECT_TRUE(harness.reporters_of(5).count(util::IpAddress(10, 0, 0, 9)));
}

TEST(SubgroupFd, SingletonTailSubgroupCoveredByLeaderPoll) {
  // Ten members with subgroups of 3 leave rank 9 alone in the tail chunk:
  // nobody heartbeats it, so only the leader's poll can notice its death.
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kSubgroupRing, 10);
  sim.run_until(sim::seconds(1));
  harness.kill(1);  // rank 9 = lowest IP = host 1
  sim.run_until(sim::seconds(12));
  const auto reporters = harness.reporters_of(1);
  ASSERT_GE(reporters.size(), 1u);
  EXPECT_TRUE(reporters.count(util::IpAddress(10, 0, 0, 10)))
      << "only the leader can detect a dead singleton subgroup";
}

TEST(SubgroupFd, InSubgroupFailureDetectedBySubgroupPeers) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kSubgroupRing, 9);
  sim.run_until(sim::seconds(1));
  harness.kill(5);  // middle subgroup {6,5,4}
  sim.run_until(sim::seconds(4));
  const auto reporters = harness.reporters_of(5);
  EXPECT_GE(reporters.size(), 1u);
  EXPECT_TRUE(reporters.count(util::IpAddress(10, 0, 0, 6)) ||
              reporters.count(util::IpAddress(10, 0, 0, 4)));
}

// --- Randomized pinging --------------------------------------------------------------------

TEST(RandPingFd, IndirectProbesMaskOneWayLossToTarget) {
  // Origin cannot reach the target directly, but proxies can: the indirect
  // path must prevent a false suspicion. We emulate by making the target
  // recv-dead... that blocks proxies too, so instead verify the proxy
  // machinery with a healthy target and direct-timeout forced by a tiny
  // ping timeout (acks arrive after the direct window but within the
  // round).
  Params p = fd_params();
  p.ping_timeout = sim::microseconds(50);  // direct window shorter than RTT
  p.ping_period = sim::milliseconds(300);
  sim::Simulator sim;
  FdHarness harness(sim, p, FdKind::kRandomPing, 5);
  sim.run_until(sim::seconds(10));
  // Direct acks always miss the 50us window, but they still arrive and are
  // accepted before the round ends: no suspicions.
  EXPECT_EQ(harness.total_suspicions(), 0u);
}

TEST(RandPingFd, SilentTargetSuspectedWithinFewPeriods) {
  sim::Simulator sim;
  FdHarness harness(sim, fd_params(), FdKind::kRandomPing, 4);
  sim.run_until(sim::seconds(1));
  harness.kill(2);
  // With 3 live members picking uniformly among 3 peers each 200 ms, the
  // dead member is pinged within a few periods.
  sim.run_until(sim::seconds(8));
  EXPECT_GE(harness.suspicion_count(2), 1u);
}

}  // namespace
}  // namespace gs::proto
