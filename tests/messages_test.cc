// Unit tests for protocol message codecs: round-trips, malformed rejection.
#include <gtest/gtest.h>

#include "gs/messages.h"
#include "util/rng.h"
#include "wire/frame.h"

namespace gs::proto {
namespace {

MemberInfo member(std::uint8_t host, std::uint32_t node = 1,
                  bool eligible = false) {
  MemberInfo m;
  m.ip = util::IpAddress(10, 0, 0, host);
  m.mac = util::MacAddress(0x020000000000ull + host);
  m.node = util::NodeId(node);
  m.central_eligible = eligible;
  return m;
}

template <typename T, typename Decoder>
T round_trip(const T& msg, Decoder decoder) {
  auto payload = encode(msg);
  auto decoded = decoder(payload);
  EXPECT_TRUE(decoded.has_value());
  return *decoded;
}

TEST(Messages, MemberInfoRoundTrip) {
  wire::Writer w;
  encode_member(w, member(7, 3, true));
  auto bytes = w.take();
  wire::Reader r(bytes);
  const MemberInfo out = decode_member(r);
  EXPECT_TRUE(r.finish());
  EXPECT_EQ(out, member(7, 3, true));
}

TEST(Messages, BeaconRoundTrip) {
  Beacon b;
  b.self = member(9, 2, true);
  b.is_leader = true;
  b.view = 42;
  b.group_size = 17;
  const Beacon out = round_trip(b, decode_Beacon);
  EXPECT_EQ(out.self, b.self);
  EXPECT_TRUE(out.is_leader);
  EXPECT_EQ(out.view, 42u);
  EXPECT_EQ(out.group_size, 17u);
}

TEST(Messages, JoinRequestRoundTrip) {
  JoinRequest j;
  j.view = 5;
  j.members = {member(1), member(2), member(3)};
  const JoinRequest out = round_trip(j, decode_JoinRequest);
  EXPECT_EQ(out.view, 5u);
  EXPECT_EQ(out.members, j.members);
}

TEST(Messages, PrepareRoundTrip) {
  Prepare p;
  p.view = 8;
  p.leader = util::IpAddress(10, 0, 0, 9);
  p.members = {member(9), member(4)};
  const Prepare out = round_trip(p, decode_Prepare);
  EXPECT_EQ(out.view, 8u);
  EXPECT_EQ(out.leader, p.leader);
  EXPECT_EQ(out.members, p.members);
}

TEST(Messages, PrepareAckRoundTrip) {
  PrepareAck a;
  a.view = 3;
  a.ok = false;
  a.holder_view = 7;
  const PrepareAck out = round_trip(a, decode_PrepareAck);
  EXPECT_EQ(out.view, 3u);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.holder_view, 7u);
}

TEST(Messages, CommitHeartbeatRoundTrip) {
  Commit c;
  c.view = 11;
  EXPECT_EQ(round_trip(c, decode_Commit).view, 11u);

  Heartbeat hb;
  hb.view = 12;
  EXPECT_EQ(encode(hb).size(), 8u);  // {view} and nothing else
  EXPECT_EQ(round_trip(hb, decode_Heartbeat).view, 12u);
}

TEST(Messages, SuspectFamilyRoundTrip) {
  Suspect s;
  s.view = 4;
  s.suspect = util::IpAddress(10, 0, 0, 3);
  const Suspect so = round_trip(s, decode_Suspect);
  EXPECT_EQ(so.suspect, s.suspect);

  SuspectAck ack;
  ack.view = 4;
  ack.suspect = s.suspect;
  EXPECT_EQ(round_trip(ack, decode_SuspectAck).suspect, s.suspect);
}

TEST(Messages, ProbeFamilyRoundTrip) {
  Probe p;
  p.nonce = 0xFEEDull;
  EXPECT_EQ(round_trip(p, decode_Probe).nonce, 0xFEEDull);
  ProbeAck a;
  a.nonce = 0xBEEFull;
  EXPECT_EQ(round_trip(a, decode_ProbeAck).nonce, 0xBEEFull);
}

TEST(Messages, StaleNoticeRoundTrip) {
  StaleNotice n;
  n.current_view = 77;
  EXPECT_EQ(round_trip(n, decode_StaleNotice).current_view, 77u);
}

TEST(Messages, MembershipReportFullRoundTrip) {
  MembershipReport rep;
  rep.seq = 2;
  rep.view = 10;
  rep.full = true;
  rep.leader = member(9);
  rep.added = {member(9), member(5), member(2)};
  const MembershipReport out = round_trip(rep, decode_MembershipReport);
  EXPECT_TRUE(out.full);
  EXPECT_EQ(out.leader, rep.leader);
  EXPECT_EQ(out.added, rep.added);
  EXPECT_TRUE(out.removed.empty());
}

TEST(Messages, MembershipReportDeltaRoundTrip) {
  MembershipReport rep;
  rep.seq = 3;
  rep.view = 11;
  rep.leader = member(9);
  rep.removed = {{util::IpAddress(10, 0, 0, 5), RemoveReason::kFailed},
                 {util::IpAddress(10, 0, 0, 2), RemoveReason::kLeft}};
  const MembershipReport out = round_trip(rep, decode_MembershipReport);
  ASSERT_EQ(out.removed.size(), 2u);
  EXPECT_EQ(out.removed[0].reason, RemoveReason::kFailed);
  EXPECT_EQ(out.removed[1].reason, RemoveReason::kLeft);
}

TEST(Messages, MembershipReportRejectsBadReason) {
  MembershipReport rep;
  rep.leader = member(9);
  rep.removed = {{util::IpAddress(10, 0, 0, 5), RemoveReason::kFailed}};
  auto payload = encode(rep);
  payload.back() = 99;  // the reason byte is encoded last
  EXPECT_FALSE(decode_MembershipReport(payload).has_value());
}

TEST(Messages, ReportAckRoundTrip) {
  ReportAck ack;
  ack.seq = 4;
  ack.leader = util::IpAddress(10, 0, 0, 9);
  ack.need_full = true;
  const ReportAck out = round_trip(ack, decode_ReportAck);
  EXPECT_EQ(out.seq, 4u);
  EXPECT_EQ(out.leader, ack.leader);
  EXPECT_TRUE(out.need_full);
}

TEST(Messages, PingFamilyRoundTrip) {
  Ping p;
  p.nonce = 1;
  p.origin = util::IpAddress(10, 0, 0, 1);
  EXPECT_EQ(round_trip(p, decode_Ping).origin, p.origin);

  PingAck a;
  a.nonce = 2;
  a.target = util::IpAddress(10, 0, 0, 2);
  EXPECT_EQ(round_trip(a, decode_PingAck).target, a.target);

  PingReq q;
  q.nonce = 3;
  q.origin = util::IpAddress(10, 0, 0, 1);
  q.target = util::IpAddress(10, 0, 0, 3);
  const PingReq out = round_trip(q, decode_PingReq);
  EXPECT_EQ(out.origin, q.origin);
  EXPECT_EQ(out.target, q.target);
}

TEST(Messages, SubgroupPollRoundTrip) {
  SubgroupPoll p;
  p.seq = 6;
  EXPECT_EQ(round_trip(p, decode_SubgroupPoll).seq, 6u);
  SubgroupPollAck a;
  a.seq = 6;
  EXPECT_EQ(round_trip(a, decode_SubgroupPollAck).seq, 6u);
}

TEST(Messages, DecodersRejectTruncation) {
  Prepare p;
  p.view = 8;
  p.leader = util::IpAddress(10, 0, 0, 9);
  p.members = {member(9), member(4)};
  auto payload = encode(p);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_FALSE(decode_Prepare(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(Messages, DecodersRejectTrailingGarbage) {
  Commit c;
  c.view = 1;
  auto payload = encode(c);
  payload.push_back(0);
  EXPECT_FALSE(decode_Commit(payload).has_value());

  // A {view, seq} heartbeat payload (16 bytes) is a view plus 8 trailing.
  Heartbeat hb;
  hb.view = 12;
  auto legacy = encode(hb);
  legacy.resize(16, 0);
  EXPECT_FALSE(decode_Heartbeat(legacy).has_value());
}

TEST(Messages, ToFrameEmbedsType) {
  Heartbeat hb;
  hb.view = 1;
  auto frame = to_frame(hb);
  auto decoded = wire::decode_frame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(static_cast<MsgType>(decoded.frame.type), MsgType::kHeartbeat);
  EXPECT_TRUE(decode_Heartbeat(decoded.frame.payload).has_value());
}

TEST(Messages, DomainReportRoundTrip) {
  DomainReport rep;
  rep.seq = 41;
  rep.epoch = 3;
  rep.domain = 2;
  rep.full = true;
  rep.sender = util::IpAddress(10, 0, 23, 208);
  for (std::uint8_t h = 1; h <= 3; ++h) {
    DomainAdapterEntry e;
    e.info = member(h, h);
    e.alive = h != 2;
    e.group_leader = util::IpAddress(10, 0, 0, 3);
    e.view = 7;
    rep.entries.push_back(e);
  }
  rep.removed = {util::IpAddress(10, 0, 0, 9)};
  const DomainReport out = round_trip(rep, decode_DomainReport);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.domain, 2u);
  EXPECT_TRUE(out.full);
  EXPECT_EQ(out.sender, rep.sender);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[1].info, rep.entries[1].info);
  EXPECT_FALSE(out.entries[1].alive);
  EXPECT_EQ(out.entries[0].group_leader, util::IpAddress(10, 0, 0, 3));
  EXPECT_EQ(out.entries[2].view, 7u);
  EXPECT_EQ(out.removed, rep.removed);
}

TEST(Messages, DomainReportDeltaRoundTrip) {
  DomainReport rep;
  rep.seq = 6;
  rep.epoch = 1;
  rep.domain = 0;
  rep.full = false;
  rep.sender = util::IpAddress(10, 0, 23, 209);
  const DomainReport out = round_trip(rep, decode_DomainReport);
  EXPECT_FALSE(out.full);
  EXPECT_TRUE(out.entries.empty());
  EXPECT_TRUE(out.removed.empty());
}

TEST(Messages, DomainReportAckRoundTrip) {
  DomainReportAck ack;
  ack.seq = 41;
  ack.domain = 2;
  ack.need_full = true;
  const DomainReportAck out = round_trip(ack, decode_DomainReportAck);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_EQ(out.domain, 2u);
  EXPECT_TRUE(out.need_full);
}

TEST(Messages, FuzzDecodersNeverCrash) {
  util::Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(48));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)decode_Beacon(junk);
    (void)decode_Prepare(junk);
    (void)decode_MembershipReport(junk);
    (void)decode_JoinRequest(junk);
    (void)decode_PingReq(junk);
    (void)decode_DomainReport(junk);
    (void)decode_DomainReportAck(junk);
  }
}

TEST(Messages, TypeNames) {
  EXPECT_EQ(to_string(MsgType::kBeacon), "beacon");
  EXPECT_EQ(to_string(MsgType::kMembershipReport), "membership-report");
  EXPECT_EQ(to_string(MsgType::kSubgroupPollAck), "subgroup-poll-ack");
}

}  // namespace
}  // namespace gs::proto
