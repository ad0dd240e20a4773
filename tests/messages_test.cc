// Unit tests for protocol message codecs: round-trips, malformed rejection.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

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
  const Beacon out = round_trip(b, decode<Beacon>);
  EXPECT_EQ(out.self, b.self);
  EXPECT_TRUE(out.is_leader);
  EXPECT_EQ(out.view, 42u);
  EXPECT_EQ(out.group_size, 17u);
}

TEST(Messages, JoinRequestRoundTrip) {
  JoinRequest j;
  j.view = 5;
  j.members = {member(1), member(2), member(3)};
  const JoinRequest out = round_trip(j, decode<JoinRequest>);
  EXPECT_EQ(out.view, 5u);
  EXPECT_EQ(out.members, j.members);
}

TEST(Messages, PrepareRoundTrip) {
  Prepare p;
  p.view = 8;
  p.leader = util::IpAddress(10, 0, 0, 9);
  p.members = {member(9), member(4)};
  const Prepare out = round_trip(p, decode<Prepare>);
  EXPECT_EQ(out.view, 8u);
  EXPECT_EQ(out.leader, p.leader);
  EXPECT_EQ(out.members, p.members);
}

TEST(Messages, PrepareAckRoundTrip) {
  PrepareAck a;
  a.view = 3;
  a.ok = false;
  a.holder_view = 7;
  const PrepareAck out = round_trip(a, decode<PrepareAck>);
  EXPECT_EQ(out.view, 3u);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.holder_view, 7u);
}

TEST(Messages, CommitHeartbeatRoundTrip) {
  Commit c;
  c.view = 11;
  EXPECT_EQ(round_trip(c, decode<Commit>).view, 11u);

  Heartbeat hb;
  hb.view = 12;
  EXPECT_EQ(encode(hb).size(), 8u);  // {view} and nothing else
  EXPECT_EQ(round_trip(hb, decode<Heartbeat>).view, 12u);
}

TEST(Messages, SuspectFamilyRoundTrip) {
  Suspect s;
  s.view = 4;
  s.suspect = util::IpAddress(10, 0, 0, 3);
  const Suspect so = round_trip(s, decode<Suspect>);
  EXPECT_EQ(so.suspect, s.suspect);

  SuspectAck ack;
  ack.view = 4;
  ack.suspect = s.suspect;
  EXPECT_EQ(round_trip(ack, decode<SuspectAck>).suspect, s.suspect);
}

TEST(Messages, ProbeFamilyRoundTrip) {
  Probe p;
  p.nonce = 0xFEEDull;
  EXPECT_EQ(round_trip(p, decode<Probe>).nonce, 0xFEEDull);
  ProbeAck a;
  a.nonce = 0xBEEFull;
  EXPECT_EQ(round_trip(a, decode<ProbeAck>).nonce, 0xBEEFull);
}

TEST(Messages, StaleNoticeRoundTrip) {
  StaleNotice n;
  n.current_view = 77;
  EXPECT_EQ(round_trip(n, decode<StaleNotice>).current_view, 77u);
}

TEST(Messages, MembershipReportFullRoundTrip) {
  MembershipReport rep;
  rep.seq = 2;
  rep.view = 10;
  rep.full = true;
  rep.leader = member(9);
  rep.added = {member(9), member(5), member(2)};
  const MembershipReport out = round_trip(rep, decode<MembershipReport>);
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
  const MembershipReport out = round_trip(rep, decode<MembershipReport>);
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
  EXPECT_FALSE(decode<MembershipReport>(payload).has_value());
}

TEST(Messages, ReportAckRoundTrip) {
  ReportAck ack;
  ack.seq = 4;
  ack.leader = util::IpAddress(10, 0, 0, 9);
  ack.need_full = true;
  const ReportAck out = round_trip(ack, decode<ReportAck>);
  EXPECT_EQ(out.seq, 4u);
  EXPECT_EQ(out.leader, ack.leader);
  EXPECT_TRUE(out.need_full);
}

TEST(Messages, PingFamilyRoundTrip) {
  Ping p;
  p.nonce = 1;
  p.origin = util::IpAddress(10, 0, 0, 1);
  EXPECT_EQ(round_trip(p, decode<Ping>).origin, p.origin);

  PingAck a;
  a.nonce = 2;
  a.target = util::IpAddress(10, 0, 0, 2);
  EXPECT_EQ(round_trip(a, decode<PingAck>).target, a.target);

  PingReq q;
  q.nonce = 3;
  q.origin = util::IpAddress(10, 0, 0, 1);
  q.target = util::IpAddress(10, 0, 0, 3);
  const PingReq out = round_trip(q, decode<PingReq>);
  EXPECT_EQ(out.origin, q.origin);
  EXPECT_EQ(out.target, q.target);
}

TEST(Messages, SubgroupPollRoundTrip) {
  SubgroupPoll p;
  p.seq = 6;
  EXPECT_EQ(round_trip(p, decode<SubgroupPoll>).seq, 6u);
  SubgroupPollAck a;
  a.seq = 6;
  EXPECT_EQ(round_trip(a, decode<SubgroupPollAck>).seq, 6u);
}

TEST(Messages, ToFrameEmbedsType) {
  Heartbeat hb;
  hb.view = 1;
  auto frame = to_frame(hb);
  auto decoded = wire::decode_frame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(static_cast<MsgType>(decoded.frame.type), MsgType::kHeartbeat);
  EXPECT_TRUE(decode<Heartbeat>(decoded.frame.payload).has_value());
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
  const DomainReport out = round_trip(rep, decode<DomainReport>);
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
  const DomainReport out = round_trip(rep, decode<DomainReport>);
  EXPECT_FALSE(out.full);
  EXPECT_TRUE(out.entries.empty());
  EXPECT_TRUE(out.removed.empty());
}

TEST(Messages, DomainReportAckRoundTrip) {
  DomainReportAck ack;
  ack.seq = 41;
  ack.domain = 2;
  ack.need_full = true;
  const DomainReportAck out = round_trip(ack, decode<DomainReportAck>);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_EQ(out.domain, 2u);
  EXPECT_TRUE(out.need_full);
}

// --- Wire-byte pin --------------------------------------------------------------
//
// One fixed instance of every message, every field away from its default and
// every vector non-empty, with the payload bytes it must encode to. The hex
// was recorded from the hand-written codecs; any codec rewrite has to
// reproduce it byte for byte. The golden digests never send the ping or
// subgroup detectors' messages, so this table is their only pin.

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

MemberInfo pin_member(std::uint8_t host) {
  return member(host, 0x0A0B0C00u + host, true);
}

const auto& pin_samples() {
  static const auto samples = std::tuple{
      Beacon{.self = pin_member(1),
             .is_leader = true,
             .view = 0x0102030405060708ull,
             .group_size = 0x090A0B0Cu},
      JoinRequest{.view = 0x1112131415161718ull,
                  .members = {pin_member(2), pin_member(3)}},
      Prepare{.view = 0x2122232425262728ull,
              .leader = util::IpAddress(10, 0, 0, 9),
              .members = {pin_member(9), pin_member(4)}},
      PrepareAck{.view = 0x3132333435363738ull,
                 .ok = false,
                 .holder_view = 0x4142434445464748ull},
      Commit{.view = 0x5152535455565758ull,
             .members = {pin_member(9), pin_member(5)}},
      Heartbeat{.view = 0x6162636465666768ull},
      Suspect{.view = 0x7172737475767778ull,
              .suspect = util::IpAddress(10, 0, 1, 3)},
      SuspectAck{.view = 0x8182838485868788ull,
                 .suspect = util::IpAddress(10, 0, 1, 4)},
      Probe{.nonce = 0x9192939495969798ull},
      ProbeAck{.nonce = 0xA1A2A3A4A5A6A7A8ull, .leads_prober = true},
      StaleNotice{.current_view = 0xB1B2B3B4B5B6B7B8ull},
      MembershipReport{
          .seq = 0xC1C2C3C4C5C6C7C8ull,
          .view = 0xD1D2D3D4D5D6D7D8ull,
          .full = true,
          .leader = pin_member(9),
          .added = {pin_member(6), pin_member(7)},
          .removed = {{util::IpAddress(10, 0, 2, 5), RemoveReason::kFailed},
                      {util::IpAddress(10, 0, 2, 6), RemoveReason::kLeft}}},
      ReportAck{.seq = 0xE1E2E3E4E5E6E7E8ull,
                .leader = util::IpAddress(10, 0, 3, 9),
                .need_full = true},
      Ping{.nonce = 0xF1F2F3F4F5F6F7F8ull,
           .origin = util::IpAddress(10, 0, 4, 1)},
      PingAck{.nonce = 0x0F0E0D0C0B0A0908ull,
              .target = util::IpAddress(10, 0, 4, 2)},
      PingReq{.nonce = 0x1F1E1D1C1B1A1918ull,
              .origin = util::IpAddress(10, 0, 4, 3),
              .target = util::IpAddress(10, 0, 4, 4)},
      SubgroupPoll{.seq = 0x2F2E2D2C2B2A2928ull},
      SubgroupPollAck{.seq = 0x3F3E3D3C3B3A3938ull},
      DomainReport{.seq = 0x4F4E4D4C4B4A4948ull,
                   .epoch = 0x5F5E5D5C5B5A5958ull,
                   .domain = 0x6F6E6D6Cu,
                   .full = true,
                   .sender = util::IpAddress(10, 0, 23, 208),
                   .entries = {{.info = pin_member(8),
                                .alive = false,
                                .group_leader = util::IpAddress(10, 0, 5, 1),
                                .view = 0x7F7E7D7C7B7A7978ull},
                               {.info = pin_member(10),
                                .alive = true,
                                .group_leader = util::IpAddress(10, 0, 5, 2),
                                .view = 0x8F8E8D8C8B8A8988ull}},
                   .removed = {util::IpAddress(10, 0, 6, 1),
                               util::IpAddress(10, 0, 6, 2)}},
      DomainReportAck{.seq = 0x9F9E9D9C9B9A9998ull,
                      .domain = 0xAFAEADACu,
                      .need_full = true},
  };
  return samples;
}

TEST(Messages, WireBytesArePinned) {
  static constexpr std::string_view kPayloadHex[] = {
      // Beacon
      "0100000a0100000000020000010c0b0a010108070605040302010c0b0a09",
      // JoinRequest
      "1817161514131211020000000200000a0200000000020000020c0b0a01030000"
      "0a0300000000020000030c0b0a01",
      // Prepare
      "28272625242322210900000a020000000900000a0900000000020000090c0b0a"
      "010400000a0400000000020000040c0b0a01",
      // PrepareAck
      "3837363534333231004847464544434241",
      // Commit
      "5857565554535251020000000900000a0900000000020000090c0b0a01050000"
      "0a0500000000020000050c0b0a01",
      // Heartbeat
      "6867666564636261",
      // Suspect
      "78777675747372710301000a",
      // SuspectAck
      "88878685848382810401000a",
      // Probe
      "9897969594939291",
      // ProbeAck
      "a8a7a6a5a4a3a2a101",
      // StaleNotice
      "b8b7b6b5b4b3b2b1",
      // MembershipReport
      "c8c7c6c5c4c3c2c1d8d7d6d5d4d3d2d1010900000a0900000000020000090c0b"
      "0a01020000000600000a0600000000020000060c0b0a010700000a0700000000"
      "020000070c0b0a01020000000502000a000602000a01",
      // ReportAck
      "e8e7e6e5e4e3e2e10903000a01",
      // Ping
      "f8f7f6f5f4f3f2f10104000a",
      // PingAck
      "08090a0b0c0d0e0f0204000a",
      // PingReq
      "18191a1b1c1d1e1f0304000a0404000a",
      // SubgroupPoll
      "28292a2b2c2d2e2f",
      // SubgroupPollAck
      "38393a3b3c3d3e3f",
      // DomainReport
      "48494a4b4c4d4e4f58595a5b5c5d5e5f6c6d6e6f01d017000a02000000080000"
      "0a0800000000020000080c0b0a01000105000a78797a7b7c7d7e7f0a00000a0a"
      "000000000200000a0c0b0a01010205000a88898a8b8c8d8e8f02000000010600"
      "0a0206000a",
      // DomainReportAck
      "98999a9b9c9d9e9facadaeaf01",
  };
  std::size_t i = 0;
  const auto check = [&](const auto& msg) {
    ASSERT_LT(i, std::size(kPayloadHex));
    EXPECT_EQ(hex(encode(msg)), kPayloadHex[i++]) << to_string(msg.kType);
  };
  std::apply([&](const auto&... msg) { (check(msg), ...); }, pin_samples());
  EXPECT_EQ(i, std::size(kPayloadHex));

  wire::Writer w;
  encode_member(w, pin_member(7));
  EXPECT_EQ(hex(w.bytes()), "0700000a0700000000020000070c0b0a01");

  // One whole frame: header (magic, version, type, length) and CRC too.
  EXPECT_EQ(hex(to_frame(std::get<Prepare>(pin_samples()))),
            "475346310100030032000000540afd7c28272625242322210900000a02000000"
            "0900000a0900000000020000090c0b0a010400000a0400000000020000040c0b"
            "0a01");
}

// Calls fn(std::type_identity<T>{}) for every T in WireMessages.
template <typename Fn>
void for_each_message_type(Fn&& fn) {
  [&]<typename... Ts>(TypeList<Ts...>) {
    (fn(std::type_identity<Ts>{}), ...);
  }(WireMessages{});
}

TEST(Messages, DecodersRejectTruncation) {
  for_each_message_type([](auto type) {
    using T = typename decltype(type)::type;
    const auto payload = encode(std::get<T>(pin_samples()));
    const auto whole = decode<T>(payload);
    ASSERT_TRUE(whole.has_value()) << to_string(T::kType);
    EXPECT_EQ(encode(*whole), payload) << to_string(T::kType);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(decode<T>(std::span(payload).first(cut)).has_value())
          << to_string(T::kType) << " cut at " << cut;
    }
  });
}

TEST(Messages, DecodersRejectTrailingGarbage) {
  for_each_message_type([](auto type) {
    using T = typename decltype(type)::type;
    auto payload = encode(std::get<T>(pin_samples()));
    payload.push_back(0);
    EXPECT_FALSE(decode<T>(payload).has_value()) << to_string(T::kType);
  });

  // A {view, seq} heartbeat payload (16 bytes) is a view plus 8 trailing.
  Heartbeat hb;
  hb.view = 12;
  auto legacy = encode(hb);
  legacy.resize(16, 0);
  EXPECT_FALSE(decode<Heartbeat>(legacy).has_value());
}

TEST(Messages, FuzzDecodersNeverCrash) {
  util::Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(48));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    for_each_message_type([&](auto type) {
      (void)decode<typename decltype(type)::type>(junk);
    });
  }
}

TEST(Messages, TypeNames) {
  EXPECT_EQ(to_string(MsgType::kBeacon), "beacon");
  EXPECT_EQ(to_string(MsgType::kMembershipReport), "membership-report");
  EXPECT_EQ(to_string(MsgType::kSubgroupPollAck), "subgroup-poll-ack");
}

}  // namespace
}  // namespace gs::proto
