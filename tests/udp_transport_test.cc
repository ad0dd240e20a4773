// UdpTransport backend tests: the VLAN -> loopback-port mapping, framed
// round-trips over real sockets (unicast, and multicast through the VLAN's
// beacon group), the receive path (burst copies, datagrams from foreign
// ports), group membership (joins with the receive handler, hand-offs only
// to listening ports, survives a handler closing peers, isolated between
// deployments), the close() lifecycle, loud failure on an overlapping port
// range or a duplicate IP, and CRC-failure drop accounting through an
// actual GsDaemon running over UDP.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "gs/daemon.h"
#include "net/udp_transport.h"
#include "sim/wallclock.h"
#include "wire/frame.h"

namespace gs::net {
namespace {

util::IpAddress ip(std::uint8_t host) { return util::IpAddress(10, 7, 0, host); }

UdpTransport::PortSpec spec(std::uint8_t host, std::uint32_t vlan) {
  UdpTransport::PortSpec s;
  s.ip = ip(host);
  s.mac = util::MacAddress(host);
  s.vlan = util::VlanId(vlan);
  return s;
}

TEST(UdpPortMapTest, VlansGetDisjointRangesAndEndpointsSequentialPorts) {
  UdpPortMap map(48000, 32);
  EXPECT_EQ(map.add(ip(1), util::VlanId(1)), 48000);
  EXPECT_EQ(map.add(ip(2), util::VlanId(1)), 48001);
  EXPECT_EQ(map.add(ip(3), util::VlanId(2)), 48032);  // next stride

  EXPECT_EQ(map.port_of(ip(2)), 48001);
  EXPECT_EQ(map.ip_of(48032), ip(3));
  EXPECT_EQ(map.ip_of(48099), std::nullopt);
  EXPECT_EQ(map.port_of(ip(99)), std::nullopt);

  EXPECT_EQ(map.vlan_base(util::VlanId(1)), 48000);
  EXPECT_EQ(map.vlan_base(util::VlanId(2)), 48032);
}

// A second endpoint with an IP already in the map used to get the first
// one's port back, and its bind then aborted on a misleading "port range in
// use?". The map refuses the duplicate itself.
TEST(UdpPortMapDeathTest, DuplicateIpAbortsNamingTheDuplicate) {
  UdpPortMap map(48000, 32);
  (void)map.add(ip(1), util::VlanId(1));
  EXPECT_DEATH((void)map.add(ip(1), util::VlanId(1)), "duplicate gs IP");
  EXPECT_DEATH((void)map.add(ip(1), util::VlanId(2)), "duplicate gs IP");
}

TEST(UdpPortMapTest, MaxVlansMatchesPortSpaceArithmetic) {
  EXPECT_EQ(UdpPortMap(47000, 256).max_vlans(), 72u);  // the defaults
  EXPECT_EQ(UdpPortMap(65000, 32).max_vlans(), 16u);
  EXPECT_EQ(UdpPortMap(0, 256).max_vlans(), 256u);
}

// Regression: past the end of the 16-bit port space, vlan_base used to wrap
// silently and hand out ranges colliding with low VLANs' ports. It must
// refuse instead.
TEST(UdpPortMapTest, PortSpaceExhaustionAbortsInsteadOfWrapping) {
  UdpPortMap map(65000, 32);  // room for exactly 16 VLAN ranges
  for (std::uint32_t v = 1; v <= 16; ++v)
    EXPECT_EQ(map.vlan_base(util::VlanId(v)),
              65000 + (v - 1) * 32);  // last range ends at 65511
  EXPECT_DEATH((void)map.vlan_base(util::VlanId(17)), "port space exhausted");
}

// Every case that binds sockets gets its own port range. gtest-discovered
// cases run as parallel ctest processes, and a port (or a VLAN's beacon
// group, which is named by the VLAN's first port) binds once per host: a
// case whose range overlaps another's aborts on "bind(127.0.0.1) failed"
// when the two run at once. Socket-binding ranges across the suite:
//   48100-48515  UdpTransportTest: one 32-port block per case, VLAN stride
//                16 (two VLANs, or two one-VLAN deployments, at most)
//   48600-48699  ShutdownOrderingTest (realtime_test.cc)
// All clear of the examples (47000+) and farm_e2e's real_udp (29000+).
enum class Block : std::uint16_t {
  kUnicast,
  kMulticast,
  kUnknownDestination,
  kClose,
  kCorruptFrame,
  kReceiveBurst,
  kUnknownSource,
  kGroupStranger,
  kCloseMidDelivery,
  kTwoDeployments,
  kJoinOnHandler,
  kOverlappingRange,
  kListenBeacons,
};

std::uint16_t block_base(Block block) {
  return static_cast<std::uint16_t>(48100 + 32 * static_cast<int>(block));
}

struct Harness {
  explicit Harness(Block block) : map(block_base(block), 16) {}

  sim::WallClock clock;
  EventLoop loop;
  UdpPortMap map;

  bool pump(const std::function<bool()>& until) {
    return loop.run_until(clock, clock.now() + sim::seconds(5), until);
  }
  // Lets stray datagrams (ones a test expects never to arrive) land.
  void settle() {
    loop.run_until(clock, clock.now() + sim::milliseconds(50), nullptr);
  }
};

// A socket outside every deployment, on a kernel-assigned loopback port.
int stranger_socket() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  sockaddr_in any{};
  any.sin_family = AF_INET;
  any.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::bind(fd, reinterpret_cast<const sockaddr*>(&any),
                       sizeof(any)) != 0)
    return -1;
  return fd;
}

TEST(UdpTransportTest, UnicastRoundTripDeliversFrameWithResolvedSource) {
  Harness h(Block::kUnicast);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});

  std::vector<Datagram> got;
  b.set_receive_handler(0, [&](const Datagram& d) { got.push_back(d); });

  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
  const auto frame = wire::encode_frame(6, payload);
  ASSERT_TRUE(a.unicast(0, ip(2), Payload::copy_of(frame)));
  ASSERT_TRUE(h.pump([&] { return !got.empty(); }));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, ip(1));  // resolved from the source UDP port
  EXPECT_EQ(got[0].dst, ip(2));
  EXPECT_EQ(got[0].vlan, util::VlanId(1));
  const auto bytes = got[0].payload.bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), frame);
  EXPECT_EQ(a.stats().frames_sent, 1u);
  EXPECT_EQ(b.stats().frames_received, 1u);
}

TEST(UdpTransportTest, MulticastFansOutToVlanPeersOnly) {
  Harness h(Block::kMulticast);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  UdpTransport c(h.loop, h.map, {spec(3, 1)});
  UdpTransport other(h.loop, h.map, {spec(4, 2)});  // different VLAN

  int b_got = 0, c_got = 0, other_got = 0, a_got = 0;
  a.set_receive_handler(0, [&](const Datagram&) { ++a_got; });
  b.set_receive_handler(0, [&](const Datagram&) { ++b_got; });
  c.set_receive_handler(0, [&](const Datagram&) { ++c_got; });
  other.set_receive_handler(0, [&](const Datagram&) { ++other_got; });

  const std::vector<std::uint8_t> payload = {0x01};
  const auto frame = wire::encode_frame(1, payload);
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(frame)));
  ASSERT_TRUE(h.pump([&] { return b_got > 0 && c_got > 0; }));
  h.loop.run_until(h.clock, h.clock.now() + sim::milliseconds(50), nullptr);

  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  EXPECT_EQ(a_got, 0);      // never self-delivers
  EXPECT_EQ(other_got, 0);  // different VLAN, different group
  EXPECT_EQ(a.stats().frames_sent, 1u);  // one group datagram
  EXPECT_EQ(b.stats().frames_received, 1u);
  EXPECT_EQ(c.stats().frames_received, 1u);
  EXPECT_EQ(a.stats().frames_received, 0u);
}

TEST(UdpTransportTest, UnknownDestinationCountsAsSendErrorNotFailure) {
  Harness h(Block::kUnknownDestination);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  const std::vector<std::uint8_t> one = {0x00};
  // Unreachable receiver: still "sent" from the daemon's point of view.
  EXPECT_TRUE(a.unicast(0, ip(42), Payload::copy_of(one)));
  EXPECT_EQ(a.stats().send_errors, 1u);
  EXPECT_EQ(a.stats().frames_sent, 0u);
}

TEST(UdpTransportTest, CloseSilencesSendsReceivesAndLoopback) {
  Harness h(Block::kClose);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  const std::vector<std::uint8_t> one = {0x00};
  EXPECT_TRUE(a.loopback_ok(0));
  EXPECT_EQ(h.loop.fd_count(), 2u);

  a.close();
  EXPECT_TRUE(a.closed());
  EXPECT_FALSE(a.loopback_ok(0));
  EXPECT_EQ(h.loop.fd_count(), 1u);  // deregistered from epoll
  EXPECT_FALSE(a.unicast(0, ip(2), Payload::copy_of(one)));
  EXPECT_FALSE(a.multicast(0, kBeaconGroup, Payload::copy_of(one)));
  a.close();  // idempotent

  // A peer sending to the closed endpoint cannot observe the death.
  EXPECT_TRUE(b.unicast(0, ip(1), Payload::copy_of(one)));
}

TEST(UdpTransportTest, CorruptFrameIsDroppedAndAccountedByTheDaemon) {
  // End-to-end CRC accounting over real sockets: a daemon receives one good
  // frame and one corrupted frame; the corruption lands in
  // wire_stats().dropped[kBadChecksum] exactly like the sim backend.
  Harness h(Block::kCorruptFrame);
  UdpTransport sender(h.loop, h.map, {spec(1, 1)});
  auto receiver = std::make_unique<UdpTransport>(
      h.loop, h.map, std::vector<UdpTransport::PortSpec>{spec(2, 1)});

  proto::Params params;
  params.start_skew_max = 0;
  params.beacon_phase = sim::seconds(60);  // keep the protocol quiet
  params.beacon_interval = sim::seconds(60);
  params.beacon_setup_min = params.beacon_setup_max = 0;
  params.hb_period = sim::seconds(60);

  proto::HeartbeatFrames frames;
  proto::GsDaemon::Options opts;
  opts.clock = &h.clock;
  opts.transport = receiver.get();
  opts.params = &params;
  opts.node.node = util::NodeId(2);
  opts.node.name = "udp-crc";
  opts.rng = util::Rng(7);
  opts.heartbeat_frames = &frames;
  proto::GsDaemon daemon(std::move(opts));
  daemon.start();
  // No skew: the receive handler installs on the first due-timer pass.
  h.loop.run_until(h.clock, h.clock.now() + sim::milliseconds(20), nullptr);

  // Good frame: a well-formed Beacon, decodable end to end.
  proto::Beacon beacon{};
  beacon.self.ip = ip(1);
  beacon.self.mac = util::MacAddress(1);
  beacon.self.node = util::NodeId(1);
  wire::Writer scratch;
  const auto good_span = proto::build_frame(scratch, beacon);
  std::vector<std::uint8_t> good(good_span.begin(), good_span.end());
  auto bad = good;
  bad[wire::kFrameHeaderSize] ^= 0xFF;  // corrupt the payload, CRC now wrong

  ASSERT_TRUE(sender.unicast(0, ip(2), Payload::copy_of(good)));
  ASSERT_TRUE(sender.unicast(0, ip(2), Payload::copy_of(bad)));

  ASSERT_TRUE(h.pump([&] { return daemon.frames_dropped() >= 1; }));
  EXPECT_EQ(daemon.frames_dropped(), 1u);
  EXPECT_EQ(daemon.wire_stats().dropped[static_cast<std::size_t>(
                proto::WireStats::Drop::kBadChecksum)],
            1u);
  // The good beacon decoded cleanly alongside the drop.
  EXPECT_EQ(daemon.wire_stats().decoded[static_cast<std::size_t>(
                proto::MsgType::kBeacon)],
            1u);
  EXPECT_EQ(receiver->stats().frames_received, 2u);
}

TEST(UdpTransportTest, ReceiveBurstArrivesByteExactWithoutAliasing) {
  // Every datagram of a burst is drained through the transport's one reused
  // receive buffer; each delivered payload must be its own copy, so frames
  // held past the next read keep their bytes. One frame spills past the
  // pooled inline capacity.
  Harness h(Block::kReceiveBurst);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});

  std::vector<Datagram> got;
  b.set_receive_handler(0, [&](const Datagram& d) { got.push_back(d); });

  const std::vector<std::size_t> sizes = {
      1, 16, Payload::kInlineCapacity, Payload::kInlineCapacity + 1, 4000, 7};
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::uint8_t> bytes(sizes[i]);
    for (std::size_t j = 0; j < bytes.size(); ++j)
      bytes[j] = static_cast<std::uint8_t>(i * 37 + j);
    ASSERT_TRUE(a.unicast(0, ip(2), Payload::copy_of(bytes)));
    sent.push_back(std::move(bytes));
  }
  ASSERT_TRUE(h.pump([&] { return got.size() == sent.size(); }));
  ASSERT_EQ(b.stats().frames_received, sent.size());

  // Matched by size (all distinct) rather than arrival order.
  for (const std::vector<std::uint8_t>& want : sent) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const Datagram& d) {
      return d.payload.size() == want.size();
    });
    ASSERT_NE(it, got.end()) << "no datagram of " << want.size() << " bytes";
    const auto bytes = it->payload.bytes();
    EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), want);
    EXPECT_EQ(it->src, ip(1));
  }
  for (std::size_t i = 0; i < got.size(); ++i)
    for (std::size_t j = i + 1; j < got.size(); ++j)
      EXPECT_NE(got[i].payload.data(), got[j].payload.data());
}

TEST(UdpTransportTest, DatagramFromUnregisteredPortIsDroppedAndCounted) {
  Harness h(Block::kUnknownSource);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  std::vector<Datagram> got;
  b.set_receive_handler(0, [&](const Datagram& d) { got.push_back(d); });

  // A stranger: a socket on a kernel-assigned port the map never issued.
  const int stranger = stranger_socket();
  ASSERT_GE(stranger, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(b.udp_port(0));
  const std::vector<std::uint8_t> junk = {0x01, 0x02, 0x03};
  ASSERT_EQ(::sendto(stranger, junk.data(), junk.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
            static_cast<ssize_t>(junk.size()));
  ::close(stranger);

  // A farm member's frame behind it shows the drop did not stall the socket.
  const std::vector<std::uint8_t> good = {0xaa, 0xbb};
  ASSERT_TRUE(a.unicast(0, ip(2), Payload::copy_of(good)));
  ASSERT_TRUE(h.pump([&] { return !got.empty(); }));

  EXPECT_EQ(b.stats().recv_unknown, 1u);
  EXPECT_EQ(b.stats().frames_received, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, ip(1));
  EXPECT_EQ(got[0].payload.size(), good.size());
}

// The beacon group as the header documents it: 239.255.x.y, where x.y are
// the two bytes of the VLAN's first port, on that port.
sockaddr_in beacon_group(UdpPortMap& map, util::VlanId vlan) {
  const std::uint16_t base = map.vlan_base(vlan);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(base);
  addr.sin_addr.s_addr = htonl(0xEFFF0000u | base);
  return addr;
}

TEST(UdpTransportTest, StrangerDatagramToTheGroupReachesNoHandler) {
  Harness h(Block::kGroupStranger);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  std::vector<Datagram> a_got, b_got;
  a.set_receive_handler(0, [&](const Datagram& d) { a_got.push_back(d); });
  b.set_receive_handler(0, [&](const Datagram& d) { b_got.push_back(d); });

  const int stranger = stranger_socket();
  ASSERT_GE(stranger, 0);
  const in_addr loopback{htonl(INADDR_LOOPBACK)};
  ASSERT_EQ(::setsockopt(stranger, IPPROTO_IP, IP_MULTICAST_IF, &loopback,
                         sizeof(loopback)),
            0);
  const sockaddr_in group = beacon_group(h.map, util::VlanId(1));
  const std::vector<std::uint8_t> junk = {0x01, 0x02, 0x03};
  ASSERT_EQ(::sendto(stranger, junk.data(), junk.size(), 0,
                     reinterpret_cast<const sockaddr*>(&group), sizeof(group)),
            static_cast<ssize_t>(junk.size()));
  ::close(stranger);

  // A member's beacon behind it shows the drop did not stall the group.
  const std::vector<std::uint8_t> good = {0xaa, 0xbb};
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(good)));
  ASSERT_TRUE(h.pump([&] { return !b_got.empty(); }));
  h.settle();

  EXPECT_TRUE(a_got.empty());
  ASSERT_EQ(b_got.size(), 1u);
  EXPECT_EQ(b_got[0].src, ip(1));
  EXPECT_EQ(b_got[0].dst, kBeaconGroup);
  EXPECT_TRUE(b_got[0].multicast);
  EXPECT_EQ(b_got[0].payload.size(), good.size());
  // Each member would have heard the stranger; each counts the drop.
  EXPECT_EQ(a.stats().recv_unknown, 1u);
  EXPECT_EQ(b.stats().recv_unknown, 1u);
  EXPECT_EQ(b.stats().frames_received, 1u);
}

TEST(UdpTransportTest, HandlerClosingLaterMembersMidDeliverySkipsThem) {
  // One group datagram is handed to b, c, d and e in join order. b's handler
  // closes c and destroys d outright; e's closes its own transport. The
  // hand-off must skip c and d, still reach e, and touch no freed memory
  // (the ASan job turns a violation into a failure).
  Harness h(Block::kCloseMidDelivery);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  UdpTransport c(h.loop, h.map, {spec(3, 1)});
  auto d = std::make_unique<UdpTransport>(
      h.loop, h.map, std::vector<UdpTransport::PortSpec>{spec(4, 1)});
  UdpTransport e(h.loop, h.map, {spec(5, 1)});

  int b_got = 0, c_got = 0, d_got = 0, e_got = 0;
  b.set_receive_handler(0, [&](const Datagram&) {
    ++b_got;
    c.close();
    d.reset();
  });
  c.set_receive_handler(0, [&](const Datagram&) { ++c_got; });
  d->set_receive_handler(0, [&](const Datagram&) { ++d_got; });
  e.set_receive_handler(0, [&](const Datagram&) {
    ++e_got;
    e.close();
  });

  const std::vector<std::uint8_t> beacon = {0x42};
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return e_got > 0; }));
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(d_got, 0);
  EXPECT_EQ(e_got, 1);
  EXPECT_EQ(c.stats().frames_received, 0u);
  EXPECT_TRUE(e.closed());

  // The group outlives the holes: the next beacon reaches b alone.
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return b_got > 1; }));
  h.settle();
  EXPECT_EQ(b_got, 2);
  EXPECT_EQ(e_got, 1);
}

TEST(UdpTransportTest, DeploymentsWithDisjointBasesNeverHearEachOther) {
  // Two deployments in one process, each with VLAN 1 and the same gs IPs:
  // only the port ranges differ, and so do the beacon groups.
  const std::uint16_t base = block_base(Block::kTwoDeployments);
  sim::WallClock clock;
  EventLoop loop;
  UdpPortMap map1(base, 16);
  UdpPortMap map2(static_cast<std::uint16_t>(base + 16), 16);
  UdpTransport a1(loop, map1, {spec(1, 1)});
  UdpTransport b1(loop, map1, {spec(2, 1)});
  UdpTransport a2(loop, map2, {spec(1, 1)});
  UdpTransport b2(loop, map2, {spec(2, 1)});

  std::vector<std::uint8_t> b1_got, b2_got;
  int a_got = 0;
  a1.set_receive_handler(0, [&](const Datagram&) { ++a_got; });
  a2.set_receive_handler(0, [&](const Datagram&) { ++a_got; });
  b1.set_receive_handler(
      0, [&](const Datagram& d) { b1_got.push_back(d.payload.data()[0]); });
  b2.set_receive_handler(
      0, [&](const Datagram& d) { b2_got.push_back(d.payload.data()[0]); });

  const std::vector<std::uint8_t> one = {0x01}, two = {0x02};
  ASSERT_TRUE(a1.multicast(0, kBeaconGroup, Payload::copy_of(one)));
  ASSERT_TRUE(a2.multicast(0, kBeaconGroup, Payload::copy_of(two)));
  ASSERT_TRUE(loop.run_until(clock, clock.now() + sim::seconds(5), [&] {
    return !b1_got.empty() && !b2_got.empty();
  }));
  loop.run_until(clock, clock.now() + sim::milliseconds(50), nullptr);

  EXPECT_EQ(b1_got, std::vector<std::uint8_t>{0x01});
  EXPECT_EQ(b2_got, std::vector<std::uint8_t>{0x02});
  EXPECT_EQ(a_got, 0);
  for (const UdpTransport* t : {&a1, &b1, &a2, &b2})
    EXPECT_EQ(t->stats().recv_unknown, 0u);
}

TEST(UdpTransportTest, EndpointJoinsTheGroupWithItsReceiveHandler) {
  Harness h(Block::kJoinOnHandler);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  UdpTransport c(h.loop, h.map, {spec(3, 1)});
  EXPECT_EQ(h.loop.fd_count(), 3u);  // no handler yet, no group socket

  int b_got = 0, c_got = 0;
  c.set_receive_handler(0, [&](const Datagram&) { ++c_got; });
  EXPECT_EQ(h.loop.fd_count(), 4u);  // the first join opens the group

  const std::vector<std::uint8_t> beacon = {0x07};
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return c_got == 1; }));
  h.settle();
  EXPECT_EQ(b.stats().frames_received, 0u);  // b has no handler: not a member

  b.set_receive_handler(0, [&](const Datagram&) { ++b_got; });
  EXPECT_EQ(h.loop.fd_count(), 4u);  // one group socket per VLAN
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return b_got == 1 && c_got == 2; }));

  b.set_receive_handler(0, nullptr);  // removing the handler leaves
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return c_got == 3; }));
  h.settle();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(b.stats().frames_received, 1u);
}

// A member that stops listening keeps its handler (unicasts still reach
// it) but gets no group hand-off until it listens again; a port that stops
// listening before it installs its handler joins the group silent.
TEST(UdpTransportTest, PortThatLeftTheBeaconGroupGetsNoHandOff) {
  Harness h(Block::kListenBeacons);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpTransport b(h.loop, h.map, {spec(2, 1)});
  UdpTransport c(h.loop, h.map, {spec(3, 1)});
  UdpTransport d(h.loop, h.map, {spec(4, 1)});
  int b_got = 0, c_got = 0, d_got = 0;
  b.set_receive_handler(0, [&](const Datagram&) { ++b_got; });
  c.set_receive_handler(0, [&](const Datagram&) { ++c_got; });
  d.listen_beacons(0, false);
  d.set_receive_handler(0, [&](const Datagram&) { ++d_got; });
  b.listen_beacons(0, false);

  const std::vector<std::uint8_t> beacon = {0x07};
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return c_got == 1; }));
  h.settle();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(d_got, 0);
  EXPECT_EQ(b.stats().frames_received, 0u);
  EXPECT_EQ(d.stats().frames_received, 0u);

  ASSERT_TRUE(a.unicast(0, ip(2), Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return b_got == 1; }));

  b.listen_beacons(0, true);
  d.listen_beacons(0, true);
  ASSERT_TRUE(a.multicast(0, kBeaconGroup, Payload::copy_of(beacon)));
  ASSERT_TRUE(h.pump([&] { return b_got == 2 && c_got == 2 && d_got == 1; }));
  h.settle();
  EXPECT_EQ(a.stats().frames_sent, 3u);
  EXPECT_EQ(c.stats().frames_received, 2u);
}

// Without SO_REUSEADDR a second deployment on an occupied range cannot bind
// and aborts, rather than sharing the ports and stealing their frames.
TEST(UdpTransportDeathTest, OverlappingPortRangeAbortsOnBind) {
  Harness h(Block::kOverlappingRange);
  UdpTransport a(h.loop, h.map, {spec(1, 1)});
  UdpPortMap second(block_base(Block::kOverlappingRange), 16);
  EXPECT_DEATH(UdpTransport(h.loop, second, {spec(1, 1)}),
               "port range in use");
}

}  // namespace
}  // namespace gs::net
