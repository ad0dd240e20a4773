// UdpTransport backend tests: the VLAN -> loopback-port mapping, framed
// round-trips over real sockets (unicast and the multicast fan-out), the
// close() lifecycle, and CRC-failure drop accounting through an actual
// GsDaemon running over UDP.
#include <gtest/gtest.h>

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
  EXPECT_EQ(map.add(ip(1), util::VlanId(1)), 48000);  // idempotent per IP

  EXPECT_EQ(map.port_of(ip(2)), 48001);
  EXPECT_EQ(map.ip_of(48032), ip(3));
  EXPECT_EQ(map.ip_of(48099), std::nullopt);
  EXPECT_EQ(map.port_of(ip(99)), std::nullopt);

  EXPECT_EQ(map.vlan_ports(util::VlanId(1)),
            (std::vector<std::uint16_t>{48000, 48001}));
  EXPECT_TRUE(map.vlan_ports(util::VlanId(7)).empty());
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
// cases run as parallel ctest processes, SO_REUSEADDR lets two processes
// bind one UDP port, and the transport accepts any loopback datagram whose
// source port its map resolves — so two cases sharing a range receive each
// other's frames. Socket-binding ranges across the suite:
//   48100-48299  UdpTransportTest: one 40-port block per case, VLAN stride
//                16 (two VLANs at most)
//   48300-48399  ShutdownOrderingTest (realtime_test.cc)
// All clear of the examples (47000+) and farm_e2e's real_udp (29000+).
enum class Block : std::uint16_t {
  kUnicast,
  kMulticast,
  kUnknownDestination,
  kClose,
  kCorruptFrame,
};

struct Harness {
  explicit Harness(Block block)
      : map(static_cast<std::uint16_t>(48100 + 40 * static_cast<int>(block)),
            16) {}

  sim::WallClock clock;
  EventLoop loop;
  UdpPortMap map;

  bool pump(const std::function<bool()>& until) {
    return loop.run_until(clock, clock.now() + sim::seconds(5), until);
  }
};

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
  EXPECT_EQ(other_got, 0);  // different VLAN range
  EXPECT_EQ(a.stats().frames_sent, 2u);  // one sendto per peer
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
  params.proc_delay_mean = 0;
  params.beacon_phase = sim::seconds(60);  // keep the protocol quiet
  params.beacon_interval = sim::seconds(60);
  params.beacon_setup_min = params.beacon_setup_max = 0;
  params.hb_period = sim::seconds(60);

  proto::GsDaemon::Options opts;
  opts.clock = &h.clock;
  opts.transport = receiver.get();
  opts.params = &params;
  opts.node.node = util::NodeId(2);
  opts.node.name = "udp-crc";
  opts.rng = util::Rng(7);
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

}  // namespace
}  // namespace gs::net
