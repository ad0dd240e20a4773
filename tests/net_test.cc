// Unit tests for the simulated network substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "net/console.h"
#include "net/fabric.h"
#include "net/payload.h"
#include "obs/trace.h"
#include "wire/frame.h"

namespace gs::net {
namespace {

std::vector<std::uint8_t> test_frame(std::uint16_t type = 1) {
  std::vector<std::uint8_t> payload{1, 2, 3};
  return wire::encode_frame(type, payload);
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(sim_, util::Rng(1)) {
    // Deterministic channel for most tests.
    ChannelModel model;
    model.base_latency = sim::microseconds(100);
    model.jitter = 0;
    fabric_.set_default_channel(model);
    sw_ = fabric_.add_switch(16);
  }

  util::AdapterId make(util::NodeId node, util::VlanId vlan,
                       util::IpAddress ip) {
    const util::AdapterId id = fabric_.add_adapter(node);
    fabric_.attach(id, sw_, vlan);
    fabric_.set_adapter_ip(id, ip);
    return id;
  }

  sim::Simulator sim_;
  Fabric fabric_;
  util::SwitchId sw_;
};

TEST_F(FabricTest, UnicastDeliversWithinVlan) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  (void)a;
  int received = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram& d) {
    ++received;
    EXPECT_EQ(d.src, util::IpAddress(10, 0, 0, 1));
    EXPECT_FALSE(d.multicast);
  });
  EXPECT_TRUE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame()));
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sim_.now(), sim::microseconds(100));
}

TEST_F(FabricTest, UnicastDoesNotCrossVlans) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(2), util::IpAddress(10, 0, 0, 2));
  int received = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { ++received; });
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_unreachable, 1u);
}

TEST_F(FabricTest, MulticastReachesAllOnVlanOnce) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  std::vector<util::AdapterId> others;
  int received = 0;
  for (int i = 2; i <= 5; ++i) {
    auto id = make(util::NodeId(static_cast<std::uint32_t>(i)), util::VlanId(1),
                   util::IpAddress(10, 0, 0, static_cast<std::uint8_t>(i)));
    fabric_.adapter(id).set_receive_handler(
        [&](const Datagram& d) { EXPECT_TRUE(d.multicast); ++received; });
    others.push_back(id);
  }
  // One off-vlan adapter must not hear it.
  auto off = make(util::NodeId(9), util::VlanId(2), util::IpAddress(10, 0, 1, 1));
  fabric_.adapter(off).set_receive_handler([&](const Datagram&) { FAIL(); });

  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
  EXPECT_EQ(received, 4);
  // Wire occupancy counts the multicast once.
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_sent, 1u);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_delivered, 4u);
}

TEST_F(FabricTest, SenderDoesNotHearOwnMulticast) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  fabric_.adapter(a).set_receive_handler([&](const Datagram&) { FAIL(); });
  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
}

TEST_F(FabricTest, DeadSenderCannotSend) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.set_adapter_health(a, HealthState::kDown);
  EXPECT_FALSE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame()));
}

TEST_F(FabricTest, SendDeadAdapterCannotSendButReceives) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.set_adapter_health(a, HealthState::kSendDead);
  EXPECT_FALSE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame()));
  int received = 0;
  fabric_.adapter(a).set_receive_handler([&](const Datagram&) { ++received; });
  EXPECT_TRUE(fabric_.send(b, util::IpAddress(10, 0, 0, 1), test_frame()));
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(fabric_.adapter(a).loopback_ok());
}

TEST_F(FabricTest, RecvDeadAdapterSendsButCannotReceive) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.set_adapter_health(a, HealthState::kRecvDead);
  fabric_.adapter(a).set_receive_handler([&](const Datagram&) { FAIL(); });
  EXPECT_TRUE(fabric_.send(b, util::IpAddress(10, 0, 0, 1), test_frame()));
  int received = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { ++received; });
  EXPECT_TRUE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame()));
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(FabricTest, MidFlightFailureDropsFrame) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { FAIL(); });
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  // Kill the receiver while the frame is in flight.
  fabric_.set_adapter_health(b, HealthState::kDown);
  sim_.run();
}

// The receiving host's processing delay δ rides on the delivery: with zero
// jitter, (delivery - send - latency) is δ alone, an exponential draw with
// the configured mean. With a mean of 0 the frame lands exactly at the
// latency.
TEST_F(FabricTest, DeliveryRunsAtArrivalPlusProcessingDelay) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  const sim::SimDuration latency = sim::microseconds(100);
  sim::SimTime delivered_at = 0;
  fabric_.adapter(b).set_receive_handler(
      [&](const Datagram&) { delivered_at = sim_.now(); });
  const auto delta = [&] {
    const sim::SimTime sent_at = sim_.now();
    EXPECT_TRUE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame()));
    sim_.run();
    return delivered_at - sent_at - latency;
  };

  const sim::SimDuration mean = sim::milliseconds(2);
  fabric_.set_processing_delay(mean);
  constexpr int kFrames = 20000;
  double sum = 0;
  int above_mean = 0;
  for (int i = 0; i < kFrames; ++i) {
    const sim::SimDuration d = delta();
    ASSERT_GE(d, 0);
    sum += static_cast<double>(d);
    if (d > mean) ++above_mean;
  }
  EXPECT_NEAR(sum / kFrames, static_cast<double>(mean),
              0.03 * static_cast<double>(mean));
  EXPECT_NEAR(static_cast<double>(above_mean) / kFrames, std::exp(-1.0), 0.02);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_delivered,
            static_cast<std::uint64_t>(kFrames));

  fabric_.set_processing_delay(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(delta(), 0);
}

// A receiver that dies after the frame arrives but before its host handles
// it (within δ) never sees the frame: delivery is checked at arrival + δ.
TEST_F(FabricTest, ReceiverDyingWithinProcessingDelayMissesTheFrame) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.set_processing_delay(sim::seconds(1));
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { FAIL(); });
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  // Past the 100 us latency, but a 1 s mean leaves δ far from spent.
  sim_.run_until(sim::microseconds(101));
  ASSERT_EQ(sim_.pending_events(), 1u);
  fabric_.set_adapter_health(b, HealthState::kDown);
  sim_.run();
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_unreachable, 1u);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_delivered, 0u);
}

// Each reachable receiver of a multicast is one sim event, which delivers
// and hands the frame to the receiver in one step. Receivers sharing a
// deadline run in member order.
TEST_F(FabricTest, MulticastIsOneEventPerReceiver) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  constexpr std::uint32_t kReceivers = 8;
  std::vector<util::AdapterId> members;
  for (std::uint32_t i = 1; i <= kReceivers; ++i)
    members.push_back(fabric_.add_adapter(util::NodeId(i)));
  // Wired in reverse and addressed with falling IPs: member order is still
  // adapter id order.
  std::vector<util::AdapterId> heard;
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    const util::AdapterId id = *it;
    fabric_.attach(id, sw_, util::VlanId(1));
    fabric_.set_adapter_ip(
        id, util::IpAddress(10, 0, 0,
                            static_cast<std::uint8_t>(100 - id.value())));
    fabric_.adapter(id).set_receive_handler(
        [&heard, id](const Datagram&) { heard.push_back(id); });
  }
  // An unreachable member costs no event.
  fabric_.set_adapter_health(members.back(), HealthState::kDown);
  const std::size_t reachable = kReceivers - 1;

  fabric_.set_processing_delay(sim::milliseconds(2));
  ASSERT_TRUE(fabric_.multicast(a, kBeaconGroup, test_frame()));
  EXPECT_EQ(sim_.pending_events(), reachable);
  std::size_t steps = 0;
  while (sim_.step()) {
    ++steps;
    EXPECT_EQ(heard.size(), steps);  // every step hands one frame over
  }
  EXPECT_EQ(steps, reachable);

  heard.clear();
  fabric_.set_processing_delay(0);
  ASSERT_TRUE(fabric_.multicast(a, kBeaconGroup, test_frame()));
  EXPECT_EQ(sim_.pending_events(), reachable);
  sim_.run();
  const std::vector<util::AdapterId> in_member_order(members.begin(),
                                                     members.end() - 1);
  EXPECT_EQ(heard, in_member_order);
}

TEST_F(FabricTest, SwitchFailureDisconnectsVlan) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.fail_switch(sw_);
  EXPECT_FALSE(fabric_.vlan_of(a).valid());
  EXPECT_FALSE(fabric_.reachable(a, b));
  EXPECT_FALSE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame()));
  fabric_.recover_switch(sw_);
  EXPECT_TRUE(fabric_.reachable(a, b));
}

TEST_F(FabricTest, PartitionBlocksAcrossHealRestores) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.partition_vlan(util::VlanId(1), {{a}, {b}});
  EXPECT_FALSE(fabric_.reachable(a, b));
  int received = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { ++received; });
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();
  EXPECT_EQ(received, 0);
  fabric_.heal_vlan(util::VlanId(1));
  EXPECT_TRUE(fabric_.reachable(a, b));
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(FabricTest, VlanMoveRehomesAdapter) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  EXPECT_EQ(fabric_.vlan_of(a), util::VlanId(1));
  const auto& adapter = fabric_.adapter(a);
  fabric_.set_port_vlan(adapter.attached_switch(), adapter.attached_port(),
                        util::VlanId(7));
  EXPECT_EQ(fabric_.vlan_of(a), util::VlanId(7));
  auto in7 = fabric_.adapters_in_vlan(util::VlanId(7));
  ASSERT_EQ(in7.size(), 1u);
  EXPECT_EQ(in7[0], a);
  EXPECT_TRUE(fabric_.adapters_in_vlan(util::VlanId(1)).empty());
}

TEST_F(FabricTest, LossySegmentDropsFraction) {
  ChannelModel lossy;
  lossy.loss_probability = 0.5;
  lossy.jitter = 0;
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.segment(util::VlanId(1)).set_model(lossy);
  int received = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { ++received; });
  for (int i = 0; i < 1000; ++i)
    fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  const auto& load = fabric_.load(util::VlanId(1));
  EXPECT_EQ(load.frames_lost + load.frames_delivered, 1000u);
}

TEST_F(FabricTest, IpReassignmentUpdatesLookup) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  (void)b;
  fabric_.set_adapter_ip(a, util::IpAddress(10, 0, 0, 9));
  EXPECT_FALSE(
      fabric_.find_by_ip(util::VlanId(1), util::IpAddress(10, 0, 0, 1)));
  auto found = fabric_.find_by_ip(util::VlanId(1), util::IpAddress(10, 0, 0, 9));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, a);
}

TEST_F(FabricTest, NodeFailureKillsAllItsAdapters) {
  auto a1 = make(util::NodeId(5), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto a2 = make(util::NodeId(5), util::VlanId(2), util::IpAddress(10, 0, 1, 1));
  fabric_.fail_node(util::NodeId(5));
  EXPECT_EQ(fabric_.adapter(a1).health(), HealthState::kDown);
  EXPECT_EQ(fabric_.adapter(a2).health(), HealthState::kDown);
  fabric_.recover_node(util::NodeId(5));
  EXPECT_EQ(fabric_.adapter(a1).health(), HealthState::kUp);
}

TEST_F(FabricTest, FrameTypeAccounting) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame(6));
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame(6));
  fabric_.multicast(a, kBeaconGroup, test_frame(1));
  EXPECT_EQ(fabric_.frames_by_type().at(6), 2u);
  EXPECT_EQ(fabric_.frames_by_type().at(1), 1u);
  EXPECT_EQ(fabric_.total_frames_sent(), 3u);
}

TEST_F(FabricTest, FrameTypeAccountingAcrossResetAndUnusualTypes) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  const util::IpAddress to(10, 0, 0, 2);
  fabric_.send(a, to, test_frame(6));
  fabric_.send(a, to, test_frame(6));
  fabric_.reset_load_accounting();
  EXPECT_TRUE(fabric_.frames_by_type().empty());
  // Counting resumes from zero after the reset, for common types, a type
  // number past every message type, and a frame too short to carry one.
  fabric_.send(a, to, test_frame(6));
  fabric_.send(a, to, test_frame(300));
  fabric_.send(a, to, std::vector<std::uint8_t>{1, 2, 3});
  fabric_.send(a, to, test_frame(6));
  const std::map<std::uint16_t, std::uint64_t> expected{
      {6, 2}, {300, 1}, {0xFFFF, 1}};
  EXPECT_EQ(fabric_.frames_by_type(), expected);
  EXPECT_EQ(fabric_.total_frames_sent(), 4u);
}

TEST_F(FabricTest, AdapterReferencesSurviveLaterAdds) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  const Adapter* first = &fabric_.adapter(a);
  Adapter& receiver = fabric_.adapter(b);
  for (std::uint32_t i = 0; i < 500; ++i)
    fabric_.add_adapter(util::NodeId(100 + i));
  EXPECT_EQ(&fabric_.adapter(a), first);
  EXPECT_EQ(&fabric_.adapter(b), &receiver);
  EXPECT_EQ(receiver.id(), b);
  EXPECT_EQ(receiver.ip(), util::IpAddress(10, 0, 0, 2));
  // A handler installed through the early reference is the one delivery
  // uses.
  int received = 0;
  receiver.set_receive_handler([&](const Datagram&) { ++received; });
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(FabricTest, MulticastCountsDeadSwitchReceiversUnreachable) {
  // Receivers stranded behind a failed switch must show up in
  // frames_unreachable, exactly as the unicast path counts them — otherwise
  // multicast and unicast load accounting disagree.
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto sw2 = fabric_.add_switch(4);
  std::uint64_t stranded = 0;
  for (int i = 2; i <= 4; ++i) {
    auto id = fabric_.add_adapter(util::NodeId(static_cast<std::uint32_t>(i)));
    fabric_.attach(id, sw2, util::VlanId(1));
    fabric_.set_adapter_ip(id,
                           util::IpAddress(10, 0, 0, static_cast<std::uint8_t>(i)));
    fabric_.adapter(id).set_receive_handler([](const Datagram&) { FAIL(); });
    ++stranded;
  }
  fabric_.fail_switch(sw2);

  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_unreachable, stranded);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_delivered, 0u);

  // The unicast path agrees: same receiver, same verdict.
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_unreachable, stranded + 1);
}

TEST_F(FabricTest, MulticastCountsPartitionedReceiversUnreachable) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  auto c = make(util::NodeId(2), util::VlanId(1), util::IpAddress(10, 0, 0, 3));
  int received = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { ++received; });
  fabric_.adapter(c).set_receive_handler([](const Datagram&) { FAIL(); });
  fabric_.partition_vlan(util::VlanId(1), {{a, b}, {c}});
  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_unreachable, 1u);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_delivered, 1u);
}

TEST_F(FabricTest, MulticastIgnoresMembersRewiredToAnotherVlan) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  const auto& adapter = fabric_.adapter(b);
  fabric_.set_port_vlan(adapter.attached_switch(), adapter.attached_port(),
                        util::VlanId(7));
  fabric_.adapter(b).set_receive_handler([](const Datagram&) { FAIL(); });
  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
  // A rewired member is out of scope entirely: not delivered, not counted.
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_unreachable, 0u);
}

// An adapter out of the beacon group is out of a multicast's scope: not
// delivered, not unreachable (dead or not), and it draws nothing from the
// segment's stream. Unicast still reaches it. Membership is read at send
// time: a frame in flight when it rejoins still misses it; the next one
// does not.
TEST_F(FabricTest, MulticastSkipsAdaptersThatLeftTheBeaconGroup) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  auto c = make(util::NodeId(2), util::VlanId(1), util::IpAddress(10, 0, 0, 3));
  auto d = make(util::NodeId(3), util::VlanId(1), util::IpAddress(10, 0, 0, 4));
  EXPECT_TRUE(fabric_.adapter(c).in_beacon_group());  // the default
  int b_got = 0, c_got = 0;
  fabric_.adapter(b).set_receive_handler([&](const Datagram&) { ++b_got; });
  fabric_.adapter(c).set_receive_handler([&](const Datagram&) { ++c_got; });
  fabric_.adapter(d).set_receive_handler([](const Datagram&) { FAIL(); });
  fabric_.adapter(c).set_in_beacon_group(false);
  fabric_.adapter(d).set_in_beacon_group(false);
  fabric_.set_adapter_health(d, HealthState::kDown);
  const SegmentLoad& load = fabric_.load(util::VlanId(1));

  // A sender need not be in the group itself.
  fabric_.adapter(a).set_in_beacon_group(false);
  EXPECT_TRUE(fabric_.multicast(a, kBeaconGroup, test_frame()));
  sim_.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(load.frames_sent, 1u);
  EXPECT_EQ(load.frames_delivered, 1u);
  EXPECT_EQ(load.frames_unreachable, 0u);

  EXPECT_TRUE(fabric_.send(a, util::IpAddress(10, 0, 0, 3), test_frame()));
  sim_.run();
  EXPECT_EQ(c_got, 1);

  fabric_.multicast(a, kBeaconGroup, test_frame());
  fabric_.adapter(c).set_in_beacon_group(true);  // while the frame flies
  sim_.run();
  EXPECT_EQ(b_got, 2);
  EXPECT_EQ(c_got, 1);
  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
  EXPECT_EQ(b_got, 3);
  EXPECT_EQ(c_got, 2);
  EXPECT_EQ(load.frames_unreachable, 0u);  // d left: never counted
}

TEST(FabricBeaconGroup, SkippedMemberDrawsNothingFromTheSegmentStream) {
  // Two fabrics on one seed and a jittered channel; in the second, an
  // adapter out of the group sits between the sender and the receiver in
  // member order. The receiver's arrival times must match exactly.
  auto arrivals = [](bool with_non_member) {
    sim::Simulator sim;
    Fabric fabric(sim, util::Rng(7));
    ChannelModel model;
    model.base_latency = sim::microseconds(100);
    model.jitter = sim::microseconds(80);
    model.loss_probability = 0.2;
    fabric.set_default_channel(model);
    fabric.set_processing_delay(sim::microseconds(50));
    const util::SwitchId sw = fabric.add_switch(4);
    std::vector<util::AdapterId> ids;
    for (std::uint32_t i = 0; i < 3; ++i) {
      ids.push_back(fabric.add_adapter(util::NodeId(i)));
      fabric.attach(ids.back(), sw, util::VlanId(i == 1 && !with_non_member
                                                     ? 2
                                                     : 1));
      fabric.set_adapter_ip(ids.back(), util::IpAddress(10, 0, 0, static_cast<std::uint8_t>(1 + i)));
    }
    fabric.adapter(ids[1]).set_in_beacon_group(false);
    std::vector<sim::SimTime> times;
    fabric.adapter(ids[2]).set_receive_handler(
        [&](const Datagram&) { times.push_back(sim.now()); });
    for (int round = 0; round < 20; ++round) {
      fabric.multicast(ids[0], kBeaconGroup, test_frame());
      sim.run();
    }
    return times;
  };
  const std::vector<sim::SimTime> alone = arrivals(false);
  EXPECT_GT(alone.size(), 5u);
  EXPECT_EQ(arrivals(true), alone);
}

TEST_F(FabricTest, ResetLoadAccountingKeepsVlanEntriesAndReferences) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run();

  const SegmentLoad& ref = fabric_.load(util::VlanId(1));
  EXPECT_EQ(ref.frames_sent, 1u);
  fabric_.reset_load_accounting();
  // Counters are zeroed in place: the reference stays valid and reads zero.
  EXPECT_EQ(ref.frames_sent, 0u);
  EXPECT_EQ(ref.frames_delivered, 0u);
  EXPECT_EQ(&fabric_.load(util::VlanId(1)), &ref);
  EXPECT_EQ(fabric_.total_frames_sent(), 0u);
}

TEST_F(FabricTest, LoadSamplingPublishesQuietVlansAfterReset) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  obs::TraceBus bus;
  obs::Recorder<obs::TraceRecord> samples(
      bus, obs::trace_mask({obs::TraceKind::kWireSample}));
  fabric_.set_trace(&bus);
  fabric_.enable_load_sampling(sim::milliseconds(10));

  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  sim_.run_until(sim::milliseconds(15));
  const std::size_t before = samples.size();
  EXPECT_GT(before, 0u);

  // After a reset the VLAN goes quiet — samples must keep flowing, now
  // reporting zeroes, instead of leaving gaps in the telemetry stream.
  fabric_.reset_load_accounting();
  sim_.run_until(sim::milliseconds(35));
  ASSERT_GT(samples.size(), before);
  const obs::TraceRecord& last = samples.records().back();
  EXPECT_EQ(last.vlan, util::VlanId(1));
  EXPECT_EQ(last.a, 0u);  // frames_sent zeroed in place
}

TEST_F(FabricTest, LoadSamplingWalksVlansAscendingOnlyOnceTheyHaveALoadRow) {
  // Wired in non-ascending order; VLAN 7 is wired but carries no traffic.
  std::vector<util::AdapterId> senders;
  std::uint8_t host = 1;
  for (std::uint32_t v : {105u, 1u, 7u, 100u}) {
    senders.push_back(make(util::NodeId(host), util::VlanId(v),
                           util::IpAddress(10, 0, 0, host)));
    ++host;
    make(util::NodeId(host), util::VlanId(v), util::IpAddress(10, 0, 0, host));
    ++host;
  }
  obs::TraceBus bus;
  obs::Recorder<obs::TraceRecord> samples(
      bus, obs::trace_mask({obs::TraceKind::kWireSample}));
  fabric_.set_trace(&bus);
  fabric_.enable_load_sampling(sim::milliseconds(10));
  for (std::size_t i : {0u, 1u, 3u})
    fabric_.multicast(senders[i], kBeaconGroup, test_frame());

  auto sampled_vlans = [&] {
    std::vector<util::VlanId> out;
    for (const obs::TraceRecord& r : samples.records()) out.push_back(r.vlan);
    return out;
  };
  sim_.run_until(sim::milliseconds(10));
  EXPECT_EQ(sampled_vlans(),
            (std::vector<util::VlanId>{util::VlanId(1), util::VlanId(100),
                                       util::VlanId(105)}));

  // Reading a quiet VLAN's load row creates it; sampling then includes it.
  EXPECT_EQ(fabric_.load(util::VlanId(7)).frames_sent, 0u);
  samples.clear();
  sim_.run_until(sim::milliseconds(20));
  EXPECT_EQ(sampled_vlans(),
            (std::vector<util::VlanId>{util::VlanId(1), util::VlanId(7),
                                       util::VlanId(100), util::VlanId(105)}));
}

TEST_F(FabricTest, SegmentKeepsTheDefaultChannelOfItsFirstUse) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  auto b = make(util::NodeId(1), util::VlanId(1), util::IpAddress(10, 0, 0, 2));
  ChannelModel slow;
  slow.base_latency = sim::microseconds(500);
  slow.jitter = 0;
  fabric_.set_default_channel(slow);  // only VLANs first used from now on
  auto c = make(util::NodeId(2), util::VlanId(2), util::IpAddress(10, 0, 0, 3));
  auto d = make(util::NodeId(3), util::VlanId(2), util::IpAddress(10, 0, 0, 4));

  sim::SimTime got_fast = -1;
  sim::SimTime got_slow = -1;
  fabric_.adapter(b).set_receive_handler(
      [&](const Datagram&) { got_fast = sim_.now(); });
  fabric_.adapter(d).set_receive_handler(
      [&](const Datagram&) { got_slow = sim_.now(); });
  fabric_.send(a, util::IpAddress(10, 0, 0, 2), test_frame());
  fabric_.send(c, util::IpAddress(10, 0, 0, 4), test_frame());
  sim_.run();
  EXPECT_EQ(got_fast, sim::microseconds(100));
  EXPECT_EQ(got_slow, sim::microseconds(500));
}

TEST_F(FabricTest, FindByIpDuplicateResolvesToLowestAdapterId) {
  // Duplicate IPs are a misconfiguration the verifier must express; the
  // resolution order must not depend on assignment order or replays drift.
  auto low = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 7));
  auto high = fabric_.add_adapter(util::NodeId(1));
  fabric_.attach(high, sw_, util::VlanId(1));
  fabric_.set_adapter_ip(high, util::IpAddress(10, 0, 0, 9));
  // Assign the duplicate on the higher id first: insertion order would pick
  // `high`, the deterministic rule must still pick `low`.
  fabric_.set_adapter_ip(low, util::IpAddress(10, 0, 0, 9));
  auto found = fabric_.find_by_ip(util::VlanId(1), util::IpAddress(10, 0, 0, 9));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, std::min(low, high));

  // The winner leaving the VLAN falls back to the higher id.
  const auto& adapter = fabric_.adapter(std::min(low, high));
  fabric_.set_port_vlan(adapter.attached_switch(), adapter.attached_port(),
                        util::VlanId(2));
  found = fabric_.find_by_ip(util::VlanId(1), util::IpAddress(10, 0, 0, 9));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, std::max(low, high));
}

TEST_F(FabricTest, VlanIndexStaysCoherentThroughTopologyChurn) {
  std::vector<util::AdapterId> ids;
  for (int i = 1; i <= 6; ++i)
    ids.push_back(make(util::NodeId(static_cast<std::uint32_t>(i)),
                       util::VlanId(static_cast<std::uint32_t>(1 + (i % 2))),
                       util::IpAddress(10, 0, 0, static_cast<std::uint8_t>(i))));
  EXPECT_TRUE(fabric_.vlan_index_consistent());
  EXPECT_EQ(fabric_.vlan_members(util::VlanId(1)).size(), 3u);
  EXPECT_EQ(fabric_.vlan_members(util::VlanId(2)).size(), 3u);

  // Moves, switch failure/recovery, node failure: wiring index unaffected
  // by liveness, updated by moves, always sorted.
  const auto& a0 = fabric_.adapter(ids[0]);
  fabric_.set_port_vlan(a0.attached_switch(), a0.attached_port(),
                        util::VlanId(1));
  EXPECT_TRUE(fabric_.vlan_index_consistent());
  EXPECT_EQ(fabric_.vlan_members(util::VlanId(1)).size(), 4u);
  fabric_.fail_switch(sw_);
  EXPECT_TRUE(fabric_.vlan_index_consistent());
  EXPECT_EQ(fabric_.vlan_members(util::VlanId(1)).size(), 4u);
  EXPECT_TRUE(fabric_.adapters_in_vlan(util::VlanId(1)).empty());  // liveness
  fabric_.recover_switch(sw_);
  fabric_.fail_node(util::NodeId(1));
  EXPECT_TRUE(fabric_.vlan_index_consistent());
  const auto& members = fabric_.vlan_members(util::VlanId(1));
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(fabric_.adapters_in_vlan(util::VlanId(1)).size(), 4u);
}

// An uncached reference for unicast resolution: the sender's VLAN comes
// from walking every switch's port table (a dead switch puts its adapters on
// no VLAN), and the target is the lowest AdapterId on that VLAN holding the
// IP, found by scanning every adapter.
util::VlanId reference_vlan(const Fabric& fabric, util::AdapterId id) {
  for (util::SwitchId sw : fabric.all_switches()) {
    const Switch& s = fabric.nic_switch(sw);
    for (std::size_t p = 0; p < s.port_count(); ++p) {
      const util::PortId port(static_cast<std::uint32_t>(p));
      if (s.port_adapter(port) != id) continue;
      return s.failed() ? util::VlanId::invalid() : s.port_vlan(port);
    }
  }
  return util::VlanId::invalid();
}

// Invalid when no adapter on `vlan` holds `ip`.
util::AdapterId reference_target(const Fabric& fabric, util::VlanId vlan,
                                 util::IpAddress ip) {
  if (ip.is_unspecified()) return util::AdapterId::invalid();
  for (util::AdapterId id : fabric.all_adapters())  // ascending ids
    if (fabric.adapter(id).ip() == ip && reference_vlan(fabric, id) == vlan)
      return id;
  return util::AdapterId::invalid();
}

// Seeded random topology churn interleaved with unicasts: every frame must
// land on exactly the adapter the uncached reference names, or be counted
// unreachable. Senders repeat destinations, so any resolution state the
// fabric keeps between sends is exercised across every kind of mutation.
TEST(FabricResolution, UnicastsFollowTheReferenceThroughRandomChurn) {
  sim::Simulator sim;
  Fabric fabric(sim, util::Rng(11));
  ChannelModel model;
  model.base_latency = sim::microseconds(50);
  model.jitter = 0;
  fabric.set_default_channel(model);

  constexpr int kSwitches = 3;
  constexpr int kAdapters = 18;
  const std::vector<util::VlanId> vlans = {util::VlanId(1), util::VlanId(2),
                                           util::VlanId(3)};
  // Few addresses for many adapters: duplicates are the common case.
  std::vector<util::IpAddress> pool = {util::IpAddress()};
  for (std::uint8_t h = 1; h <= 7; ++h) pool.emplace_back(10, 0, 0, h);

  std::vector<util::SwitchId> switches;
  for (int i = 0; i < kSwitches; ++i) switches.push_back(fabric.add_switch(8));
  std::vector<util::AdapterId> ids;
  std::vector<util::AdapterId> received;
  util::Rng rng(2024);
  for (int i = 0; i < kAdapters; ++i) {
    const util::AdapterId id =
        fabric.add_adapter(util::NodeId(static_cast<std::uint32_t>(i)));
    fabric.attach(id, switches[static_cast<std::size_t>(i % kSwitches)],
                  vlans[rng.below(vlans.size())]);
    fabric.set_adapter_ip(id, pool[rng.below(pool.size())]);
    fabric.adapter(id).set_receive_handler(
        [&received, id](const Datagram&) { received.push_back(id); });
    ids.push_back(id);
  }

  int delivered = 0;
  int unreachable = 0;
  int refused = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.below(20);
    const util::AdapterId pick = ids[rng.below(ids.size())];
    if (op == 0) {
      fabric.set_adapter_ip(pick, pool[rng.below(pool.size())]);
    } else if (op == 1) {
      const Adapter& a = fabric.adapter(pick);
      fabric.set_port_vlan(a.attached_switch(), a.attached_port(),
                           vlans[rng.below(vlans.size())]);
    } else if (op == 2) {
      fabric.fail_switch(switches[rng.below(switches.size())]);
    } else if (op == 3 || op == 4) {
      fabric.recover_switch(switches[rng.below(switches.size())]);
    } else if (op == 5) {
      const util::VlanId vlan = vlans[rng.below(vlans.size())];
      std::vector<std::vector<util::AdapterId>> parts(2);
      for (util::AdapterId id : fabric.vlan_members(vlan))
        parts[rng.below(2)].push_back(id);
      fabric.partition_vlan(vlan, parts);
    } else if (op == 6) {
      fabric.heal_vlan(vlans[rng.below(vlans.size())]);
    } else if (op == 7) {
      fabric.set_adapter_health(pick, rng.chance(0.5) ? HealthState::kUp
                                                      : HealthState::kRecvDead);
    } else {
      // A burst of unicasts from one sender to a couple of destinations.
      const util::IpAddress first = pool[rng.below(pool.size())];
      const util::IpAddress second = pool[rng.below(pool.size())];
      for (int k = 0; k < 4; ++k) {
        const util::IpAddress dst = (k % 2 == 0) ? first : second;
        const util::VlanId vlan = reference_vlan(fabric, pick);
        const bool can_leave = fabric.adapter(pick).can_send() && vlan.valid();
        util::AdapterId expect = util::AdapterId::invalid();
        std::uint64_t before = 0;
        if (can_leave) {
          expect = reference_target(fabric, vlan, dst);
          if (expect.valid() &&
              (expect == pick || !fabric.segment(vlan).connected(pick, expect) ||
               !fabric.adapter(expect).can_recv()))
            expect = util::AdapterId::invalid();
          before = fabric.load(vlan).frames_unreachable;
        }
        received.clear();
        ASSERT_EQ(fabric.send(pick, dst, test_frame()), can_leave)
            << "step " << step;
        sim.run();
        if (!can_leave) {
          EXPECT_TRUE(received.empty()) << "step " << step;
          ++refused;
        } else if (expect.valid()) {
          ASSERT_EQ(received, std::vector<util::AdapterId>{expect})
              << "step " << step;
          EXPECT_EQ(fabric.load(vlan).frames_unreachable, before);
          ++delivered;
        } else {
          EXPECT_TRUE(received.empty()) << "step " << step;
          ASSERT_EQ(fabric.load(vlan).frames_unreachable, before + 1)
              << "step " << step;
          ++unreachable;
        }
      }
    }
  }
  EXPECT_TRUE(fabric.vlan_index_consistent());
  // The sequence must have exercised every outcome.
  EXPECT_GT(delivered, 500);
  EXPECT_GT(unreachable, 500);
  EXPECT_GT(refused, 50);
}

TEST_F(FabricTest, MulticastPayloadIsSharedAcrossReceivers) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  std::vector<Payload> seen;
  for (int i = 2; i <= 4; ++i) {
    auto id = make(util::NodeId(static_cast<std::uint32_t>(i)), util::VlanId(1),
                   util::IpAddress(10, 0, 0, static_cast<std::uint8_t>(i)));
    fabric_.adapter(id).set_receive_handler(
        [&](const Datagram& d) { seen.push_back(d.payload); });
  }
  fabric_.multicast(a, kBeaconGroup, test_frame());
  sim_.run();
  ASSERT_EQ(seen.size(), 3u);
  // One frame allocation regardless of fan-out: all receivers observe the
  // same buffer.
  EXPECT_EQ(seen[0].identity(), seen[1].identity());
  EXPECT_EQ(seen[1].identity(), seen[2].identity());
}

TEST_F(FabricTest, SwitchPortExhaustionAllocationFails) {
  Fabric small(sim_, util::Rng(2));
  auto sw = small.add_switch(1);
  auto a = small.add_adapter(util::NodeId(0));
  small.attach(a, sw, util::VlanId(1));
  EXPECT_FALSE(small.nic_switch(sw).free_port().has_value());
}

// --- SwitchConsole ---------------------------------------------------------------

TEST_F(FabricTest, ConsoleWalkAndSet) {
  auto a = make(util::NodeId(0), util::VlanId(1), util::IpAddress(10, 0, 0, 1));
  SwitchConsole console(fabric_);
  auto ports = console.walk_ports(sw_);
  ASSERT_TRUE(ports.has_value());
  EXPECT_EQ((*ports)[0].adapter, a);
  EXPECT_EQ((*ports)[0].vlan, util::VlanId(1));

  EXPECT_TRUE(console.set_port_vlan(sw_, util::PortId(0), util::VlanId(9)));
  EXPECT_EQ(fabric_.vlan_of(a), util::VlanId(9));
  EXPECT_EQ(console.set_operations(), 1u);
  EXPECT_EQ(console.get_port_vlan(sw_, util::PortId(0)), util::VlanId(9));
}

TEST_F(FabricTest, ConsoleUnreachableWhenGateDenies) {
  SwitchConsole console(fabric_);
  console.set_access_check([] { return false; });
  EXPECT_FALSE(console.walk_ports(sw_).has_value());
  EXPECT_FALSE(console.set_port_vlan(sw_, util::PortId(0), util::VlanId(9)));
}

TEST_F(FabricTest, ConsoleFailsOnDeadSwitch) {
  SwitchConsole console(fabric_);
  fabric_.fail_switch(sw_);
  EXPECT_FALSE(console.walk_ports(sw_).has_value());
  EXPECT_FALSE(console.set_port_vlan(sw_, util::PortId(0), util::VlanId(9)));
}

// --- Segment partition mapping ------------------------------------------------------

TEST(Segment, UnlistedAdaptersShareDefaultPart) {
  Segment seg(util::VlanId(1), ChannelModel{}, util::Rng(1));
  seg.partition({{util::AdapterId(1)}});
  // Adapter 2 and 3 are unlisted: both in part 0, connected to each other
  // but not to adapter 1.
  EXPECT_TRUE(seg.connected(util::AdapterId(2), util::AdapterId(3)));
  EXPECT_FALSE(seg.connected(util::AdapterId(1), util::AdapterId(2)));
  seg.heal();
  EXPECT_TRUE(seg.connected(util::AdapterId(1), util::AdapterId(2)));
}

// --- Payload thread ownership ----------------------------------------------
// A Rep is pooled on the thread that allocated it. Every Farm is driven by
// one thread, so releasing a Rep on another thread breaks that contract.

TEST(PayloadOwnership, OwnerThreadReleaseStillPools) {
  Payload::trim_pool();
  const std::size_t before = Payload::pool_size();
  const std::vector<std::uint8_t> body = {0x02};
  {
    const auto p = Payload::copy_of(wire::encode_frame(2, body));
    (void)p;
  }
  EXPECT_EQ(Payload::pool_size(), before + 1);
}

#if !GS_PAYLOAD_OWNER_CHECK
TEST(PayloadOwnership, ForeignReleaseDeletesInsteadOfPoisoningThePool) {
  const std::vector<std::uint8_t> body = {0x01};
  const auto bytes = wire::encode_frame(2, body);
  auto payload = std::make_unique<Payload>(Payload::copy_of(bytes));
  std::size_t foreign_pool_after = 99;
  std::thread t([&] {
    // This thread never owned the Rep; releasing it here must delete it, not
    // push it into THIS thread's free list where the wrong thread would pop
    // it later.
    payload.reset();
    foreign_pool_after = Payload::pool_size();
  });
  t.join();
  EXPECT_EQ(foreign_pool_after, 0u);
}
#else
TEST(PayloadOwnership, ForeignReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::uint8_t> body = {0x03};
  EXPECT_DEATH(
      {
        auto victim = std::make_unique<Payload>(
            Payload::copy_of(wire::encode_frame(2, body)));
        std::thread t([&] { victim.reset(); });
        t.join();
      },
      "released on a thread other than its owner");
}
#endif

}  // namespace
}  // namespace gs::net
