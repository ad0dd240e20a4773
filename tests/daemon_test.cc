// GsDaemon unit tests: report routing/reliability, GSC-change handling,
// admin-adapter convention, halt/resume, and frame validation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "net/fabric.h"
#include "net/fabric_transport.h"
#include "obs/trace.h"
#include "wire/frame.h"

namespace gs::proto {
namespace {

Params quick_params() {
  Params p;
  p.beacon_phase = sim::seconds(2);
  p.amg_stable_wait = sim::milliseconds(400);
  p.gsc_stable_wait = sim::seconds(2);
  p.report_retry = sim::seconds(1);
  return p;
}

class DaemonTest : public ::testing::Test {
 protected:
  void build(int nodes, int adapters, std::uint64_t seed = 1,
             Params params = quick_params()) {
    farm_.emplace(sim_, farm::FarmSpec::uniform(nodes, adapters), params,
                  seed);
    farm_->start();
  }

  void stabilize() {
    ASSERT_TRUE(farm::run_until_gsc_stable(*farm_, sim::seconds(120)));
  }

  sim::Simulator sim_;
  std::optional<farm::Farm> farm_;
};

TEST_F(DaemonTest, AdminAdapterConventionIsIndexZero) {
  build(3, 2);
  stabilize();
  for (std::size_t i = 0; i < farm_->node_count(); ++i) {
    GsDaemon& daemon = farm_->daemon(i);
    EXPECT_EQ(daemon.config().admin_adapter_index, 0u);
    EXPECT_EQ(&daemon.admin_protocol(), &daemon.protocol(0));
    // The admin protocol sits on the admin VLAN.
    EXPECT_EQ(farm_->fabric().vlan_of(farm_->node_adapters(i)[0]),
              farm::admin_vlan());
  }
}

TEST_F(DaemonTest, GscIpIsAdminGroupLeader) {
  build(4, 2);
  stabilize();
  // Highest admin IP = node 3's admin adapter.
  const util::IpAddress expected =
      farm_->fabric().adapter(farm_->node_adapters(3)[0]).ip();
  for (std::size_t i = 0; i < farm_->node_count(); ++i)
    EXPECT_EQ(farm_->daemon(i).gsc_ip(), expected);
}

TEST_F(DaemonTest, EveryLeaderGotItsReportsAcked) {
  build(5, 3);
  stabilize();
  proto::Central* central = farm_->active_central();
  ASSERT_NE(central, nullptr);
  // All 3 groups of 5 known through acked reports.
  EXPECT_EQ(central->known_adapter_count(), 15u);
  // Reports flowed: at least one per AMG leader.
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < farm_->node_count(); ++i)
    sent += farm_->daemon(i).reports_sent();
  EXPECT_GE(sent, 3u);
}

TEST_F(DaemonTest, ReportsRetryUntilAcked) {
  // Heavy loss on the admin VLAN: reports must retry and eventually land.
  Params p = quick_params();
  build(4, 2, 3, p);
  net::ChannelModel lossy;
  lossy.loss_probability = 0.4;
  farm_->fabric().segment(farm::admin_vlan()).set_model(lossy);
  ASSERT_TRUE(farm::run_until(sim_, sim::seconds(300), [&] {
    proto::Central* c = farm_->active_central();
    return c != nullptr && c->known_adapter_count() == 8;
  })) << "reports never got through the lossy admin segment";
}

TEST_F(DaemonTest, CorruptFramesAreDroppedAndCounted) {
  build(2, 1);
  stabilize();
  // Inject a corrupted frame directly at node 0's adapter.
  GsDaemon& daemon = farm_->daemon(0);
  const util::AdapterId id = farm_->node_adapters(0)[0];
  std::vector<std::uint8_t> payload{1, 2, 3};
  auto frame = wire::encode_frame(6, payload);
  frame[wire::kFrameHeaderSize] ^= 0xFF;  // corrupt the payload

  net::Datagram dgram;
  dgram.src = util::IpAddress(10, 0, 0, 99);
  dgram.dst = farm_->fabric().adapter(id).ip();
  dgram.vlan = farm_->fabric().vlan_of(id);
  dgram.payload = net::make_payload(frame);
  const std::uint64_t before = daemon.frames_dropped();
  farm_->fabric().adapter(id).deliver(dgram);
  sim_.run_until(sim_.now() + sim::seconds(1));
  EXPECT_EQ(daemon.frames_dropped(), before + 1);
}

TEST_F(DaemonTest, HeartbeatWithTrailingSeqIsADecodeDrop) {
  build(2, 1);
  stabilize();
  // A heartbeat in the old {view, seq} layout: the envelope verifies, the
  // typed payload has 8 trailing bytes.
  GsDaemon& daemon = farm_->daemon(0);
  const util::AdapterId id = farm_->node_adapters(0)[0];
  wire::Writer w;
  w.u64(daemon.protocol(0).committed().view());
  w.u64(1);
  const std::vector<std::uint8_t> payload = w.take();
  ASSERT_EQ(payload.size(), 16u);

  net::Datagram dgram;
  dgram.src = farm_->fabric().adapter(farm_->node_adapters(1)[0]).ip();
  dgram.dst = farm_->fabric().adapter(id).ip();
  dgram.vlan = farm_->fabric().vlan_of(id);
  dgram.payload = net::make_payload(wire::encode_frame(
      static_cast<std::uint16_t>(MsgType::kHeartbeat), payload));
  ASSERT_TRUE(dgram.payload.verified().ok());
  const auto decode_drops = [&] {
    return daemon.wire_stats()
        .dropped[static_cast<std::size_t>(WireStats::Drop::kDecode)];
  };
  const std::uint64_t before = decode_drops();
  const std::uint64_t dropped_before = daemon.frames_dropped();
  farm_->fabric().adapter(id).deliver(dgram);
  EXPECT_EQ(decode_drops(), before + 1);
  EXPECT_EQ(daemon.frames_dropped(), dropped_before + 1);
}

TEST_F(DaemonTest, HaltSilencesNode) {
  build(4, 2);
  stabilize();
  GsDaemon& daemon = farm_->daemon(1);
  daemon.halt();
  EXPECT_TRUE(daemon.halted());
  EXPECT_EQ(daemon.protocol(0).state(), AdapterState::kIdle);
  EXPECT_EQ(daemon.protocol(1).state(), AdapterState::kIdle);

  // The farm detects the silence as a failure and recommits around it.
  farm_->fabric().fail_node(util::NodeId(1));
  EXPECT_TRUE(
      farm::run_until_converged(*farm_, sim_.now() + sim::seconds(60)));
}

TEST_F(DaemonTest, ResumeRejoinsEverything) {
  build(4, 2);
  stabilize();
  farm_->fail_node(1);
  ASSERT_TRUE(
      farm::run_until_converged(*farm_, sim_.now() + sim::seconds(60)));
  farm_->recover_node(1);
  ASSERT_TRUE(
      farm::run_until_converged(*farm_, sim_.now() + sim::seconds(90)));
  EXPECT_TRUE(farm_->daemon(1).protocol(0).is_committed());
}

TEST_F(DaemonTest, HaltedGscFailsOverToNextEligible) {
  build(5, 2);
  stabilize();
  proto::Central* central = farm_->active_central();
  ASSERT_NE(central, nullptr);
  const util::IpAddress old_gsc = central->self_ip();

  farm_->fail_node(4);  // node 4 hosts the highest admin IP = GSC
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    proto::Central* c = farm_->active_central();
    return c != nullptr && c->self_ip() != old_gsc &&
           c->known_adapter_count() >= 8;  // 4 live nodes x 2 adapters
  }));
  // The halted node's Central is inactive.
  EXPECT_FALSE(farm_->daemon(4).central()->active());
}

TEST_F(DaemonTest, GscChangeTriggersFullRereports) {
  build(5, 2);
  stabilize();
  proto::Central* old_central = farm_->active_central();
  const std::uint64_t old_known = old_central->known_adapter_count();
  ASSERT_EQ(old_known, 10u);

  farm_->fail_node(4);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    proto::Central* c = farm_->active_central();
    // The replacement rebuilt its view purely from re-sent full reports.
    return c != nullptr && c->active() && c->known_adapter_count() >= 8u &&
           c->groups().size() >= 2u;
  }));
}

// The GSC node hosting other AMG leaders reports to itself via loopback.
TEST_F(DaemonTest, LoopbackReportWhenGscHostsLeaders) {
  build(3, 2);
  stabilize();
  // Node 2 has the highest IPs on BOTH VLANs: it is GSC and leads both
  // groups, so both reports were local-loopback deliveries.
  proto::Central* central = farm_->active_central();
  ASSERT_NE(central, nullptr);
  EXPECT_EQ(central->self_ip(),
            farm_->fabric().adapter(farm_->node_adapters(2)[0]).ip());
  for (const auto& group : central->groups())
    EXPECT_EQ(group.leader.node, util::NodeId(2));
  EXPECT_EQ(central->known_adapter_count(), 6u);
}

// --- Teardown with deliveries in flight -------------------------------------

// Destroying a daemon over the simulated fabric while frames to it still
// wait out the receiving host's processing delay must leave those
// deliveries harmless: ~GsDaemon unhooked its adapter's receive handler, so
// they run into no daemon (no trace record from the dead daemon's adapter;
// ASan would flag the freed daemon), while the survivors keep exchanging
// frames and get their own in-flight frames at arrival + δ.
TEST(DaemonTeardownTest, PendingDispatchesNeverRunAfterDestruction) {
  obs::TraceBus bus;
  Params params = quick_params();
  params.proc_delay_mean = sim::milliseconds(5);
  params.trace = &bus;

  sim::Simulator sim;
  net::Fabric fabric(sim, util::Rng(5));
  fabric.set_processing_delay(params.proc_delay_mean);
  const util::SwitchId sw = fabric.add_switch(8);
  std::vector<util::AdapterId> ids;
  HeartbeatFrames frames;
  std::vector<std::unique_ptr<net::FabricTransport>> transports;
  std::vector<std::unique_ptr<GsDaemon>> daemons;
  for (std::uint32_t n = 0; n < 3; ++n) {
    const util::AdapterId id = fabric.add_adapter(util::NodeId(n));
    fabric.attach(id, sw, util::VlanId(1));
    fabric.set_adapter_ip(
        id, util::IpAddress(10, 0, 0, static_cast<std::uint8_t>(n + 1)));
    ids.push_back(id);
    transports.push_back(std::make_unique<net::FabricTransport>(
        fabric, std::vector<util::AdapterId>{id}));
    GsDaemon::Options opts;
    opts.clock = &sim;
    opts.transport = transports.back().get();
    opts.params = &params;
    opts.node.node = util::NodeId(n);
    opts.node.name = "teardown-" + std::to_string(n);
    opts.rng = util::Rng(100 + n);
    opts.heartbeat_frames = &frames;
    daemons.push_back(std::make_unique<GsDaemon>(std::move(opts)));
  }
  for (auto& daemon : daemons) daemon->start();
  sim.run_until(sim::seconds(3));
  ASSERT_GT(daemons[2]->wire_stats().total_decoded(), 0u);

  // Junk frames from node 1 to the victim (node 0) and to node 2; each
  // daemon drops them at dispatch. Once the latency has passed they have
  // all arrived, but most still wait out δ (5 ms mean).
  constexpr std::uint64_t kJunk = 8;
  const util::IpAddress victim_ip = transports[0]->local_ip(0);
  for (std::uint64_t i = 0; i < kJunk; ++i) {
    for (const util::IpAddress to : {victim_ip, transports[2]->local_ip(0)})
      ASSERT_TRUE(fabric.send(ids[1], to,
                              std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  }
  sim.run_until(sim.now() + sim::microseconds(300));  // base + max jitter
  ASSERT_LT(daemons[0]->frames_dropped(), kJunk);
  ASSERT_LT(daemons[2]->frames_dropped(), kJunk);

  std::uint64_t from_victim = 0;
  auto tap = bus.subscribe([&](const obs::TraceRecord& record) {
    if (record.source == victim_ip) ++from_victim;
  });
  const std::uint64_t survivor_decoded =
      daemons[1]->wire_stats().total_decoded();
  daemons[0].reset();
  sim.run_until(sim.now() + sim::seconds(10));
  EXPECT_EQ(from_victim, 0u);
  EXPECT_EQ(daemons[2]->frames_dropped(), kJunk);
  EXPECT_GT(daemons[1]->wire_stats().total_decoded(), survivor_decoded);
  tap.reset();
  daemons.clear();
}

}  // namespace
}  // namespace gs::proto
