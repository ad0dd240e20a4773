// WallClock / TimeSource seam tests: monotonicity, timer-wheel ordering
// checked against the sim::Simulator reference implementation, cancel
// semantics, and the shutdown-ordering regression — a daemon destroyed with
// timers and dispatches in flight must never fire into freed memory (the
// ASan CI job turns any violation into a hard failure).
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "farm/realnet.h"
#include "net/udp_transport.h"
#include "sim/event_queue.h"
#include "tests/heap_queue.h"
#include "sim/simulator.h"
#include "sim/wallclock.h"

namespace gs {
namespace {

TEST(WallClockTest, NowIsMonotonic) {
  sim::WallClock clock;
  sim::SimTime last = clock.now();
  EXPECT_GE(last, 0);
  for (int i = 0; i < 1000; ++i) {
    const sim::SimTime now = clock.now();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(WallClockTest, TimersFireInDeadlineOrderLikeTheSimulator) {
  // Same schedule on both TimeSource implementations; the observed firing
  // order must match (ties broken by arming order in both).
  const std::vector<sim::SimDuration> delays = {
      sim::milliseconds(30), sim::milliseconds(10), sim::milliseconds(20),
      sim::milliseconds(10), 0};

  std::vector<int> sim_order;
  sim::Simulator sim;
  for (std::size_t i = 0; i < delays.size(); ++i)
    sim.after(delays[i], [&sim_order, i] { sim_order.push_back(int(i)); });
  sim.run();

  std::vector<int> wall_order;
  sim::WallClock clock;
  for (std::size_t i = 0; i < delays.size(); ++i)
    clock.after(delays[i], [&wall_order, i] { wall_order.push_back(int(i)); });
  while (wall_order.size() < delays.size()) {
    if (clock.run_due() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_EQ(sim_order, wall_order);
  EXPECT_EQ(wall_order, (std::vector<int>{4, 1, 3, 2, 0}));
  EXPECT_EQ(clock.pending(), 0u);
  EXPECT_EQ(clock.executed(), delays.size());
}

TEST(WallClockTest, PastDeadlinesFireOnNextRunDue) {
  sim::WallClock clock;
  bool fired = false;
  clock.at(0, [&] { fired = true; });  // long past by construction time
  EXPECT_FALSE(fired);
  EXPECT_EQ(clock.run_due(), 1u);
  EXPECT_TRUE(fired);
}

TEST(WallClockTest, CancelPreventsFiringAndReportsPendingState) {
  sim::WallClock clock;
  bool fired = false;
  sim::Timer t = clock.after(0, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  EXPECT_TRUE(t.cancel());
  EXPECT_FALSE(t.cancel());  // second cancel: no longer pending
  EXPECT_EQ(clock.run_due(), 0u);
  EXPECT_FALSE(fired);
}

TEST(WallClockTest, RunDueDoesNotLivelockOnZeroDelayRearm) {
  // A callback that re-arms itself at zero delay must not spin forever
  // inside one run_due() pass (the cutoff snapshots now()).
  // The pass may legitimately run a few re-arms while the microsecond
  // clock has not ticked yet, but it must exit as soon as it does — a
  // broken implementation spins to the cap and drains the queue.
  constexpr int kCap = 100000;
  sim::WallClock clock;
  int fires = 0;
  std::function<void()> rearm = [&] {
    ++fires;
    if (fires < kCap) clock.after(0, rearm);
  };
  clock.after(0, rearm);
  const std::size_t ran = clock.run_due();
  EXPECT_GE(ran, 1u);
  EXPECT_LT(fires, kCap);
  EXPECT_GT(clock.pending(), 0u);  // the re-armed timer waits its turn
}

// The cutoff-snapshot guard, replicated pop-for-pop over a raw queue: the
// run_due() loop body is backend-independent, so the livelock pin must hold
// for the timing wheel and the reference heap alike. A fake clock advances
// one microsecond per callback, exactly the condition under which the real
// WallClock escapes a zero-delay re-arm storm.
template <typename Queue>
void ZeroDelayRearmRespectsCutoffSnapshot() {
  Queue q;
  sim::SimTime fake_now = 1000;
  constexpr int kCap = 100000;
  int fires = 0;
  std::function<void()> rearm = [&] {
    ++fires;
    ++fake_now;  // wall time moves while the callback runs
    if (fires < kCap) q.push(fake_now, rearm);
  };
  q.push(fake_now, rearm);

  const sim::SimTime cutoff = fake_now;  // snapshotted before the pass
  std::size_t ran = 0;
  while (!q.empty() && q.next_time() <= cutoff) {
    auto [when, fn] = q.pop();
    (void)when;
    fn();
    ++ran;
  }
  EXPECT_EQ(ran, 1u);  // the re-arm landed past the cutoff
  EXPECT_LT(fires, kCap);
  EXPECT_EQ(q.size(), 1u);  // and waits for the next pass
}

TEST(WallClockTest, CutoffSnapshotGuardHoldsOnWheelBackend) {
  ZeroDelayRearmRespectsCutoffSnapshot<sim::EventQueue>();
}

TEST(WallClockTest, CutoffSnapshotGuardHoldsOnHeapReference) {
  ZeroDelayRearmRespectsCutoffSnapshot<sim::HeapEventQueue>();
}

TEST(WallClockTest, MoveAssignCancelsOverwrittenTimer) {
  // Overwriting a live Timer by move-assignment must cancel the old event,
  // not leak it to fire (the WallClock backend of the same Simulator pin).
  sim::WallClock clock;
  int first = 0, second = 0;
  sim::Timer t = clock.after(0, [&] { ++first; });
  t = clock.after(0, [&] { ++second; });
  while (clock.run_due() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClockTest, CancelAllDropsEverythingWithoutFiring) {
  sim::WallClock clock;
  int fires = 0;
  std::vector<sim::Timer> timers;
  for (int i = 0; i < 16; ++i)
    timers.push_back(clock.after(0, [&] { ++fires; }));
  clock.cancel_all();
  EXPECT_EQ(clock.pending(), 0u);
  EXPECT_EQ(clock.run_due(), 0u);
  EXPECT_EQ(fires, 0);
  // Outstanding handles stay safe: cancel() is a no-op, not a crash.
  for (sim::Timer& t : timers) EXPECT_FALSE(t.cancel());
}

// --- Shutdown ordering ------------------------------------------------------

net::UdpTransport::PortSpec loop_port(std::uint8_t host) {
  net::UdpTransport::PortSpec spec;
  spec.ip = util::IpAddress(10, 9, 0, host);
  spec.mac = util::MacAddress(host);
  spec.vlan = util::VlanId(9);
  return spec;
}

TEST(ShutdownOrderingTest, DaemonDestroyedWithInFlightTimersNeverFires) {
  // Boot two real daemons far enough to have beacon/heartbeat timers in
  // flight, then destroy one daemon while the clock still holds its
  // callbacks. Draining the clock afterwards must
  // not touch the dead daemon or its closed transport (ASan would flag any
  // use-after-free).
  proto::Params params;
  params.start_skew_max = 0;
  params.beacon_phase = sim::milliseconds(50);
  params.beacon_interval = sim::milliseconds(10);
  params.beacon_setup_min = params.beacon_setup_max = sim::milliseconds(10);
  params.hb_period = sim::milliseconds(10);

  sim::WallClock clock;
  net::EventLoop loop;
  net::UdpPortMap map(48600, 16);  // ports: see udp_transport_test.cc

  auto transport_a = std::make_unique<net::UdpTransport>(
      loop, map, std::vector<net::UdpTransport::PortSpec>{loop_port(1)});
  auto transport_b = std::make_unique<net::UdpTransport>(
      loop, map, std::vector<net::UdpTransport::PortSpec>{loop_port(2)});

  proto::HeartbeatFrames frames;
  auto make_daemon = [&](net::Transport* transport, std::uint32_t id) {
    proto::GsDaemon::Options opts;
    opts.clock = &clock;
    opts.transport = transport;
    opts.params = &params;
    opts.node.node = util::NodeId(id);
    opts.node.name = "shutdown-" + std::to_string(id);
    opts.rng = util::Rng(1000 + id);
    opts.heartbeat_frames = &frames;
    return std::make_unique<proto::GsDaemon>(std::move(opts));
  };
  auto daemon_a = make_daemon(transport_a.get(), 1);
  auto daemon_b = make_daemon(transport_b.get(), 2);
  daemon_a->start();
  daemon_b->start();

  // Let beacons fly so both daemons have exchanged frames and hold armed
  // timers.
  loop.run_until(clock, clock.now() + sim::milliseconds(120), nullptr);
  EXPECT_GT(transport_a->stats().frames_sent, 0u);

  // Destroy daemon A with its timers still pending, then its transport.
  daemon_a.reset();
  transport_a.reset();

  // Drive the loop well past every deadline daemon A ever armed: its
  // destructor cancelled every Timer it held, the start skew included.
  // Daemon B keeps running against a peer that went silent — exactly the
  // kill path.
  loop.run_until(clock, clock.now() + sim::milliseconds(200), nullptr);
  EXPECT_FALSE(daemon_b->halted());
  daemon_b.reset();
  transport_b.reset();
  clock.cancel_all();
}

TEST(ShutdownOrderingTest, RealFarmKillThenTeardownIsClean) {
  // kill_node closes sockets while the victim's timers are still queued;
  // the farm must keep running and tear down without touching them.
  farm::RealFarm::Options opts;
  opts.base_port = 48640;  // ports: see udp_transport_test.cc
  opts.vlan_stride = 16;
  opts.params.start_skew_max = 0;
  opts.params.beacon_phase = sim::milliseconds(80);
  opts.params.beacon_interval = sim::milliseconds(20);
  opts.params.beacon_setup_min = opts.params.beacon_setup_max =
      sim::milliseconds(10);
  opts.params.hb_period = sim::milliseconds(20);
  opts.params.amg_stable_wait = sim::milliseconds(50);
  opts.params.gsc_stable_wait = sim::milliseconds(100);
  farm::RealFarm farm(std::move(opts));
  for (int n = 0; n < 3; ++n) {
    farm::RealFarm::NodeSpec spec;
    spec.name = "kill-" + std::to_string(n);
    spec.ports = {loop_port(static_cast<std::uint8_t>(10 + n))};
    farm.add_node(std::move(spec));
  }
  farm.start();
  ASSERT_TRUE(farm.run_until(sim::seconds(20), [&] { return farm.converged(); }));
  farm.kill_node(0);
  EXPECT_TRUE(farm.killed(0));
  EXPECT_FALSE(farm.udp_transport(0)->loopback_ok(0));
  // Survivors re-converge without the victim.
  EXPECT_TRUE(farm.run_until(sim::seconds(20), [&] { return farm.converged(); }));
  // Destructor runs with the victim's stale timers still in the wheel.
}

}  // namespace
}  // namespace gs
