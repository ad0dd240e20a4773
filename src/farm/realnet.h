// RealFarm — a GulfStream deployment over the real-transport backend.
//
// Where farm::Farm builds a *simulated* switched network and runs the
// daemons on virtual time, RealFarm boots the same unmodified daemons as
// real UDP endpoints: one WallClock (steady-clock TimeSource), one epoll
// EventLoop, one UdpPortMap, and per node a UdpTransport whose ports are
// nonblocking loopback sockets. Everything runs on the calling thread —
// run_until() interleaves socket readiness with due wall-clock timers, the
// exact single-threaded execution model the simulator has.
//
// Fault injection is process-style: kill_node() halts the daemon and closes
// its sockets (peers see silence, exactly like a crashed process), and
// emits the synthetic kFaultInjected trace records the latency observatory
// anchors detection spans on (in the sim the fabric emits these).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gs/gulfstream.h"
#include "net/udp_transport.h"
#include "obs/trace.h"
#include "sim/wallclock.h"
#include "util/ip.h"
#include "util/rng.h"

namespace gs::farm {

class RealFarm {
 public:
  struct NodeSpec {
    std::string name;
    bool central_eligible = true;
    // Adapter 0 is the admin adapter (§2.2 convention), like everywhere.
    std::vector<net::UdpTransport::PortSpec> ports;
  };

  struct Options {
    proto::Params params;
    std::uint16_t base_port = 47000;
    std::uint16_t vlan_stride = 256;
    std::uint64_t seed = 2001;
  };

  explicit RealFarm(Options opts);
  ~RealFarm();

  RealFarm(const RealFarm&) = delete;
  RealFarm& operator=(const RealFarm&) = delete;

  // Adds a node, binding its loopback sockets immediately (so a port
  // conflict fails fast, before start()). Returns the node index.
  std::size_t add_node(NodeSpec spec);

  // Starts every daemon (each applies its start-up skew on the wall clock).
  void start();

  // Drives the event loop until `until()` holds or `timeout` (wall time)
  // elapses. Returns whether the predicate was met.
  bool run_until(sim::SimDuration timeout, const std::function<bool()>& until);
  // Drives the event loop for a fixed wall-time slice.
  void run_for(sim::SimDuration duration);

  // Process-style kill: halts the daemon, closes its sockets, and emits one
  // kFaultInjected per adapter so detection spans open. The object is
  // retained (its stats stay readable); there is no resurrection.
  void kill_node(std::size_t index);

  // True when every live daemon's every adapter is committed and, per VLAN,
  // all live adapters agree on one leader and one view covering exactly the
  // live population of that VLAN.
  [[nodiscard]] bool converged() const;

  [[nodiscard]] std::size_t node_count() const { return daemons_.size(); }
  [[nodiscard]] proto::GsDaemon& daemon(std::size_t index);
  [[nodiscard]] bool killed(std::size_t index) const;
  [[nodiscard]] net::UdpTransport* udp_transport(std::size_t index);
  [[nodiscard]] proto::Central* active_central();

  [[nodiscard]] sim::WallClock& clock() { return clock_; }
  [[nodiscard]] net::EventLoop& loop() { return loop_; }
  [[nodiscard]] obs::TraceBus& trace_bus() { return trace_bus_; }
  [[nodiscard]] const proto::Params& params() const { return params_; }

 private:
  struct Node {
    std::unique_ptr<net::UdpTransport> transport;
    std::unique_ptr<proto::Central> central;
    bool killed = false;
  };

  proto::Params params_;
  obs::TraceBus trace_bus_;
  sim::WallClock clock_;
  net::EventLoop loop_;
  net::UdpPortMap map_;
  util::Rng rng_;

  // Shared by every daemon's detectors; outlives the daemons.
  proto::HeartbeatFrames heartbeat_frames_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<proto::GsDaemon>> daemons_;
  bool started_ = false;
};

}  // namespace gs::farm
