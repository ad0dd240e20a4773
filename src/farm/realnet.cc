#include "farm/realnet.h"

#include <algorithm>
#include <map>

#include "net/adapter.h"  // HealthState, for the synthetic fault trace
#include "util/check.h"
#include "util/logging.h"

namespace gs::farm {

RealFarm::RealFarm(Options opts)
    : params_(opts.params),
      map_(opts.base_port, opts.vlan_stride),
      rng_(opts.seed) {
  params_.trace = &trace_bus_;
}

RealFarm::~RealFarm() {
  // Daemons and Centrals cancel their own timers in their destructors, but
  // be explicit about the contract anyway: after this point nothing may
  // fire.
  daemons_.clear();
  nodes_.clear();
  clock_.cancel_all();
}

std::size_t RealFarm::add_node(NodeSpec spec) {
  GS_CHECK_MSG(!started_, "add nodes before start()");
  GS_CHECK(!spec.ports.empty());

  Node node;
  node.transport = std::make_unique<net::UdpTransport>(loop_, map_, spec.ports);

  proto::GsDaemon::Options dopts;
  dopts.clock = &clock_;
  dopts.transport = node.transport.get();
  dopts.params = &params_;
  dopts.node.node = util::NodeId(static_cast<std::uint32_t>(daemons_.size()));
  dopts.node.name = std::move(spec.name);
  dopts.node.central_eligible = spec.central_eligible;
  dopts.node.admin_adapter_index = 0;
  dopts.rng = rng_.fork(0x4EA0000U + daemons_.size());
  dopts.heartbeat_frames = &heartbeat_frames_;
  if (spec.central_eligible) {
    // No configuration database or switch console on a real deployment yet:
    // this Central aggregates reports and commits failures, which is all
    // the detection path needs.
    node.central = std::make_unique<proto::Central>(clock_, params_,
                                                    /*db=*/nullptr,
                                                    /*console=*/nullptr);
    dopts.central = node.central.get();
  }
  daemons_.push_back(std::make_unique<proto::GsDaemon>(std::move(dopts)));
  nodes_.push_back(std::move(node));
  return daemons_.size() - 1;
}

void RealFarm::start() {
  GS_CHECK(!started_);
  started_ = true;
  for (auto& daemon : daemons_) daemon->start();
}

bool RealFarm::run_until(sim::SimDuration timeout,
                         const std::function<bool()>& until) {
  return loop_.run_until(clock_, clock_.now() + timeout, until);
}

void RealFarm::run_for(sim::SimDuration duration) {
  loop_.run_until(clock_, clock_.now() + duration, nullptr);
}

void RealFarm::kill_node(std::size_t index) {
  GS_CHECK(index < daemons_.size());
  Node& node = nodes_[index];
  if (node.killed) return;
  node.killed = true;
  proto::GsDaemon& daemon = *daemons_[index];

  // Span anchors first: in the sim the fabric emits these at injection
  // time; here the kill *is* the injection.
  for (std::size_t i = 0; i < node.transport->port_count(); ++i) {
    obs::emit_trace(&trace_bus_, obs::TraceKind::kFaultInjected, clock_.now(),
                    node.transport->local_ip(i), {},
                    static_cast<std::uint64_t>(net::HealthState::kDown), 0, {},
                    daemon.config().node);
  }
  daemon.halt();
  node.transport->close();
  GS_LOG(kInfo, "realfarm") << daemon.config().name << " killed";
}

bool RealFarm::killed(std::size_t index) const {
  GS_CHECK(index < nodes_.size());
  return nodes_[index].killed;
}

proto::GsDaemon& RealFarm::daemon(std::size_t index) {
  GS_CHECK(index < daemons_.size());
  return *daemons_[index];
}

net::UdpTransport* RealFarm::udp_transport(std::size_t index) {
  GS_CHECK(index < nodes_.size());
  return nodes_[index].transport.get();
}

proto::Central* RealFarm::active_central() {
  for (Node& node : nodes_)
    if (node.central && node.central->active()) return node.central.get();
  return nullptr;
}

bool RealFarm::converged() const {
  struct VlanState {
    std::vector<const proto::AdapterProtocol*> live;
  };
  std::map<std::uint32_t, VlanState> by_vlan;  // VlanId value -> live ports

  for (std::size_t n = 0; n < daemons_.size(); ++n) {
    if (nodes_[n].killed) continue;
    const net::UdpTransport& udp = *nodes_[n].transport;
    const proto::GsDaemon& daemon = *daemons_[n];
    for (std::size_t i = 0; i < daemon.adapter_count(); ++i)
      by_vlan[udp.vlan_of(i).value()].live.push_back(&daemon.protocol(i));
  }

  for (const auto& [vlan, state] : by_vlan) {
    util::IpAddress top;
    for (const proto::AdapterProtocol* proto : state.live)
      top = std::max(top, proto->self().ip);
    for (const proto::AdapterProtocol* proto : state.live) {
      if (!proto->is_committed()) return false;
      // One group per VLAN: led by the highest live IP, sized exactly to
      // the live population, every member agreeing on the view number.
      if (proto->leader_ip() != top) return false;
      if (proto->committed().size() != state.live.size()) return false;
      if (proto->committed().view() != state.live.front()->committed().view())
        return false;
    }
  }
  return true;
}

}  // namespace gs::farm
