#include "farm/farm.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/logging.h"

namespace gs::farm {

namespace {

// Globally unique IP per (VLAN, host): 10.x.y.z with the VLAN folded into
// the upper bits, so numeric (= election) order within a VLAN is host order.
util::IpAddress make_ip(util::VlanId vlan, std::uint32_t host) {
  GS_CHECK(host < 4096 && vlan.value() < 4096);
  return util::IpAddress(0x0A000000u | (vlan.value() << 12) | host);
}

}  // namespace

Farm::Farm(sim::Simulator& sim, const FarmSpec& spec,
           const proto::Params& params, std::uint64_t seed)
    : sim_(sim), spec_(spec), params_(params), rng_(seed) {
  // Every layer built below captures a reference to params_, so pointing it
  // at the farm-wide trace bus here wires them all at once.
  params_.trace = &trace_bus_;
  fabric_ = std::make_unique<net::Fabric>(sim_, rng_.fork(0xFAB));
  fabric_->set_trace(&trace_bus_);
  fabric_->set_processing_delay(params_.proc_delay_mean);
  console_ = std::make_unique<net::SwitchConsole>(*fabric_);
  current_switch_ = fabric_->add_switch(
      static_cast<std::size_t>(spec_.switch_ports));

  if (spec_.generic_nodes > 0)
    build_uniform();
  else if (spec_.is_hierarchical())
    build_hierarchical();
  else
    build_oceano();

  // The switch console is reachable only through the administrative network
  // (§2): concretely, only while the node hosting the active Central still
  // has a healthy administrative adapter.
  console_->set_access_check([this] {
    proto::Central* central = active_central();
    if (central == nullptr) return false;
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      if (centrals_[i].get() != central) continue;
      const std::size_t admin = daemons_[i]->config().admin_adapter_index;
      const util::AdapterId id = nodes_[i].adapters[admin];
      return fabric_->adapter(id).health() == net::HealthState::kUp &&
             fabric_->vlan_of(id).valid();
    }
    return false;
  });
}

void Farm::ensure_rack_capacity(std::size_t ports_needed) {
  GS_CHECK(ports_needed <= static_cast<std::size_t>(spec_.switch_ports));
  std::size_t free = 0;
  const net::Switch& sw = fabric_->nic_switch(current_switch_);
  for (std::size_t i = 0; i < sw.port_count(); ++i) {
    const util::PortId port(static_cast<std::uint32_t>(i));
    if (!sw.port_adapter(port).valid()) ++free;
  }
  if (free < ports_needed)
    current_switch_ =
        fabric_->add_switch(static_cast<std::size_t>(spec_.switch_ports));
}

util::AdapterId Farm::new_racked_adapter(util::NodeId node, util::VlanId vlan,
                                         util::IpAddress ip, bool /*admin*/) {
  GS_CHECK_MSG(fabric_->nic_switch(current_switch_).free_port().has_value(),
               "reserve rack capacity per node before wiring");
  const util::AdapterId id = fabric_->add_adapter(node);
  fabric_->attach(id, current_switch_, vlan);
  fabric_->set_adapter_ip(id, ip);
  return id;
}

void Farm::finish_node(std::size_t index, NodeRole role, util::DomainId domain,
                       bool eligible, std::vector<util::AdapterId> adapters) {
  finish_node(index, role, domain, eligible, std::move(adapters), HierRole());
}

void Farm::finish_node(std::size_t index, NodeRole role, util::DomainId domain,
                       bool eligible, std::vector<util::AdapterId> adapters,
                       const HierRole& hier) {
  GS_CHECK(index == nodes_.size());
  NodeInfo info;
  info.role = role;
  info.domain = domain;
  info.adapters = adapters;
  nodes_.push_back(std::move(info));

  const util::NodeId node_id(static_cast<std::uint32_t>(index));
  std::ostringstream name;
  name << to_string(role) << "-" << index;

  config::NodeRecord node_record;
  node_record.node = node_id;
  node_record.name = name.str();
  node_record.domain = domain;
  node_record.central_eligible = eligible;
  db_.put_node(node_record);

  for (std::size_t i = 0; i < adapters.size(); ++i) {
    const net::Adapter& adapter = fabric_->adapter(adapters[i]);
    config::AdapterRecord record;
    record.adapter = adapters[i];
    record.node = node_id;
    record.ip = adapter.ip();
    record.expected_vlan = fabric_->vlan_of(adapters[i]);
    record.wired_switch = adapter.attached_switch();
    record.wired_port = adapter.attached_port();
    record.admin = i == 0;
    db_.put_adapter(record);
    adapter_owner_[adapters[i]] = {index, i};
  }

  if (eligible) {
    auto central =
        std::make_unique<proto::Central>(sim_, params_, &db_, console_.get());
    central_taps_.push_back(central->event_bus().subscribe(
        [this](const proto::FarmEvent& event) { event_bus_.publish(event); }));
    centrals_.push_back(std::move(central));
  } else {
    centrals_.push_back(nullptr);
  }
  root_centrals_.push_back(
      hier.root && eligible
          ? std::make_unique<proto::RootCentral>(sim_, params_)
          : nullptr);

  transports_.push_back(
      std::make_unique<net::FabricTransport>(*fabric_, std::move(adapters)));

  proto::GsDaemon::Options opts;
  opts.clock = &sim_;
  opts.transport = transports_.back().get();
  opts.params = &params_;
  opts.node.node = node_id;
  opts.node.name = name.str();
  opts.node.central_eligible = eligible;
  opts.node.admin_adapter_index = 0;  // paper §2.2: by convention, adapter 0
  opts.rng = rng_.fork(0xDAE0000 + index);
  opts.central = centrals_.back().get();
  opts.root_central = root_centrals_.back().get();
  opts.uplink_adapter_index = hier.uplink_adapter;
  opts.heartbeat_frames = &heartbeat_frames_;
  daemons_.push_back(std::make_unique<proto::GsDaemon>(std::move(opts)));

  if (hier.uplink_adapter) {
    // The uplink batches this node's domain Central table changes into
    // DomainReports and ships them through the daemon's uplink adapter.
    GS_CHECK_MSG(centrals_.back() != nullptr,
                 "a DomainUplink needs the node's own Central");
    proto::GsDaemon* daemon = daemons_.back().get();
    proto::DomainUplink::Iface iface;
    iface.send = [daemon](const proto::DomainReport& rep) {
      daemon->send_domain_report(rep);
    };
    iface.root_ip = [daemon] { return daemon->uplink_root_ip(); };
    const util::AdapterId uplink_id =
        nodes_.back().adapters[*hier.uplink_adapter];
    uplinks_.push_back(std::make_unique<proto::DomainUplink>(
        sim_, params_, *centrals_.back(), hier.domain,
        fabric_->adapter(uplink_id).ip(), std::move(iface)));
    daemon->set_uplink(uplinks_.back().get());
  } else {
    uplinks_.push_back(nullptr);
  }
}

void Farm::build_uniform() {
  const auto nodes = static_cast<std::size_t>(spec_.generic_nodes);
  const auto adapters = static_cast<std::size_t>(spec_.adapters_per_generic_node);
  for (std::size_t n = 0; n < nodes; ++n) {
    const util::NodeId node_id(static_cast<std::uint32_t>(n));
    ensure_rack_capacity(adapters);
    std::vector<util::AdapterId> ids;
    ids.reserve(adapters);
    for (std::size_t a = 0; a < adapters; ++a) {
      const util::VlanId vlan = uniform_vlan(static_cast<std::uint32_t>(a));
      ids.push_back(new_racked_adapter(
          node_id, vlan, make_ip(vlan, 100 + static_cast<std::uint32_t>(n)),
          a == 0));
    }
    // Every uniform-farm node may host Central (the 55-node testbed had no
    // dedicated management tier).
    finish_node(n, NodeRole::kGeneric, util::DomainId(0), /*eligible=*/true,
                std::move(ids));
  }
}

void Farm::build_oceano() {
  std::size_t index = 0;
  std::uint32_t admin_host = 100;        // regular nodes
  std::uint32_t mgmt_admin_host = 3500;  // management outranks everyone
  std::map<util::VlanId, std::uint32_t> next_host;

  auto host_on = [&](util::VlanId vlan) {
    auto [it, inserted] = next_host.emplace(vlan, 100u);
    return it->second++;
  };

  // Management (administrative domain, Figure 1). Highest admin IPs so the
  // admin-AMG leader — GulfStream Central — is always an eligible node.
  for (int m = 0; m < spec_.management_nodes; ++m) {
    const util::NodeId node_id(static_cast<std::uint32_t>(index));
    ensure_rack_capacity(1);
    std::vector<util::AdapterId> ids;
    ids.push_back(new_racked_adapter(node_id, admin_vlan(),
                                     make_ip(admin_vlan(), mgmt_admin_host++),
                                     true));
    finish_node(index++, NodeRole::kManagement, util::DomainId::invalid(),
                /*eligible=*/true, std::move(ids));
  }

  // Request dispatchers: an admin adapter plus one adapter per customer
  // domain's dispatch VLAN (Figure 1: every domain talks to dispatchers).
  for (int d = 0; d < spec_.dispatchers; ++d) {
    const util::NodeId node_id(static_cast<std::uint32_t>(index));
    ensure_rack_capacity(1 + static_cast<std::size_t>(spec_.domains));
    std::vector<util::AdapterId> ids;
    ids.push_back(new_racked_adapter(node_id, admin_vlan(),
                                     make_ip(admin_vlan(), admin_host++),
                                     true));
    for (int dom = 0; dom < spec_.domains; ++dom) {
      const util::VlanId vlan = dispatch_vlan(static_cast<std::uint32_t>(dom));
      ids.push_back(
          new_racked_adapter(node_id, vlan, make_ip(vlan, host_on(vlan)),
                             false));
    }
    finish_node(index++, NodeRole::kDispatcher, util::DomainId::invalid(),
                /*eligible=*/false, std::move(ids));
  }

  // Customer domains (Figure 2): front ends carry admin (circle), internal
  // (square), and dispatch (triangle) adapters; back ends admin + internal.
  for (int dom = 0; dom < spec_.domains; ++dom) {
    const util::DomainId domain(static_cast<std::uint32_t>(dom));
    const util::VlanId internal = internal_vlan(static_cast<std::uint32_t>(dom));
    const util::VlanId dispatch = dispatch_vlan(static_cast<std::uint32_t>(dom));

    for (int f = 0; f < spec_.fronts_per_domain; ++f) {
      const util::NodeId node_id(static_cast<std::uint32_t>(index));
      ensure_rack_capacity(3);
      std::vector<util::AdapterId> ids;
      ids.push_back(new_racked_adapter(node_id, admin_vlan(),
                                       make_ip(admin_vlan(), admin_host++),
                                       true));
      ids.push_back(new_racked_adapter(node_id, internal,
                                       make_ip(internal, host_on(internal)),
                                       false));
      ids.push_back(new_racked_adapter(node_id, dispatch,
                                       make_ip(dispatch, host_on(dispatch)),
                                       false));
      finish_node(index++, NodeRole::kFrontEnd, domain, false, std::move(ids));
    }
    for (int b = 0; b < spec_.backs_per_domain; ++b) {
      const util::NodeId node_id(static_cast<std::uint32_t>(index));
      ensure_rack_capacity(2);
      std::vector<util::AdapterId> ids;
      ids.push_back(new_racked_adapter(node_id, admin_vlan(),
                                       make_ip(admin_vlan(), admin_host++),
                                       true));
      ids.push_back(new_racked_adapter(node_id, internal,
                                       make_ip(internal, host_on(internal)),
                                       false));
      finish_node(index++, NodeRole::kBackEnd, domain, false, std::move(ids));
    }
  }
}

void Farm::build_hierarchical() {
  std::size_t index = 0;
  // Root tier outranks every uplink on the root VLAN, so the root-VLAN AMG
  // always elects a RootCentral host; uplink adapters sit in the middle of
  // the range and never win.
  std::uint32_t root_admin_host = 3500;
  std::uint32_t uplink_host = 2000;
  std::map<util::VlanId, std::uint32_t> next_host;

  auto host_on = [&](util::VlanId vlan) {
    auto [it, inserted] = next_host.emplace(vlan, 100u);
    return it->second++;
  };

  // Root management: a single adapter on the root VLAN. Its AMG leader
  // activates both a plain Central (covering the root VLAN's own
  // membership) and the farm-wide RootCentral.
  for (int m = 0; m < spec_.management_nodes; ++m) {
    const util::NodeId node_id(static_cast<std::uint32_t>(index));
    ensure_rack_capacity(1);
    std::vector<util::AdapterId> ids;
    ids.push_back(new_racked_adapter(node_id, admin_vlan(),
                                     make_ip(admin_vlan(), root_admin_host++),
                                     true));
    HierRole hier;
    hier.root = true;
    finish_node(index++, NodeRole::kManagement, util::DomainId::invalid(),
                /*eligible=*/true, std::move(ids), hier);
  }

  for (int d = 0; d < spec_.hier_domains; ++d) {
    const auto dom = static_cast<std::uint32_t>(d);
    const util::DomainId domain(dom);
    const util::VlanId dadmin = domain_admin_vlan(dom);
    const util::VlanId data = internal_vlan(dom);

    // Domain management: adapter 0 on the domain admin VLAN (outranking the
    // workers, so an eligible node hosts the domain Central), adapter 1 on
    // the root VLAN carrying the DomainUplink.
    for (int m = 0; m < spec_.domain_mgmt_nodes; ++m) {
      const util::NodeId node_id(static_cast<std::uint32_t>(index));
      ensure_rack_capacity(2);
      std::vector<util::AdapterId> ids;
      ids.push_back(new_racked_adapter(
          node_id, dadmin,
          make_ip(dadmin, 3000 + static_cast<std::uint32_t>(m)), true));
      ids.push_back(new_racked_adapter(node_id, admin_vlan(),
                                       make_ip(admin_vlan(), uplink_host++),
                                       false));
      HierRole hier;
      hier.uplink_adapter = 1;
      hier.domain = dom;
      finish_node(index++, NodeRole::kManagement, domain, /*eligible=*/true,
                  std::move(ids), hier);
    }

    // Workers: domain admin VLAN + the domain's data VLAN.
    for (int w = 0; w < spec_.workers_per_domain; ++w) {
      const util::NodeId node_id(static_cast<std::uint32_t>(index));
      ensure_rack_capacity(2);
      std::vector<util::AdapterId> ids;
      ids.push_back(new_racked_adapter(node_id, dadmin,
                                       make_ip(dadmin, host_on(dadmin)),
                                       true));
      ids.push_back(new_racked_adapter(node_id, data,
                                       make_ip(data, host_on(data)), false));
      finish_node(index++, NodeRole::kGeneric, domain, /*eligible=*/false,
                  std::move(ids));
    }
  }
}

void Farm::start() {
  for (auto& daemon : daemons_) daemon->start();
}

proto::GsDaemon& Farm::daemon(std::size_t node_index) {
  GS_CHECK(node_index < daemons_.size());
  return *daemons_[node_index];
}

NodeRole Farm::role(std::size_t node_index) const {
  GS_CHECK(node_index < nodes_.size());
  return nodes_[node_index].role;
}

util::DomainId Farm::domain_of(std::size_t node_index) const {
  GS_CHECK(node_index < nodes_.size());
  return nodes_[node_index].domain;
}

const std::vector<util::AdapterId>& Farm::node_adapters(
    std::size_t node_index) const {
  GS_CHECK(node_index < nodes_.size());
  return nodes_[node_index].adapters;
}

std::vector<std::size_t> Farm::nodes_with_role(NodeRole role_filter) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].role == role_filter) out.push_back(i);
  return out;
}

proto::Central* Farm::active_central() {
  // Partitions can leave several Centrals active at once (each covering its
  // own island, §2.2). The farm's *primary* is the one whose hosting node
  // still has a healthy, attached admin adapter, preferring the highest
  // admin IP — i.e. the legitimate admin-AMG leader's instance.
  proto::Central* best = nullptr;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < centrals_.size(); ++i) {
    proto::Central* central = centrals_[i].get();
    if (central == nullptr || !central->active()) continue;
    const std::size_t admin = daemons_[i]->config().admin_adapter_index;
    const util::AdapterId id = nodes_[i].adapters[admin];
    const bool healthy =
        fabric_->adapter(id).health() == net::HealthState::kUp &&
        fabric_->vlan_of(id).valid();
    if (!healthy) continue;
    if (best == nullptr || central->self_ip() > best_ip) {
      best = central;
      best_ip = central->self_ip();
    }
  }
  return best;
}

proto::RootCentral* Farm::active_root_central() {
  proto::RootCentral* best = nullptr;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < root_centrals_.size(); ++i) {
    proto::RootCentral* root = root_centrals_[i].get();
    if (root == nullptr || !root->active()) continue;
    const std::size_t admin = daemons_[i]->config().admin_adapter_index;
    const util::AdapterId id = nodes_[i].adapters[admin];
    const bool healthy =
        fabric_->adapter(id).health() == net::HealthState::kUp &&
        fabric_->vlan_of(id).valid();
    if (!healthy) continue;
    if (best == nullptr || root->self_ip() > best_ip) {
      best = root;
      best_ip = root->self_ip();
    }
  }
  return best;
}

proto::Central* Farm::active_root_tier_central() {
  proto::Central* best = nullptr;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < centrals_.size(); ++i) {
    proto::Central* central = centrals_[i].get();
    if (central == nullptr || !central->active()) continue;
    if (nodes_[i].role != NodeRole::kManagement || nodes_[i].domain.valid())
      continue;
    const std::size_t admin = daemons_[i]->config().admin_adapter_index;
    const util::AdapterId id = nodes_[i].adapters[admin];
    const bool healthy =
        fabric_->adapter(id).health() == net::HealthState::kUp &&
        fabric_->vlan_of(id).valid();
    if (!healthy) continue;
    if (best == nullptr || central->self_ip() > best_ip) {
      best = central;
      best_ip = central->self_ip();
    }
  }
  return best;
}

proto::Central* Farm::active_domain_central(std::uint32_t domain) {
  proto::Central* best = nullptr;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < centrals_.size(); ++i) {
    proto::Central* central = centrals_[i].get();
    if (central == nullptr || !central->active()) continue;
    if (nodes_[i].domain != util::DomainId(domain)) continue;
    const std::size_t admin = daemons_[i]->config().admin_adapter_index;
    const util::AdapterId id = nodes_[i].adapters[admin];
    const bool healthy =
        fabric_->adapter(id).health() == net::HealthState::kUp &&
        fabric_->vlan_of(id).valid();
    if (!healthy) continue;
    if (best == nullptr || central->self_ip() > best_ip) {
      best = central;
      best_ip = central->self_ip();
    }
  }
  return best;
}

std::optional<std::size_t> Farm::expected_root_node() const {
  std::optional<std::size_t> best;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Root-tier nodes are the management nodes outside every domain.
    if (nodes_[i].role != NodeRole::kManagement || nodes_[i].domain.valid())
      continue;
    const util::AdapterId id = nodes_[i].adapters[0];
    if (fabric_->adapter(id).health() != net::HealthState::kUp ||
        !fabric_->vlan_of(id).valid())
      continue;
    const util::IpAddress ip = fabric_->adapter(id).ip();
    if (!best || ip > best_ip) {
      best = i;
      best_ip = ip;
    }
  }
  return best;
}

std::optional<std::size_t> Farm::expected_domain_gsc_node(
    std::uint32_t domain) const {
  std::optional<std::size_t> best;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].role != NodeRole::kManagement ||
        nodes_[i].domain != util::DomainId(domain))
      continue;
    const util::AdapterId id = nodes_[i].adapters[0];
    if (fabric_->adapter(id).health() != net::HealthState::kUp ||
        !fabric_->vlan_of(id).valid())
      continue;
    const util::IpAddress ip = fabric_->adapter(id).ip();
    if (!best || ip > best_ip) {
      best = i;
      best_ip = ip;
    }
  }
  return best;
}

void Farm::fail_node(std::size_t node_index) {
  GS_CHECK(node_index < daemons_.size());
  daemons_[node_index]->halt();
  fabric_->fail_node(util::NodeId(static_cast<std::uint32_t>(node_index)));
}

void Farm::recover_node(std::size_t node_index) {
  GS_CHECK(node_index < daemons_.size());
  fabric_->recover_node(util::NodeId(static_cast<std::uint32_t>(node_index)));
  daemons_[node_index]->resume();
}

proto::AdapterProtocol* Farm::protocol_for(util::AdapterId id) {
  auto it = adapter_owner_.find(id);
  if (it == adapter_owner_.end()) return nullptr;
  return &daemons_[it->second.first]->protocol(it->second.second);
}

std::vector<util::VlanId> Farm::vlans() const {
  std::set<util::VlanId> seen;
  for (const auto& node : nodes_)
    for (util::AdapterId id : node.adapters) {
      const util::VlanId vlan = fabric_->vlan_of(id);
      if (vlan.valid()) seen.insert(vlan);
    }
  return {seen.begin(), seen.end()};
}

std::vector<util::AdapterId> Farm::healthy_adapters_in_vlan(
    util::VlanId vlan) const {
  std::vector<util::AdapterId> healthy;
  for (util::AdapterId id : fabric_->adapters_in_vlan(vlan))
    if (fabric_->adapter(id).health() == net::HealthState::kUp)
      healthy.push_back(id);
  return healthy;
}

std::optional<std::size_t> Farm::expected_gsc_node() const {
  // Mirrors active_central()'s healthy test, but from ground truth alone:
  // who *ought* to win the admin-AMG election right now.
  std::optional<std::size_t> best;
  util::IpAddress best_ip;
  for (std::size_t i = 0; i < centrals_.size(); ++i) {
    if (centrals_[i] == nullptr) continue;  // not central-eligible
    const std::size_t admin = daemons_[i]->config().admin_adapter_index;
    const util::AdapterId id = nodes_[i].adapters[admin];
    if (fabric_->adapter(id).health() != net::HealthState::kUp ||
        !fabric_->vlan_of(id).valid())
      continue;
    const util::IpAddress ip = fabric_->adapter(id).ip();
    if (!best || ip > best_ip) {
      best = i;
      best_ip = ip;
    }
  }
  return best;
}

std::optional<std::size_t> Farm::node_of(util::AdapterId id) const {
  auto it = adapter_owner_.find(id);
  if (it == adapter_owner_.end()) return std::nullopt;
  return it->second.first;
}

bool Farm::converged(util::VlanId vlan) {
  // Ground truth: the fully healthy adapters currently wired to this VLAN.
  const std::vector<util::AdapterId> healthy = healthy_adapters_in_vlan(vlan);
  if (healthy.empty()) return true;

  std::set<util::IpAddress> expected_ips;
  util::IpAddress expected_leader;
  for (util::AdapterId id : healthy) {
    const util::IpAddress ip = fabric_->adapter(id).ip();
    expected_ips.insert(ip);
    expected_leader = std::max(expected_leader, ip);
  }

  std::optional<std::uint64_t> view;
  for (util::AdapterId id : healthy) {
    proto::AdapterProtocol* proto = protocol_for(id);
    if (proto == nullptr || !proto->is_committed()) return false;
    if (proto->leader_ip() != expected_leader) return false;
    std::set<util::IpAddress> ips;
    for (const proto::MemberInfo& m : proto->committed().members())
      ips.insert(m.ip);
    if (ips != expected_ips) return false;
    if (!view) view = proto->committed().view();
    if (*view != proto->committed().view()) return false;
  }
  return true;
}

bool Farm::converged() {
  for (util::VlanId vlan : vlans())
    if (!converged(vlan)) return false;
  return true;
}

obs::SpanTracker& Farm::enable_span_tracking() {
  if (!spans_)
    spans_ = std::make_unique<obs::SpanTracker>(trace_bus_, &metrics_);
  return *spans_;
}

obs::FarmHealthSampler::Snapshot Farm::health_snapshot() {
  obs::FarmHealthSampler::Snapshot snapshot;
  for (std::size_t n = 0; n < daemons_.size(); ++n) {
    const auto& daemon = daemons_[n];
    if (daemon->halted()) continue;
    for (std::size_t i = 0; i < daemon->adapter_count(); ++i) {
      const proto::AdapterProtocol& proto = daemon->protocol(i);
      if (!proto.is_leader() || !proto.is_committed()) continue;
      obs::FarmHealthSampler::AmgSample amg;
      amg.leader = proto.self().ip;
      amg.vlan = fabric_->vlan_of(nodes_[n].adapters[i]);
      amg.view = proto.committed().view();
      amg.size = proto.committed().size();
      amg.committed_at = proto.committed_at();
      amg.digest = proto.committed().ips_hash();
      snapshot.amgs.push_back(amg);
    }
  }
  if (proto::Central* central = active_central()) {
    obs::FarmHealthSampler::GscSample gsc;
    gsc.gsc = central->self_ip();
    gsc.groups = central->groups().size();
    gsc.adapters = central->known_adapter_count();
    gsc.alive = central->alive_adapter_count();
    gsc.nodes_down = central->nodes_down_count();
    snapshot.gsc = gsc;
  }
  if (proto::RootCentral* root = active_root_central()) {
    obs::FarmHealthSampler::RootSample sample;
    sample.root = root->self_ip();
    sample.domains = root->domain_count();
    sample.adapters = root->known_adapter_count();
    sample.alive = root->alive_adapter_count();
    sample.reports = root->reports_received();
    sample.need_fulls = root->need_fulls_sent();
    snapshot.root = sample;
  }
  for (util::VlanId vlan : vlans()) {
    const net::SegmentLoad& load = fabric_->load(vlan);
    snapshot.wire.push_back({vlan, load.frames_sent, load.bytes_sent});
  }
  {
    // Codec accounting is cumulative, so halted daemons' counters still
    // belong in the farm-wide totals.
    std::array<std::uint64_t, proto::WireStats::kTypeSlots> decoded{};
    std::array<std::uint64_t, proto::WireStats::kDropSlots> dropped{};
    for (const auto& daemon : daemons_) {
      const proto::WireStats& stats = daemon->wire_stats();
      for (std::size_t t = 0; t < decoded.size(); ++t)
        decoded[t] += stats.decoded[t];
      for (std::size_t d = 0; d < dropped.size(); ++d)
        dropped[d] += stats.dropped[d];
    }
    obs::FarmHealthSampler::CodecSample codec;
    for (std::size_t t = 0; t < decoded.size(); ++t) {
      if (decoded[t] == 0) continue;
      codec.decoded.emplace_back(
          std::string(proto::to_string(static_cast<proto::MsgType>(t))),
          decoded[t]);
    }
    for (std::size_t d = 0; d < dropped.size(); ++d) {
      if (dropped[d] == 0) continue;
      codec.dropped.emplace_back(
          std::string(
              proto::to_string(static_cast<proto::WireStats::Drop>(d))),
          dropped[d]);
    }
    snapshot.codec = std::move(codec);
  }
  {
    obs::FarmHealthSampler::QueueSample queue;
    queue.live = sim_.pending_events();
    queue.slots = sim_.queue_slots();
    queue.high_water = sim_.queue_high_water();
    snapshot.queue = queue;
  }
  if (spans_) {
    obs::FarmHealthSampler::SpanSample span_sample;
    span_sample.open = spans_->open_total();
    span_sample.watermark = spans_->open_watermark();
    for (std::size_t k = 0; k < static_cast<std::size_t>(obs::SpanKind::kCount_);
         ++k) {
      const auto kind = static_cast<obs::SpanKind>(k);
      span_sample.closed += spans_->closed(kind);
      span_sample.abandoned += spans_->abandoned(kind);
    }
    snapshot.spans = span_sample;
  }
  return snapshot;
}

obs::FarmHealthSampler& Farm::enable_health_sampling(sim::SimDuration period) {
  if (!health_) {
    health_ = std::make_unique<obs::FarmHealthSampler>(
        sim_, trace_bus_, [this] { return health_snapshot(); }, period,
        &metrics_);
  }
  return *health_;
}

}  // namespace gs::farm
