#include "net/fabric.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace gs::net {

std::string_view to_string(HealthState s) {
  switch (s) {
    case HealthState::kUp: return "up";
    case HealthState::kDown: return "down";
    case HealthState::kRecvDead: return "recv-dead";
    case HealthState::kSendDead: return "send-dead";
  }
  return "?";
}

Fabric::Fabric(sim::Simulator& sim, util::Rng rng) : sim_(sim), rng_(rng) {}

util::SwitchId Fabric::add_switch(std::size_t ports) {
  const util::SwitchId id(static_cast<std::uint32_t>(switches_.size()));
  switches_.push_back(std::make_unique<Switch>(id, ports));
  return id;
}

util::AdapterId Fabric::add_adapter(util::NodeId node) {
  const util::AdapterId id(static_cast<std::uint32_t>(adapters_.size()));
  const util::MacAddress mac(0x02'00'00'00'00'00ull + id.value());
  adapters_.emplace_back(id, node, mac);
  wiring_.emplace_back();
  return id;
}

void Fabric::attach(util::AdapterId adapter_id, util::SwitchId sw,
                    util::PortId port, util::VlanId vlan) {
  Adapter& a = adapter(adapter_id);
  Switch& s = mutable_switch(sw);
  s.connect(port, adapter_id, vlan);
  a.attach(sw, port);
  index_add(vlan, adapter_id);
  (void)segment(vlan);  // materialize the segment with the default model
  refresh_wiring(adapter_id);
  topology_changed();
}

void Fabric::attach(util::AdapterId adapter_id, util::SwitchId sw,
                    util::VlanId vlan) {
  auto port = nic_switch(sw).free_port();
  GS_CHECK_MSG(port.has_value(), "switch has no free ports");
  attach(adapter_id, sw, *port, vlan);
}

Adapter& Fabric::adapter(util::AdapterId id) {
  GS_CHECK(id.valid() && id.value() < adapters_.size());
  return adapters_[id.value()];
}

const Adapter& Fabric::adapter(util::AdapterId id) const {
  GS_CHECK(id.valid() && id.value() < adapters_.size());
  return adapters_[id.value()];
}

Switch& Fabric::mutable_switch(util::SwitchId id) {
  GS_CHECK(id.valid() && id.value() < switches_.size());
  return *switches_[id.value()];
}

const Switch& Fabric::nic_switch(util::SwitchId id) const {
  GS_CHECK(id.valid() && id.value() < switches_.size());
  return *switches_[id.value()];
}

Segment& Fabric::segment(util::VlanId vlan) {
  GS_CHECK(vlan.valid());
  return segment_of(vlan, vlans_[vlan]);
}

Segment& Fabric::segment_of(util::VlanId vlan, VlanState& state) {
  if (!state.segment)
    state.segment.emplace(vlan, default_channel_,
                          rng_.fork(0x5e6 + vlan.value()));
  return *state.segment;
}

std::vector<util::AdapterId> Fabric::all_adapters() const {
  std::vector<util::AdapterId> out;
  out.reserve(adapters_.size());
  for (const Adapter& a : adapters_) out.push_back(a.id());
  return out;
}

std::vector<util::SwitchId> Fabric::all_switches() const {
  std::vector<util::SwitchId> out;
  out.reserve(switches_.size());
  for (const auto& s : switches_) out.push_back(s->id());
  return out;
}

std::vector<util::AdapterId> Fabric::node_adapters(util::NodeId node) const {
  std::vector<util::AdapterId> out;
  for (const Adapter& a : adapters_)
    if (a.node() == node) out.push_back(a.id());
  return out;
}

util::VlanId Fabric::vlan_of(util::AdapterId id) const {
  GS_CHECK(id.valid() && id.value() < wiring_.size());
  return wiring_[id.value()].vlan;
}

void Fabric::refresh_wiring(util::AdapterId id) {
  const Adapter& a = adapter(id);
  Wiring& w = wiring_[id.value()];
  if (!a.attached_switch().valid()) {
    w.vlan = util::VlanId::invalid();
    w.state = nullptr;
    return;
  }
  const Switch& s = nic_switch(a.attached_switch());
  const util::VlanId port_vlan = s.port_vlan(a.attached_port());
  w.state = &vlans_[port_vlan];
  w.vlan = s.failed() ? util::VlanId::invalid() : port_vlan;
}

std::vector<util::AdapterId> Fabric::adapters_in_vlan(
    util::VlanId vlan) const {
  std::vector<util::AdapterId> out;
  for (util::AdapterId id : vlan_members(vlan))
    if (vlan_of(id) == vlan) out.push_back(id);  // live-switch members only
  return out;
}

const std::vector<util::AdapterId>& Fabric::vlan_members(
    util::VlanId vlan) const {
  static const std::vector<util::AdapterId> kEmpty;
  auto it = vlans_.find(vlan);
  return it == vlans_.end() ? kEmpty : it->second.members;
}

bool Fabric::vlan_index_consistent() const {
  std::map<util::VlanId, std::vector<util::AdapterId>> truth;
  for (const auto& s : switches_) {
    for (std::size_t p = 0; p < s->port_count(); ++p) {
      const util::PortId port(static_cast<std::uint32_t>(p));
      const util::AdapterId a = s->port_adapter(port);
      if (a.valid()) truth[s->port_vlan(port)].push_back(a);
    }
  }
  for (auto& [vlan, members] : truth) std::sort(members.begin(), members.end());
  for (const auto& [vlan, state] : vlans_) {
    auto it = truth.find(vlan);
    if (it == truth.end()) {
      if (!state.members.empty()) return false;
      continue;
    }
    if (it->second != state.members) return false;
    truth.erase(it);
  }
  for (const auto& [vlan, members] : truth)
    if (!members.empty()) return false;
  // Every stored VLAN against the adapter -> switch -> port chain.
  for (const Adapter& a : adapters_) {
    const Wiring& w = wiring_[a.id().value()];
    if (!a.attached_switch().valid()) {
      if (w.vlan.valid() || w.state != nullptr) return false;
      continue;
    }
    const Switch& s = nic_switch(a.attached_switch());
    if (s.port_adapter(a.attached_port()) != a.id()) return false;
    const util::VlanId port_vlan = s.port_vlan(a.attached_port());
    auto it = vlans_.find(port_vlan);
    if (it == vlans_.end() || w.state != &it->second) return false;
    if (w.vlan != (s.failed() ? util::VlanId::invalid() : port_vlan))
      return false;
  }
  return true;
}

void Fabric::index_add(util::VlanId vlan, util::AdapterId id) {
  auto& members = vlans_[vlan].members;
  auto it = std::lower_bound(members.begin(), members.end(), id);
  GS_CHECK_MSG(it == members.end() || *it != id,
               "adapter already indexed in vlan");
  members.insert(it, id);
}

void Fabric::index_remove(util::VlanId vlan, util::AdapterId id) {
  auto map_it = vlans_.find(vlan);
  GS_CHECK(map_it != vlans_.end());
  auto& members = map_it->second.members;
  auto it = std::lower_bound(members.begin(), members.end(), id);
  GS_CHECK_MSG(it != members.end() && *it == id, "adapter not indexed in vlan");
  members.erase(it);
}

bool Fabric::reachable(util::AdapterId from, util::AdapterId to) const {
  if (from == to) return false;
  const Adapter& src = adapter(from);
  const Adapter& dst = adapter(to);
  if (!src.can_send() || !dst.can_recv()) return false;
  const Wiring& w = wiring_[from.value()];
  if (!w.vlan.valid() || vlan_of(to) != w.vlan) return false;
  return !w.state->segment || w.state->segment->connected(from, to);
}

void Fabric::set_adapter_ip(util::AdapterId id, util::IpAddress ip) {
  Adapter& a = adapter(id);
  if (a.ip() == ip) return;
  if (!a.ip().is_unspecified()) {
    auto& holders = by_ip_[a.ip().bits()];
    std::erase(holders, id);
    if (holders.empty()) by_ip_.erase(a.ip().bits());
  }
  a.set_ip(ip);
  if (!ip.is_unspecified()) by_ip_[ip.bits()].push_back(id);
  topology_changed();
}

std::optional<util::AdapterId> Fabric::find_by_ip(util::VlanId vlan,
                                                  util::IpAddress ip) const {
  auto it = by_ip_.find(ip.bits());
  if (it == by_ip_.end()) return std::nullopt;
  // Deterministic winner among duplicate holders: lowest AdapterId on the
  // VLAN, independent of the order IPs were assigned in.
  std::optional<util::AdapterId> best;
  for (util::AdapterId id : it->second)
    if (vlan_of(id) == vlan && (!best || id < *best)) best = id;
  return best;
}

void Fabric::topology_changed() {
  // On the (unreachable in practice) wrap, scrub every memo so a stale
  // generation cannot match again.
  if (++topology_gen_ == 0) {
    for (Wiring& w : wiring_) w.memo_gen = 0;
    topology_gen_ = 1;
  }
}

util::AdapterId Fabric::resolve_unicast(Wiring& w, util::IpAddress dst) {
  if (w.memo_gen != topology_gen_) {
    w.memo_gen = topology_gen_;
    w.memo = {};
  }
  const std::uint32_t bits = dst.bits();
  if (w.memo[0].ip == bits) return w.memo[0].to;
  if (w.memo[1].ip == bits) {
    std::swap(w.memo[0], w.memo[1]);
    return w.memo[0].to;
  }
  w.memo[1] = w.memo[0];
  w.memo[0] = {bits, find_by_ip(w.vlan, dst).value_or(util::AdapterId::invalid())};
  return w.memo[0].to;
}

std::uint16_t Fabric::peek_frame_type(
    std::span<const std::uint8_t> bytes) const {
  // Frame layout: type lives at offset 6..7 (see wire/frame.h).
  if (bytes.size() < 8) return 0xFFFF;
  return static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));
}

SegmentLoad& Fabric::account_sent(VlanState& state, const Payload& payload) {
  SegmentLoad& load = load_of(state);
  load.frames_sent++;
  load.bytes_sent += payload.size();
  total_frames_sent_++;
  total_bytes_sent_ += payload.size();
  const std::uint16_t type = peek_frame_type(payload.bytes());
  if (type >= kTypeCounterSlots) {
    frames_by_type_[type]++;
    return load;
  }
  std::uint64_t*& counter = type_counters_[type];
  if (counter == nullptr) counter = &frames_by_type_[type];
  ++*counter;
  return load;
}

std::uint32_t Fabric::park_frame(Datagram dgram, SegmentLoad& load) {
  std::uint32_t slot;
  if (pending_free_.empty()) {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    slot = pending_free_.back();
    pending_free_.pop_back();
  }
  pending_[slot].dgram = std::move(dgram);
  pending_[slot].load = &load;
  return slot;
}

void Fabric::release_frame(std::uint32_t slot) {
  pending_[slot].dgram = Datagram{};  // drop the payload reference eagerly
  pending_free_.push_back(slot);
}

void Fabric::complete_delivery(std::uint32_t slot, util::AdapterId to) {
  // Safe to hold across deliver(): pool addresses are stable (deque) and the
  // slot cannot be recycled while this delivery's `remaining` count is held.
  PendingFrame& frame = pending_[slot];
  const Datagram& dgram = frame.dgram;
  SegmentLoad& load = *frame.load;
  const Adapter& dst = adapter(to);
  // Re-check at delivery time (arrival + δ): the receiver may have died or
  // been moved to another VLAN while the frame was in flight or waiting
  // for its host to handle it.
  if (!dst.can_recv() || wiring_[to.value()].vlan != dgram.vlan) {
    load.frames_unreachable++;
  } else {
    load.frames_delivered++;
    dst.deliver(dgram);
  }
  if (--frame.remaining == 0) release_frame(slot);
}

std::uint32_t Fabric::park_corrupted(std::uint32_t slot, Segment& seg) {
  const Datagram& clean = pending_[slot].dgram;
  SegmentLoad& load = *pending_[slot].load;
  const std::span<const std::uint8_t> bytes = clean.bytes();
  std::vector<std::uint8_t> flipped(bytes.begin(), bytes.end());
  // XOR with a nonzero mask guarantees the byte actually changes.
  flipped[seg.sample_corrupt_index(flipped.size())] ^= 0xFF;
  // remaining stays 0: the caller accounts for the delivery it schedules,
  // exactly as with park_frame.
  return park_frame(Datagram{clean.src, clean.dst, clean.multicast, clean.vlan,
                             make_payload(std::move(flipped))},
                    load);
}

bool Fabric::send(util::AdapterId from, util::IpAddress dst, Payload payload) {
  const Adapter& src = adapter(from);
  Wiring& w = wiring_[from.value()];
  const util::VlanId vlan = w.vlan;
  if (!src.can_send() || !vlan.valid()) return false;

  VlanState& state = *w.state;
  SegmentLoad& load = account_sent(state, payload);
  Segment& seg = segment_of(vlan, state);
  // The memo answers exactly what find_by_ip() would: partitions and
  // health are not part of it and are checked here on every send.
  const util::AdapterId to = resolve_unicast(w, dst);
  if (!to.valid() || to == from || !seg.connected(from, to) ||
      !adapter(to).can_recv()) {
    load.frames_unreachable++;
    return true;  // the frame left the NIC; the sender cannot tell
  }
  const auto latency = seg.sample_delivery();
  if (!latency) {
    load.frames_lost++;
    return true;
  }
  const sim::SimDuration due =
      *latency + seg.sample_processing(processing_delay_mean_);
  std::uint32_t slot = park_frame(
      Datagram{src.ip(), dst, /*multicast=*/false, vlan, std::move(payload)},
      load);
  // Corruption injection clones the frame so the receiver gets its own
  // mutated payload; the guard keeps the default model free of RNG draws.
  if (seg.model().corrupt_probability > 0 && seg.sample_corruption()) {
    load.frames_corrupted++;
    const std::uint32_t corrupted = park_corrupted(slot, seg);
    release_frame(slot);  // remaining still 0: no delivery was scheduled
    slot = corrupted;
  }
  pending_[slot].remaining = 1;
  sim_.after(due, [this, slot, to] { complete_delivery(slot, to); });
  return true;
}

bool Fabric::multicast(util::AdapterId from, util::IpAddress group,
                       Payload payload) {
  const Adapter& src = adapter(from);
  const Wiring& w = wiring_[from.value()];
  const util::VlanId vlan = w.vlan;
  if (!src.can_send() || !vlan.valid()) return false;

  VlanState& state = *w.state;
  // Broadcast medium: one frame on the wire whatever the fan-out.
  SegmentLoad& load = account_sent(state, payload);
  Segment& seg = segment_of(vlan, state);
  // The frame is parked once — one payload allocation, one pool slot — and
  // every scheduled delivery shares it by slot reference.
  const std::uint32_t slot = park_frame(
      Datagram{src.ip(), group, /*multicast=*/true, vlan, std::move(payload)},
      load);
  const bool may_corrupt = seg.model().corrupt_probability > 0;
  // Only this VLAN's wired members — not the whole farm — and of those
  // only the ones in the beacon group at send time: an adapter that left
  // is out of scope (neither delivered nor unreachable) and costs no draw.
  // Receivers the frame cannot reach (dead switch, partition, dead
  // adapter) count as unreachable, exactly as the unicast path counts
  // them. A member's port is in `vlan`, so its stored VLAN differs only
  // while its switch is dead.
  for (util::AdapterId id : state.members) {
    if (id == from) continue;
    const Adapter& a = adapter(id);
    if (!a.in_beacon_group()) continue;
    if (wiring_[id.value()].vlan != vlan || !seg.connected(from, id) ||
        !a.can_recv()) {
      load.frames_unreachable++;
      continue;
    }
    const auto latency = seg.sample_delivery();
    if (!latency) {
      load.frames_lost++;
      continue;
    }
    const sim::SimDuration due =
        *latency + seg.sample_processing(processing_delay_mean_);
    std::uint32_t pslot = slot;
    if (may_corrupt && seg.sample_corruption()) {
      // This receiver alone sees flipped bytes: it gets a private payload
      // copy in its own pool slot, leaving the shared frame — and the
      // decode cache every clean receiver reuses — untouched.
      load.frames_corrupted++;
      pslot = park_corrupted(slot, seg);
    }
    // One event per receiver, pushed in member order: receivers sharing a
    // deadline run in member order, as the sequence number breaks the tie.
    pending_[pslot].remaining++;
    sim_.after(due, [this, pslot, id] { complete_delivery(pslot, id); });
  }
  if (pending_[slot].remaining == 0) release_frame(slot);
  return true;
}

void Fabric::set_adapter_health(util::AdapterId id, HealthState health) {
  GS_LOG(kDebug, "fabric") << adapter(id).ip() << " health -> "
                           << to_string(health);
  Adapter& a = adapter(id);
  const HealthState old = a.health();
  a.set_health(health);
  // Span anchors for the latency observatory: only crossings of the kUp
  // boundary matter (kDown -> kRecvDead is still the same fault episode).
  if ((old == HealthState::kUp) != (health == HealthState::kUp)) {
    const bool injected = old == HealthState::kUp;
    obs::emit_trace(trace_,
                    injected ? obs::TraceKind::kFaultInjected
                             : obs::TraceKind::kFaultCleared,
                    sim_.now(), a.ip(), {},
                    static_cast<std::uint64_t>(injected ? health : old), 0, {},
                    a.node());
  }
}

void Fabric::fail_node(util::NodeId node) {
  for (util::AdapterId id : node_adapters(node))
    set_adapter_health(id, HealthState::kDown);
}

void Fabric::recover_node(util::NodeId node) {
  for (util::AdapterId id : node_adapters(node))
    set_adapter_health(id, HealthState::kUp);
}

void Fabric::fail_switch(util::SwitchId id) { set_switch_failed(id, true); }

void Fabric::recover_switch(util::SwitchId id) { set_switch_failed(id, false); }

void Fabric::set_switch_failed(util::SwitchId id, bool failed) {
  Switch& s = mutable_switch(id);
  if (s.failed() == failed) return;
  s.set_failed(failed);
  for (util::AdapterId a : s.wired_adapters()) refresh_wiring(a);
  topology_changed();
}

void Fabric::partition_vlan(
    util::VlanId vlan, const std::vector<std::vector<util::AdapterId>>& parts) {
  segment(vlan).partition(parts);
}

void Fabric::heal_vlan(util::VlanId vlan) { segment(vlan).heal(); }

void Fabric::set_port_vlan(util::SwitchId sw, util::PortId port,
                           util::VlanId vlan) {
  Switch& s = mutable_switch(sw);
  const util::VlanId old_vlan = s.port_vlan(port);
  s.set_port_vlan(port, vlan);
  const util::AdapterId wired = s.port_adapter(port);
  if (wired.valid() && old_vlan != vlan) {
    index_remove(old_vlan, wired);
    index_add(vlan, wired);
    refresh_wiring(wired);
    topology_changed();
  }
  (void)segment(vlan);  // ensure the segment exists
}

const SegmentLoad& Fabric::load(util::VlanId vlan) {
  return load_of(vlans_[vlan]);
}

void Fabric::reset_load_accounting() {
  // Zero in place: erasing the keys would silence kWireSample publication
  // for quiet VLANs and dangle load() references taken before the reset.
  for (auto& [vlan, state] : vlans_) state.load = SegmentLoad{};
  frames_by_type_.clear();
  type_counters_.fill(nullptr);
  total_frames_sent_ = 0;
  total_bytes_sent_ = 0;
}

void Fabric::enable_load_sampling(sim::SimDuration period) {
  GS_CHECK(period > 0);
  load_sample_period_ = period;
  load_sample_timer_.cancel();
  load_sample_timer_ =
      sim_.after(load_sample_period_, [this] { sample_loads(); });
}

void Fabric::sample_loads() {
  if (trace_ != nullptr &&
      trace_->wants_kind(obs::TraceKind::kWireSample)) {
    for (const auto& [vlan, state] : vlans_) {
      if (!state.has_load) continue;
      const SegmentLoad& load = state.load;
      obs::TraceRecord record;
      record.kind = obs::TraceKind::kWireSample;
      record.severity = obs::Severity::kDebug;
      record.time = sim_.now();
      record.vlan = vlan;
      record.a = load.frames_sent;
      record.b = load.bytes_sent;
      trace_->publish(record);
    }
  }
  load_sample_timer_ =
      sim_.after(load_sample_period_, [this] { sample_loads(); });
}

}  // namespace gs::net
