// A network adapter (NIC) — the unit GulfStream actually manages.
//
// The paper's failure model distinguishes full adapter death from the
// nastier "ceases to receive" mode (§3), which produces false blame on the
// ring neighbor unless the daemon runs a loopback test first. HealthState
// models all four combinations.
#pragma once

#include <functional>
#include <string_view>

#include "net/datagram.h"
#include "util/ids.h"
#include "util/ip.h"

namespace gs::net {

enum class HealthState : std::uint8_t {
  kUp = 0,
  kDown,       // neither sends nor receives
  kRecvDead,   // transmits fine, hears nothing (paper §3 failure mode)
  kSendDead,   // hears fine, transmits nothing
};

[[nodiscard]] std::string_view to_string(HealthState s);

class Fabric;

// One adapter record is exactly one cache line: Fabric stores them by value
// (see Fabric::adapters_), and the per-frame checks — health at send and at
// delivery, beacon-group membership at multicast, the source IP, the
// receive handler — read only this line.
class alignas(64) Adapter {
 public:
  using ReceiveHandler = std::function<void(const Datagram&)>;

  Adapter(util::AdapterId id, util::NodeId node, util::MacAddress mac)
      : id_(id), node_(node), mac_(mac) {}

  [[nodiscard]] util::AdapterId id() const { return id_; }
  [[nodiscard]] util::NodeId node() const { return node_; }
  [[nodiscard]] util::MacAddress mac() const { return mac_; }

  [[nodiscard]] util::IpAddress ip() const { return ip_; }

  [[nodiscard]] util::SwitchId attached_switch() const { return switch_; }
  [[nodiscard]] util::PortId attached_port() const { return port_; }

  [[nodiscard]] HealthState health() const { return health_; }
  void set_health(HealthState h) { health_ = h; }
  [[nodiscard]] bool can_send() const {
    return health_ == HealthState::kUp || health_ == HealthState::kRecvDead;
  }
  [[nodiscard]] bool can_recv() const {
    return health_ == HealthState::kUp || health_ == HealthState::kSendDead;
  }

  // The local self-test the daemon runs before blaming a silent neighbor
  // (§3): can this adapter still hear its own transmissions? True only when
  // both directions work.
  [[nodiscard]] bool loopback_ok() const {
    return health_ == HealthState::kUp;
  }

  // Whether multicasts on the adapter's VLAN reach it: the VLAN's beacon
  // group is the only group. A new adapter is in it; the daemon leaves
  // while its protocol instance neither beacons nor collects beacons.
  [[nodiscard]] bool in_beacon_group() const { return in_beacon_group_; }
  void set_in_beacon_group(bool member) { in_beacon_group_ = member; }

  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }
  void deliver(const Datagram& dgram) const {
    if (on_receive_) on_receive_(dgram);
  }

 private:
  // IP and wiring changes go through Fabric (set_adapter_ip, attach) so its
  // ip -> adapter index and stored VLANs stay coherent.
  friend class Fabric;
  void set_ip(util::IpAddress ip) { ip_ = ip; }
  void attach(util::SwitchId sw, util::PortId port) {
    switch_ = sw;
    port_ = port;
  }

  // What the traffic paths read comes first; identity and wiring follow.
  HealthState health_ = HealthState::kUp;
  bool in_beacon_group_ = true;  // in the padding before ip_
  util::IpAddress ip_;
  util::AdapterId id_;
  util::NodeId node_;
  ReceiveHandler on_receive_;
  util::MacAddress mac_;
  util::SwitchId switch_;
  util::PortId port_;
};
// A new member must not spill the record into a second line.
static_assert(sizeof(Adapter) == 64);

}  // namespace gs::net
