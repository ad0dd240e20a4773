// Farm-level events published by GulfStream Central.
//
// "GulfStream Central coordinates the dissemination of failure notifications
// to other interested administrative nodes" (§2.2). In this library the
// dissemination bus is an obs::Bus: any number of subscribers, each with an
// RAII Subscription and an optional per-Kind filter mask.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "obs/bus.h"
#include "sim/time.h"
#include "util/ids.h"
#include "util/ip.h"

namespace gs::proto {

struct FarmEvent {
  enum class Kind : std::uint8_t {
    kGscActivated = 0,
    kGscDeactivated,
    kInitialTopologyStable,  // GSC heard nothing new for T_GSC (§4.1)
    kAdapterFailed,
    kAdapterRecovered,
    kNodeFailed,      // correlation: all of a node's adapters failed (§3)
    kNodeRecovered,
    kSwitchFailed,    // correlation: all adapters wired to a switch failed
    kSwitchRecovered,
    kMoveInitiated,       // GSC itself reconfigured a port (§3.1)
    kMoveCompleted,       // expected move observed end-to-end; suppressed
    kUnexpectedMove,      // old-group death + new-group join, not initiated
    kInconsistencyFound,  // discovered vs database mismatch (§2.2)
    kAdapterQuarantined,  // inconsistent adapter disabled onto the
                          // quarantine VLAN "for security reasons" (§2.2)
  };

  Kind kind;
  sim::SimTime time = 0;
  // Which Central emitted this (its admin-adapter IP). Partitions can spawn
  // additional per-partition Centrals (§2.2); consumers filter by source.
  util::IpAddress source;
  util::IpAddress ip;        // adapter-scoped events
  util::NodeId node;         // node-scoped events
  util::SwitchId switch_id;  // switch-scoped events
  util::VlanId vlan;         // move target / inconsistency VLAN
  std::string detail;
};

static_assert(static_cast<unsigned>(FarmEvent::Kind::kAdapterQuarantined) < 64,
              "FarmEvent::Kind must fit a 64-bit subscription mask");

[[nodiscard]] std::string_view to_string(FarmEvent::Kind kind);

// Multi-subscriber dissemination bus; subscribe(...) returns an RAII
// Subscription. EventLog replaces the old hand-wired chronological vector.
using EventBus = obs::Bus<FarmEvent>;
using EventLog = obs::Recorder<FarmEvent>;

inline constexpr std::uint64_t kAllEvents = obs::kAllKinds;

}  // namespace gs::proto
