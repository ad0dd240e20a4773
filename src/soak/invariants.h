// Farm-wide convergence invariants, checked against simulator ground truth.
//
// After a quiescent window, a correct GulfStream farm must satisfy, for
// every VLAN with at least one fully healthy adapter:
//  1. every healthy adapter is committed into exactly one AMG per segment —
//     all of a VLAN's healthy adapters hold the same view, whose membership
//     is exactly the healthy set;
//  2. every AMG leader holds the highest IP in its view (and that IP is the
//     highest healthy IP on the segment);
//  3. GulfStream Central's adapter/group tables match ground truth: every
//     healthy adapter is known, alive, and assigned to its segment's
//     leader; nothing dead is still recorded alive (no missed deaths, no
//     phantoms); exactly one group per populated segment with the right
//     leader and member set — and the active Central is hosted where the
//     admin-AMG election says it should be.
// Trace-derived checks (obs::TraceInvariants) are folded in by the runner
// as kind kTrace. Checked on every adapter of every running node, healthy
// or not: an adapter is in its VLAN's beacon group exactly while its
// protocol beacons, waits for a leader or leads (proto::in_beacon_group).
// A transition that forgot to rejoin would otherwise show only as slower,
// singleton-first discovery.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "farm/farm.h"

namespace gs::soak {

struct Violation {
  enum class Kind : std::uint8_t {
    kNotConverged = 0,  // farm never (re-)reached ground-truth convergence
    kAmgMembership,     // invariant 1
    kAmgLeadership,     // invariant 2
    kNoActiveCentral,   // invariant 3: nobody is GSC / wrong node is
    kGscAdapter,        // invariant 3: per-adapter table mismatch
    kGscGroup,          // invariant 3: group table mismatch
    kTrace,             // invariant 4: trace-derived protocol violation
    kSpanLeak,          // invariant 5: latency span left open after quiesce
    kCodec,             // invariant 6: frames dropped without injected
                        // corruption anywhere on the fabric
    kBeaconGroup,       // invariant 7: an adapter's beacon-group membership
                        // disagrees with its protocol state
  };
  Kind kind = Kind::kNotConverged;
  std::string detail;
};

[[nodiscard]] std::string_view to_string(Violation::Kind kind);

// One line per violation, for logs and test failure messages.
[[nodiscard]] std::string format_violations(
    const std::vector<Violation>& violations);

// Checks invariants 1-3, 6 and 7 against the farm's current state. Call
// only after a quiescent window: mid-churn the protocol is *supposed* to be
// in flux.
[[nodiscard]] std::vector<Violation> check_farm_invariants(farm::Farm& farm);

}  // namespace gs::soak
