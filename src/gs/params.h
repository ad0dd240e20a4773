// Tunable protocol parameters.
//
// Names follow the paper: T_b (beacon phase), T_AMG (leader stability wait),
// T_GSC (Central stability wait) are the three configurable terms of
// Equation 1; tau/k are the heartbeat frequency and failure-detector
// sensitivity whose trade-offs §3 discusses. The daemon-delay block models
// the paper's δ term (Java thread start-up and scheduling, §4.1).
#pragma once

#include <cstdint>

#include "obs/fwd.h"
#include "sim/time.h"

namespace gs::proto {

enum class FdKind : std::uint8_t {
  kUnidirectionalRing = 0,  // Totem-style, one-strike neighbor monitoring
  kBidirectionalRing,       // GulfStream default (paper Figure 4)
  kAllToAll,                // HACMP-style baseline — "scales poorly" (§5)
  kSubgroupRing,            // §4.2 alternative: small subgroups + leader poll
  kRandomPing,              // §4.2 alternative: randomized distributed pinging
};

[[nodiscard]] constexpr const char* to_string(FdKind kind) {
  switch (kind) {
    case FdKind::kUnidirectionalRing: return "uni-ring";
    case FdKind::kBidirectionalRing: return "bi-ring";
    case FdKind::kAllToAll: return "all-to-all";
    case FdKind::kSubgroupRing: return "subgroup";
    case FdKind::kRandomPing: return "rand-ping";
  }
  return "?";
}

struct Params {
  // --- Discovery (§2.1) ---------------------------------------------------
  sim::SimDuration beacon_phase = sim::seconds(5);     // T_b
  sim::SimDuration beacon_interval = sim::seconds(1);  // beacon send period
  sim::SimDuration defer_timeout = sim::seconds(4);    // waiting for Prepare
  sim::SimDuration join_retry = sim::seconds(2);       // leader-merge retry

  // --- Membership / two-phase commit --------------------------------------
  sim::SimDuration change_debounce = sim::milliseconds(300);
  sim::SimDuration twopc_timeout = sim::milliseconds(800);
  int twopc_retries = 2;

  // --- Failure detection (§3) ----------------------------------------------
  FdKind fd_kind = FdKind::kBidirectionalRing;
  sim::SimDuration hb_period = sim::milliseconds(500);  // tau
  int hb_sensitivity = 2;                               // k consecutive misses
  bool fd_loopback_test = true;   // self-test before blaming the neighbor
  bool leader_verify = true;      // leader probes before declaring death
  int probe_retries = 2;
  sim::SimDuration probe_timeout = sim::milliseconds(400);
  sim::SimDuration suspect_retry = sim::milliseconds(500);
  int suspect_retries = 3;        // then the leader is presumed unreachable
  sim::SimDuration resuspect_hold = sim::seconds(2);

  // Subgroup detector (§4.2)
  int subgroup_size = 8;
  sim::SimDuration subgroup_poll_period = sim::seconds(5);
  int subgroup_poll_misses = 3;

  // Randomized-ping detector (§4.2, ref [9])
  sim::SimDuration ping_period = sim::seconds(1);
  sim::SimDuration ping_timeout = sim::milliseconds(300);
  int ping_proxies = 3;

  // --- Reporting hierarchy (§2.2) ------------------------------------------
  sim::SimDuration amg_stable_wait = sim::seconds(5);   // T_AMG
  sim::SimDuration gsc_stable_wait = sim::seconds(15);  // T_GSC
  sim::SimDuration report_retry = sim::seconds(2);
  // Soft-state lease on the GSC's group table. Leaders re-send their report
  // every report_refresh even without membership changes, and the GSC
  // retires any group whose leader stayed silent for group_lease: when a
  // whole group dies at once (e.g. the last node of a partition half), no
  // survivor exists to report the death, so silence is the only signal.
  // Zero group_lease disables expiry; zero report_refresh disables the
  // refresh AND the expiry sweep (without renewals every healthy-but-quiet
  // group would expire on schedule).
  sim::SimDuration report_refresh = sim::seconds(10);
  sim::SimDuration group_lease = sim::seconds(25);

  // --- Two-level hierarchy (domain Central -> root GSC) ---------------------
  // Domain uplinks batch table changes for domain_batch before flushing one
  // DomainReport frame (many per-adapter changes per frame); zero flushes
  // every change immediately. The root retires a whole domain's slice after
  // domain_lease of uplink silence; uplinks re-send a full digest every
  // domain_refresh to renew it (zero disables, mirroring the flat lease).
  sim::SimDuration domain_batch = sim::milliseconds(200);
  sim::SimDuration domain_refresh = sim::seconds(10);
  sim::SimDuration domain_lease = sim::seconds(25);

  // --- GulfStream Central (§3, §3.1) ---------------------------------------
  sim::SimDuration move_window = sim::seconds(10);  // move-inference hold

  // --- Daemon delay model (the δ of Equation 1) -----------------------------
  // Uniform start-up skew of the daemon process on each node.
  sim::SimDuration start_skew_max = sim::seconds(1);
  // "the beaconing timer is not set for between 1 and 2 seconds after
  // beaconing begins" (§4.1): extra delay before the phase-end timer.
  sim::SimDuration beacon_setup_min = sim::seconds(1);
  sim::SimDuration beacon_setup_max = sim::seconds(2);
  // Per-message handling delay (exponential mean); models thread scheduling.
  // The simulated fabric reads it (farm::Farm passes it to
  // net::Fabric::set_processing_delay) and adds one draw to each delivery;
  // RealFarm ignores it, as the host supplies the real delay.
  sim::SimDuration proc_delay_mean = sim::milliseconds(2);

  // --- Telemetry ------------------------------------------------------------
  // Non-owning; farm::Farm (or the embedder) points this at its TraceBus so
  // every protocol layer sharing these Params emits onto the same bus.
  // Null disables tracing at one-branch cost per would-be record.
  obs::TraceBus* trace = nullptr;
};

}  // namespace gs::proto
