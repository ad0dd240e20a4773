// The per-adapter GulfStream protocol state machine.
//
// One instance runs for every network adapter of every node (the daemon
// hosts one per local adapter, §2.1). It implements:
//  * the BEACON discovery phase and highest-IP deferral,
//  * AMG formation, joins, merges, and death recommits — all through a
//    two-phase commit coordinated by the leader,
//  * the heartbeat failure detector (pluggable strategy, see fd.h), the
//    loopback self-test, suspicion reporting with leader verification
//    probes, and leader succession by rank,
//  * the "moved adapter" recovery path of §3.1: a member that can reach
//    neither its heartbeat partners nor its leader (or that receives a
//    StaleNotice) resets to discovery, becomes a singleton leader, beacons,
//    and is absorbed by the leader of whatever segment it now lives on,
//  * membership reporting toward GulfStream Central: the leader debounces
//    for T_AMG after its group stabilizes, then emits full-or-delta
//    MembershipReports (delivery/acks are the daemon's job).
//
// View numbers act as a Lamport clock (clock_): every view observed in any
// message advances it, and every proposal uses clock_+1, which makes
// competing recommits, takeovers, and merges converge.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "gs/amg.h"
#include "gs/fd.h"
#include "gs/messages.h"
#include "gs/params.h"
#include "sim/time_source.h"
#include "util/ip.h"
#include "util/rng.h"

namespace gs::proto {

enum class AdapterState : std::uint8_t {
  kIdle = 0,          // not started
  kBeaconing,         // initial (or re-)discovery, collecting beacons
  kWaitingForLeader,  // deferred to a higher IP, awaiting its Prepare
  kMember,            // committed, non-leader
  kLeader,            // committed leader (also: coordinator of an initial
                      // formation whose first 2PC is still in flight)
};

[[nodiscard]] std::string_view to_string(AdapterState s);

// Whether an adapter in state `s` listens to its VLAN's beacon group: while
// it collects beacons (kBeaconing, kWaitingForLeader) or leads. A committed
// member does not, as "only the leader continues to multicast and listen"
// (§2.1), and neither does an idle adapter.
[[nodiscard]] constexpr bool in_beacon_group(AdapterState s) {
  return s == AdapterState::kBeaconing ||
         s == AdapterState::kWaitingForLeader || s == AdapterState::kLeader;
}

// What became of one verified frame handed to a protocol instance. The
// daemon turns this into per-type decoded / per-reason dropped accounting,
// counted per receiver even when the decode itself came from the shared
// payload cache.
enum class HandleResult : std::uint8_t {
  kHandled,      // typed decode succeeded and the message was processed
  kDecodeError,  // the payload failed its typed decoder
  kUnknownType,  // the type is not a known MsgType
};

struct ProtocolStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t suspicions_raised = 0;   // local FD suspicions
  std::uint64_t suspects_sent = 0;       // Suspect messages sent upward
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_refuted = 0;      // suspect answered: false report
  std::uint64_t deaths_declared = 0;     // leader-side removals
  std::uint64_t commits = 0;             // views installed
  std::uint64_t takeovers = 0;           // leader successions performed
  std::uint64_t resets = 0;              // falls back to discovery
  std::uint64_t stale_notices_sent = 0;
  std::uint64_t joins_requested = 0;     // merge requests to higher leaders
};

// What a heartbeat dispatch reads (handle_frame's kHeartbeat case: the
// Lamport clock bump, the implicit-commit check against the pending
// prepare, is_committed(), then the detector): AdapterProtocol inherits it
// first, so all of it opens the object in 64 bytes, ahead of the
// NetIface/Hooks functions and the discovery, 2PC, suspicion and reporting
// state. Not over-aligned: a 64-byte alignment measured no steady-state
// gain and made every construction pay for an aligned allocation.
struct AdapterProtocolHot {
  // Participant 2PC: the prepared view awaiting its Commit.
  struct PendingPrepare {
    std::uint64_t view = 0;
    util::IpAddress coordinator;
    MembershipView membership;
    sim::Timer expiry;
  };

  AdapterState state_ = AdapterState::kIdle;
  std::uint64_t clock_ = 0;  // Lamport view clock
  MembershipView committed_;
  std::unique_ptr<FailureDetector> fd_;
  // Boxed so the check for one costs a pointer in this line.
  std::unique_ptr<PendingPrepare> pending_prepare_;
};
// One line's worth: a later member must not push the cycle's fields out.
static_assert(sizeof(AdapterProtocolHot) <= 64);

class AdapterProtocol : private AdapterProtocolHot {
 public:
  // How the protocol touches the outside world; the daemon wires these to
  // its transport (the simulated fabric or real UDP).
  struct NetIface {
    std::function<bool(util::IpAddress, net::Payload)> unicast;
    std::function<bool(net::Payload)> beacon_multicast;
    // Joins (true) or leaves (false) the VLAN's beacon group; called each
    // time in_beacon_group(state()) flips.
    std::function<void(bool)> listen_beacons;
    std::function<bool()> loopback_ok;
  };

  struct Hooks {
    // The leader's report debounce (T_AMG) fired: the daemon should call
    // build_report() and deliver it toward GulfStream Central.
    std::function<void()> on_report_pending;
    std::function<void(const MembershipView&)> on_committed;
    std::function<void()> on_reset;
  };

  // `heartbeat_frames` is borrowed (the daemon's, shared farm-wide) and
  // must outlive the protocol's detectors.
  AdapterProtocol(sim::TimeSource& clock, const Params& params,
                  HeartbeatFrames& heartbeat_frames, MemberInfo self,
                  NetIface net, Hooks hooks, util::Rng rng);

  AdapterProtocol(const AdapterProtocol&) = delete;
  AdapterProtocol& operator=(const AdapterProtocol&) = delete;

  // Cancels every pending timer (trace-free, unlike shutdown()): an
  // instance destroyed with timers in flight must never leave callbacks
  // behind that would fire into freed memory — the wall-clock backends
  // outlive individual daemons.
  ~AdapterProtocol();

  // Enters the beacon phase. Call once (the daemon applies start-up skew).
  void start();

  // Models the daemon process dying with its node: every timer is
  // cancelled, all state dropped, and the adapter goes silent (kIdle).
  void shutdown();
  // Models the daemon restarting on boot: re-enters discovery from kIdle.
  void restart();

  // Handles one already-CRC-verified frame (daemon decoded the envelope).
  // The FrameRef may carry the shared decode cache of a multicast payload;
  // the result feeds the daemon's per-type/per-reason codec accounting.
  HandleResult handle_frame(util::IpAddress src, MsgType type, FrameRef frame);

  // --- Introspection --------------------------------------------------------

  [[nodiscard]] AdapterState state() const { return state_; }
  [[nodiscard]] bool is_leader() const { return state_ == AdapterState::kLeader; }
  [[nodiscard]] bool is_committed() const {
    return !committed_.empty() && (state_ == AdapterState::kMember ||
                                   state_ == AdapterState::kLeader);
  }
  [[nodiscard]] const MembershipView& committed() const { return committed_; }
  // When the current committed view was installed (-1 if none): the health
  // sampler derives per-AMG view age from this.
  [[nodiscard]] sim::SimTime committed_at() const { return committed_at_; }
  [[nodiscard]] util::IpAddress leader_ip() const {
    return committed_.empty() ? util::IpAddress{} : committed_.leader().ip;
  }
  [[nodiscard]] const MemberInfo& self() const { return self_; }
  [[nodiscard]] const ProtocolStats& stats() const { return stats_; }
  // Size of the StaleNotice rate-limit map (tests assert it stays pruned).
  [[nodiscard]] std::size_t stale_notice_entries() const {
    return stale_notice_sent_.size();
  }
  // Size of the discovery heard set (tests assert it is dropped as soon as
  // a higher IP is heard).
  [[nodiscard]] std::size_t heard_entries() const { return heard_.size(); }

  // --- Reporting interface (leader only; driven by the daemon) --------------

  [[nodiscard]] MembershipReport build_report();
  void report_acked(std::uint64_t seq);
  void mark_need_full() { need_full_ = true; }

 private:
  // Emits one protocol-phase trace record onto params_.trace (no-op when
  // unwired or unobserved).
  void trace(obs::TraceKind kind, util::IpAddress peer = {},
             std::uint64_t a = 0, std::uint64_t b = 0);

  // --- Discovery ------------------------------------------------------------
  void begin_beaconing();
  void clear_heard();
  void note_heard(const Beacon& msg);
  void beacon_tick();
  void end_beacon_phase();
  void defer_expired();
  void install_singleton();

  // --- Participant 2PC --------------------------------------------------------
  void handle_prepare(util::IpAddress src, const Prepare& msg);
  void handle_commit(const Commit& msg);
  void maybe_implicit_commit(std::uint64_t msg_view);
  void install_pending();
  void install(MembershipView view);

  // --- Coordinator 2PC ----------------------------------------------------------
  struct Proposal;
  void schedule_change();
  void propose();
  void send_prepares(const Proposal& proposal);
  void reinstate_proposal_state(const MembershipView& aborted,
                                util::IpAddress drop,
                                RemoveReason drop_reason);
  void twopc_timeout();
  void handle_prepare_ack(util::IpAddress src, const PrepareAck& msg);
  void do_commit();

  // --- Leader duties ---------------------------------------------------------
  void handle_beacon(util::IpAddress src, const Beacon& msg);
  void handle_join_request(const JoinRequest& msg);
  void maybe_send_join(util::IpAddress higher_leader);
  void leader_handle_suspicion(util::IpAddress suspect,
                               util::IpAddress reporter);
  void start_verification(util::IpAddress suspect);
  void probe_timeout(util::IpAddress suspect);
  void declare_dead(util::IpAddress ip);
  void arm_report_debounce();

  // --- Member duties -----------------------------------------------------------
  void raise_suspicion(util::IpAddress suspect);
  void send_suspect(util::IpAddress suspect, util::IpAddress to);
  void suspect_retry_expired(util::IpAddress suspect);
  void begin_takeover_check();
  void takeover_probe_timeout();
  void do_takeover();
  void reset_to_discovery();

  // --- Helpers --------------------------------------------------------------------
  // The only writer of state_: keeps the beacon group's membership in step.
  void set_state(AdapterState next);
  void cancel_all_timers();
  void bump_clock(std::uint64_t seen) { clock_ = std::max(clock_, seen); }
  void start_fd();
  void stop_fd();
  void clear_member_duty_state();
  void clear_leader_duty_state();
  [[nodiscard]] util::IpAddress self_ip() const { return self_.ip; }
  bool unicast(util::IpAddress to, net::Payload frame);

  // Encodes a message into the adapter's scratch Writer and snapshots it
  // into a pooled payload: the steady-state (allocation-free) frame path.
  template <typename T>
  [[nodiscard]] net::Payload framed(const T& msg) {
    return net::Payload::copy_of(build_frame(scratch_, msg));
  }

  // framed() reuses the scratch for every frame this adapter (and its
  // failure detector) encodes; it grows to the largest frame and stays
  // there. A heartbeat period reads neither it nor net_: the detector
  // resends its view number's frame from heartbeat_frames_ through its own
  // copy of net_.unicast.
  wire::Writer scratch_;
  sim::TimeSource& sim_;
  NetIface net_;
  const Params& params_;
  HeartbeatFrames& heartbeat_frames_;
  MemberInfo self_;
  Hooks hooks_;
  util::Rng rng_;

  sim::SimTime committed_at_ = -1;
  ProtocolStats stats_;

  // Discovery. The beacon phase only ever asks three questions of what it
  // heard, so only their answers are kept (see DESIGN.md, "Discovery
  // state"): the highest IP heard; which higher IPs' latest beacon claimed
  // leadership (defer_expired's join target); and — only while no higher IP
  // has been heard, i.e. while self is still the top candidate — every
  // peer's latest beacon, which becomes the formation's membership.
  struct HeardBeacon {
    MemberInfo info;
    bool is_leader = false;
  };
  util::IpAddress heard_max_;
  std::vector<util::IpAddress> heard_higher_leaders_;
  std::map<util::IpAddress, HeardBeacon> heard_;
  sim::Timer beacon_send_timer_;
  sim::Timer beacon_end_timer_;
  sim::Timer defer_timer_;
  // Set once defer_expired() has tried joining a heard leader, so the
  // second expiry falls back to the singleton instead of looping.
  bool defer_join_attempted_ = false;

  // Coordinator 2PC. `awaiting` is indexed by rank in `membership`: true
  // while that participant's PrepareAck is outstanding.
  struct Proposal {
    MembershipView membership;
    std::vector<bool> awaiting;
    std::size_t awaiting_count = 0;
    int attempt = 1;
    sim::Timer timer;
  };
  std::optional<Proposal> proposal_;
  std::map<util::IpAddress, MemberInfo> pending_adds_;
  std::map<util::IpAddress, RemoveReason> pending_removes_;
  bool force_recommit_ = false;
  bool dirty_ = false;  // changes arrived while a 2PC was in flight
  sim::Timer change_timer_;

  // Leader verification of suspicions.
  struct SuspicionState {
    std::set<util::IpAddress> reporters;
    bool probing = false;
    std::uint64_t probe_nonce = 0;
    int probes_left = 0;
    sim::Timer probe_timer;
  };
  std::map<util::IpAddress, SuspicionState> suspicions_;

  // Merge rate limiting.
  util::IpAddress join_target_;
  sim::SimTime last_join_sent_ = -1;

  // Reporting.
  std::uint64_t report_seq_ = 0;
  bool need_full_ = true;
  // Membership as of the last acked report, and as of the one in flight:
  // both share the committed view's list.
  MembershipView last_acked_membership_;
  struct PendingSnapshot {
    std::uint64_t seq = 0;
    MembershipView membership;
  };
  std::optional<PendingSnapshot> pending_snapshot_;
  std::map<util::IpAddress, RemoveReason> departures_;  // until acked
  sim::Timer report_timer_;

  // Member-side suspicion reporting.
  struct OutstandingSuspect {
    util::IpAddress to;  // leader, or the successor during leader suspicion
    int tries = 0;
    sim::Timer timer;
  };
  std::map<util::IpAddress, OutstandingSuspect> outstanding_suspects_;
  std::set<util::IpAddress> locally_suspected_;

  // Leader-takeover verification (member side).
  struct Takeover {
    std::uint64_t nonce = 0;
    int probes_left = 0;
    sim::Timer timer;
  };
  std::optional<Takeover> takeover_;

  // Rate limit for StaleNotice replies (a stale member heartbeats fast).
  std::map<util::IpAddress, sim::SimTime> stale_notice_sent_;
};

}  // namespace gs::proto
