// GulfStream Central — the root of the reporting hierarchy.
//
// The node whose administrative adapter currently leads the administrative
// AMG activates its Central instance (§2.2). Central:
//  * consumes MembershipReports from all AMG leaders and maintains the
//    farm-wide adapter/group view (full snapshots establish a group, deltas
//    maintain it; sequence gaps trigger a need_full ack),
//  * declares the initial topology stable after T_GSC of report silence —
//    the quantity Figure 5 measures,
//  * correlates adapter failures into node and switch failures using the
//    configuration database's wiring records (§3),
//  * infers domain moves: a failure in one AMG followed by a join in
//    another within the move window is a move, not a death (§3.1); moves
//    Central itself initiated are expected and fully suppressed,
//  * verifies the discovered topology against the configuration database
//    (§2.2) and flags typed inconsistencies,
//  * drives reconfiguration through the switch console (§3.1).
//
// Failover: Central is deliberately centralized (§4.2); when the admin AMG
// elects a new leader, a fresh instance activates empty and rebuilds its
// view from the full reports every AMG leader re-sends.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "config/configdb.h"
#include "config/verifier.h"
#include "gs/events.h"
#include "gs/messages.h"
#include "gs/params.h"
#include "net/console.h"
#include "sim/time_source.h"

namespace gs::proto {

class Central {
 public:
  // `db` and `console` may be null: a Central on a node without database /
  // switch-console access can still aggregate failure reports for its
  // partition, but cannot verify, correlate switches, or reconfigure (§2.2).
  Central(sim::TimeSource& clock, const Params& params, config::ConfigDb* db,
          net::SwitchConsole* console);

  Central(const Central&) = delete;
  Central& operator=(const Central&) = delete;

  // Cancels stability/lease/held-failure/move timers without emitting
  // events or traces; safe with callbacks still queued on a live clock.
  ~Central();

  // Dissemination bus (§2.2): subscribe for farm events; any number of
  // subscribers, each holding an RAII obs::Subscription.
  [[nodiscard]] EventBus& event_bus() { return event_bus_; }

  // Observer of adapter-table mutations. The two-level hierarchy's domain
  // uplink (central_hier.h) registers one to learn which adapters changed
  // since its last batched flush to the root. Notifications may overcount
  // (a touched-but-identical row is fine — the uplink dedups via a dirty
  // set); they never undercount.
  class TableObserver {
   public:
    virtual ~TableObserver() = default;
    virtual void central_activated() {}
    virtual void central_deactivated() {}
    virtual void adapter_changed(util::IpAddress ip) { (void)ip; }
  };
  void set_table_observer(TableObserver* observer) { observer_ = observer; }

  void activate(util::IpAddress self_admin_ip);
  void deactivate();
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] util::IpAddress self_ip() const { return self_ip_; }
  [[nodiscard]] bool has_db_access() const { return db_ != nullptr; }

  // --- Report ingestion -----------------------------------------------------

  void handle_report(util::IpAddress from, const MembershipReport& report,
                     const std::function<void(const ReportAck&)>& reply);

  [[nodiscard]] std::uint64_t reports_received() const {
    return reports_received_;
  }

  // --- Farm view --------------------------------------------------------------

  struct GroupInfo {
    MemberInfo leader;
    std::uint64_t view = 0;
    std::vector<util::IpAddress> members;
  };
  [[nodiscard]] std::vector<GroupInfo> groups() const;

  struct AdapterStatus {
    MemberInfo info;
    bool alive = false;
    util::IpAddress group_leader;  // unspecified when unassigned
    std::uint64_t view = 0;        // the owning group's view (0 unassigned)
    sim::SimTime last_change = 0;
  };
  [[nodiscard]] std::optional<AdapterStatus> adapter_status(
      util::IpAddress ip) const;
  // Every known adapter's status — the hierarchy uplink's full-digest
  // source (central_hier.h).
  [[nodiscard]] std::vector<AdapterStatus> adapter_table() const;
  [[nodiscard]] std::size_t known_adapter_count() const {
    return adapters_.size();
  }
  [[nodiscard]] std::size_t alive_adapter_count() const;

  [[nodiscard]] bool initial_topology_stable() const { return stable_; }
  // Simulated time at which stability was declared; -1 if not yet.
  [[nodiscard]] sim::SimTime stable_time() const { return stable_time_; }

  [[nodiscard]] bool node_down(util::NodeId node) const {
    return nodes_down_.count(node) > 0;
  }
  [[nodiscard]] std::size_t nodes_down_count() const {
    return nodes_down_.size();
  }
  [[nodiscard]] bool switch_down(util::SwitchId sw) const {
    return switches_down_.count(sw) > 0;
  }

  // --- Verification (§2.2) ------------------------------------------------------

  // Diffs the discovered topology against the configuration database.
  // Emits kInconsistencyFound per finding and returns them. Empty without
  // database access.
  std::vector<config::Inconsistency> verify_now();

  // --- SNMP wiring discovery (§3's stated future work) -----------------------
  // "In the future, GulfStream will independently identify these connections
  // by querying the routers and switches directly using SNMP."
  //
  // Walks each switch's port table through the console and resolves the
  // station MACs against the adapters the AMG leaders have reported.
  // Returns how many adapters' wiring was resolved. Discovered wiring backs
  // switch-failure correlation when the database has no record (or there is
  // no database at all), and enables audit_wiring() / quarantine of unknown
  // adapters.
  std::size_t discover_wiring(const std::vector<util::SwitchId>& switches);

  struct WiringRecord {
    util::SwitchId wired_switch;
    util::PortId wired_port;
    util::VlanId vlan;
  };
  [[nodiscard]] std::optional<WiringRecord> discovered_wiring(
      util::IpAddress ip) const;

  // Audits the database's wiring records against the switches' own bridge
  // tables — §2 warns "it is possible that the configuration database
  // itself is incorrect". Requires database access and a prior
  // discover_wiring(). Each mismatch is also emitted as an inconsistency.
  struct WiringMismatch {
    util::IpAddress ip;
    util::SwitchId db_switch;
    util::PortId db_port;
    util::SwitchId actual_switch;
    util::PortId actual_port;
  };
  std::vector<WiringMismatch> audit_wiring();

  // --- Quarantine (§2.2) -------------------------------------------------------
  // "Inconsistencies can be flagged and the affected adapters disabled, for
  // security reasons, until conflicts are resolved." When a quarantine VLAN
  // is set, verify_now() moves wrong-VLAN adapters (and unknown adapters
  // whose wiring SNMP discovery resolved) onto it.
  void set_quarantine_vlan(util::VlanId vlan) { quarantine_vlan_ = vlan; }
  [[nodiscard]] bool quarantined(util::IpAddress ip) const {
    return quarantined_.count(ip) > 0;
  }
  // Lifts the quarantine: rewires the port back to the database's expected
  // VLAN. Returns false if the adapter was not quarantined or has no record.
  bool release_quarantine(util::IpAddress ip);

  // --- Reconfiguration (§3.1) -----------------------------------------------------

  // Moves one adapter to a VLAN: records the expected move (suppressing the
  // resulting failure notifications), updates the database's expectation,
  // and rewrites the switch port through the console.
  bool move_adapter(util::AdapterId adapter, util::VlanId target);

  // Moves a node between domains: every (adapter, target-VLAN) pair given.
  bool move_node(util::NodeId node,
                 const std::vector<std::pair<util::AdapterId, util::VlanId>>&
                     adapter_vlans);

 private:
  struct Group {
    MemberInfo leader;
    std::uint64_t view = 0;
    std::uint64_t last_seq = 0;
    sim::SimTime last_report = 0;  // lease: when the leader last reported
    std::set<util::IpAddress> members;
  };

  struct AdapterRec {
    MemberInfo info;
    bool alive = false;
    util::IpAddress group_leader;
    sim::SimTime last_change = 0;
  };

  struct MoveState {
    util::VlanId target;
    bool seen_fail = false;
    bool seen_join = false;
    sim::Timer deadline;
  };

  void emit(FarmEvent event);
  void trace(obs::TraceKind kind, util::IpAddress ip = {},
             std::uint64_t a = 0);
  void notify_changed(util::IpAddress ip) {
    if (observer_ != nullptr) observer_->adapter_changed(ip);
  }
  void arm_stability_timer();
  void arm_lease_sweep();
  void lease_sweep();
  void attest_leader(const MemberInfo& leader);
  bool claim_member(const MemberInfo& m, util::IpAddress leader,
                    std::uint64_t view);
  void unassign(util::IpAddress ip);
  void mark_alive(const MemberInfo& m, util::IpAddress leader);
  void mark_failed(util::IpAddress ip);
  void retire_group(util::IpAddress leader_ip);
  void commit_failure(util::IpAddress ip);  // after the move window
  void correlate_failure(util::IpAddress ip);
  void correlate_recovery(util::IpAddress ip);
  void maybe_complete_move(util::IpAddress ip);
  void clear_all_state();
  void cancel_all_timers();

  sim::TimeSource& sim_;
  const Params& params_;
  config::ConfigDb* db_;
  net::SwitchConsole* console_;
  EventBus event_bus_;
  TableObserver* observer_ = nullptr;

  bool active_ = false;
  util::IpAddress self_ip_;
  std::uint64_t reports_received_ = 0;

  std::map<util::IpAddress, Group> groups_;  // keyed by leader adapter IP
  std::map<util::IpAddress, AdapterRec> adapters_;
  std::map<util::IpAddress, MoveState> expected_moves_;
  std::map<util::IpAddress, sim::Timer> held_failures_;

  void quarantine(util::IpAddress ip, util::SwitchId sw, util::PortId port,
                  util::VlanId discovered_on);
  [[nodiscard]] std::optional<util::SwitchId> wired_switch_of(
      util::IpAddress ip) const;

  sim::Timer stability_timer_;
  sim::Timer lease_timer_;
  bool stable_ = false;
  sim::SimTime stable_time_ = -1;

  std::map<util::IpAddress, WiringRecord> snmp_wiring_;
  util::VlanId quarantine_vlan_;
  std::set<util::IpAddress> quarantined_;

  std::set<util::NodeId> nodes_down_;
  std::set<util::SwitchId> switches_down_;
};

}  // namespace gs::proto
