// Farm — builds and owns a complete simulated GulfStream deployment.
//
// From a FarmSpec it constructs the switched fabric (racking each node's
// adapters on one switch), assigns globally unique IPs (management nodes
// receive the highest administrative IPs so a central-eligible node wins
// the admin-AMG election, per §2.2), populates the configuration database,
// instantiates one GsDaemon per node and one Central per eligible node, and
// forwards every Central's events onto one farm-wide EventBus (alongside a
// farm-wide TraceBus every protocol layer publishes records to).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "config/configdb.h"
#include "farm/spec.h"
#include "gs/gulfstream.h"
#include "net/console.h"
#include "net/fabric.h"
#include "net/fabric_transport.h"
#include "obs/health.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace gs::farm {

class Farm {
 public:
  Farm(sim::Simulator& sim, const FarmSpec& spec, const proto::Params& params,
       std::uint64_t seed);

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  // Starts every daemon (each applies its own start-up skew).
  void start();

  // --- Plumbing access ------------------------------------------------------
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] config::ConfigDb& db() { return db_; }
  [[nodiscard]] net::SwitchConsole& console() { return *console_; }
  [[nodiscard]] const FarmSpec& spec() const { return spec_; }
  [[nodiscard]] const proto::Params& params() const { return params_; }
  // The heartbeat frame table every daemon's detectors share.
  [[nodiscard]] const proto::HeartbeatFrames& heartbeat_frames() const {
    return heartbeat_frames_;
  }

  // --- Nodes ------------------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const { return daemons_.size(); }
  [[nodiscard]] proto::GsDaemon& daemon(std::size_t node_index);
  [[nodiscard]] NodeRole role(std::size_t node_index) const;
  [[nodiscard]] util::DomainId domain_of(std::size_t node_index) const;
  [[nodiscard]] const std::vector<util::AdapterId>& node_adapters(
      std::size_t node_index) const;
  // Node indices having a given role.
  [[nodiscard]] std::vector<std::size_t> nodes_with_role(NodeRole role) const;

  // --- Fault injection -------------------------------------------------------
  // Node death/boot done properly: NICs go dark AND the daemon process
  // halts/restarts (a dead node must not keep computing).
  void fail_node(std::size_t node_index);
  void recover_node(std::size_t node_index);

  // --- GulfStream state ----------------------------------------------------------
  // The primary Central instance (the legitimate admin-AMG leader's), if
  // any; partition-island Centrals are not returned.
  [[nodiscard]] proto::Central* active_central();
  [[nodiscard]] proto::AdapterProtocol* protocol_for(util::AdapterId id);

  // --- Two-level hierarchy (hierarchical specs only) -------------------------
  // The active RootCentral hosted where the root-VLAN election says, if any.
  [[nodiscard]] proto::RootCentral* active_root_central();
  // The plain Central co-hosted on the root tier — it covers the root
  // VLAN's own membership (the RootCentral only aggregates domain digests).
  [[nodiscard]] proto::Central* active_root_tier_central();
  // The active per-domain Central with the highest healthy admin IP in
  // `domain`, if any.
  [[nodiscard]] proto::Central* active_domain_central(std::uint32_t domain);
  // Ground truth: the root-management node that *should* host the root
  // (highest healthy root-VLAN admin adapter among the root tier).
  [[nodiscard]] std::optional<std::size_t> expected_root_node() const;
  // Ground truth: the domain-management node that *should* host `domain`'s
  // Central (highest healthy domain-admin adapter of its eligible nodes).
  [[nodiscard]] std::optional<std::size_t> expected_domain_gsc_node(
      std::uint32_t domain) const;

  // --- Telemetry --------------------------------------------------------------
  // Farm-wide event stream: every FarmEvent any Central emits is forwarded
  // here, in chronological (publish) order. Subscribe, or attach a
  // proto::EventLog, to consume it.
  [[nodiscard]] proto::EventBus& event_bus() { return event_bus_; }
  // Farm-wide trace stream: protocol phase transitions, failure-detection
  // steps, report traffic, Central decisions, and wire-load samples.
  [[nodiscard]] obs::TraceBus& trace_bus() { return trace_bus_; }

  // --- Latency observatory (opt-in; see obs/spans.h, obs/health.h) ----------
  // Both are off by default so an unobserved farm keeps PR 1's zero-cost
  // contract: no subscriber, no record, byte-identical traces.
  //
  // Attaches (once) a SpanTracker to the trace bus, feeding metrics().
  // Call before injecting faults so span accounting balances.
  obs::SpanTracker& enable_span_tracking();
  // Starts (once) periodic health sampling into the trace bus + metrics().
  obs::FarmHealthSampler& enable_health_sampling(sim::SimDuration period);
  // Null until enable_health_sampling ran.
  [[nodiscard]] obs::FarmHealthSampler* health_sampler() {
    return health_.get();
  }
  // Registry the tracker/sampler (and any embedder) write into.
  [[nodiscard]] util::StatsRegistry& metrics() { return metrics_; }
  // One immediate health snapshot, independent of sampling (may be called
  // without enable_health_sampling).
  [[nodiscard]] obs::FarmHealthSampler::Snapshot health_snapshot();

  // --- Ground-truth convergence checks ----------------------------------------------
  // True when, for every VLAN, the fully healthy adapters wired to it form
  // exactly one committed AMG led by the highest IP, all agreeing on the
  // same view.
  [[nodiscard]] bool converged();
  [[nodiscard]] bool converged(util::VlanId vlan);
  [[nodiscard]] std::vector<util::VlanId> vlans() const;

  // Simulator ground truth the soak invariant checker compares protocol and
  // Central state against.
  //
  // The fully healthy (kUp) adapters currently wired to `vlan`.
  [[nodiscard]] std::vector<util::AdapterId> healthy_adapters_in_vlan(
      util::VlanId vlan) const;
  // The node whose Central instance *should* be active: the central-eligible
  // node holding the highest healthy admin adapter IP (the legitimate
  // admin-AMG leader). nullopt when no eligible node is healthy.
  [[nodiscard]] std::optional<std::size_t> expected_gsc_node() const;
  // The node owning an adapter; nullopt for unknown ids.
  [[nodiscard]] std::optional<std::size_t> node_of(util::AdapterId id) const;

 private:
  struct NodeInfo {
    NodeRole role = NodeRole::kGeneric;
    util::DomainId domain;
    std::vector<util::AdapterId> adapters;
  };

  // Hierarchy assignment of a node being finished: hosts the RootCentral,
  // and/or carries a DomainUplink on one of its adapters.
  struct HierRole {
    bool root = false;
    std::optional<std::size_t> uplink_adapter;
    std::uint32_t domain = 0;
  };

  // Opens a fresh switch when the current one cannot rack a whole node.
  void ensure_rack_capacity(std::size_t ports_needed);
  util::AdapterId new_racked_adapter(util::NodeId node, util::VlanId vlan,
                                     util::IpAddress ip, bool admin);
  void build_uniform();
  void build_oceano();
  void build_hierarchical();
  void finish_node(std::size_t index, NodeRole role, util::DomainId domain,
                   bool eligible, std::vector<util::AdapterId> adapters);
  void finish_node(std::size_t index, NodeRole role, util::DomainId domain,
                   bool eligible, std::vector<util::AdapterId> adapters,
                   const HierRole& hier);

  sim::Simulator& sim_;
  FarmSpec spec_;
  proto::Params params_;
  util::Rng rng_;

  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::SwitchConsole> console_;
  config::ConfigDb db_;

  // Buses outlive the daemons/centrals that publish into them (declared
  // first so they are destroyed last).
  proto::EventBus event_bus_;
  obs::TraceBus trace_bus_;

  // Observatory state (declared after the buses it subscribes to, before
  // the daemons whose state the sampler's provider closure reads — the
  // provider only runs from sim timers, never during destruction).
  util::StatsRegistry metrics_;
  std::unique_ptr<obs::SpanTracker> spans_;
  std::unique_ptr<obs::FarmHealthSampler> health_;

  // Every daemon's detectors take their heartbeat frames from this one
  // table (declared before the daemons, so it outlives them).
  proto::HeartbeatFrames heartbeat_frames_;

  std::vector<NodeInfo> nodes_;
  // Per-node sim-backend transports; destroyed after the daemons that
  // borrow them.
  std::vector<std::unique_ptr<net::FabricTransport>> transports_;
  std::vector<std::unique_ptr<proto::GsDaemon>> daemons_;
  std::vector<std::unique_ptr<proto::Central>> centrals_;  // sparse by node
  // Hierarchy pieces, sparse by node. Uplinks are declared after centrals_
  // so they deregister their table observer before the Central dies.
  std::vector<std::unique_ptr<proto::RootCentral>> root_centrals_;
  std::vector<std::unique_ptr<proto::DomainUplink>> uplinks_;
  std::vector<obs::Subscription> central_taps_;  // Central -> farm event bus
  std::unordered_map<util::AdapterId, std::pair<std::size_t, std::size_t>>
      adapter_owner_;  // adapter -> (node index, adapter index)

  util::SwitchId current_switch_;
};

}  // namespace gs::farm
