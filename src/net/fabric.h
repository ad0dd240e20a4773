// The simulated switched network: owns adapters, switches, segments, and
// performs datagram delivery with the per-VLAN channel model.
//
// Delivery semantics match a switched Ethernet VLAN:
//  * a datagram reaches exactly the adapters whose live switch port carries
//    the sender's VLAN (and the same partition side, if partitioned); a
//    multicast reaches only those of them in the VLAN's beacon group
//    (Adapter::in_beacon_group(), checked at send time);
//  * multicast occupies the segment once regardless of receiver count —
//    the wire-load counters reflect that, which is what makes the §4.2
//    heartbeat-load comparisons meaningful;
//  * loss is sampled i.i.d. per receiver; latency per receiver with jitter;
//  * the receiving host's processing delay (the δ of Equation 1) is drawn
//    per receiver too, so the receive handler runs at arrival + δ, in the
//    same event as the delivery;
//  * health is evaluated at send time for the sender and at delivery time
//    (arrival + δ) for the receiver, so mid-flight failures drop frames.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/adapter.h"
#include "net/datagram.h"
#include "net/nic_switch.h"
#include "net/segment.h"
#include "obs/fwd.h"
#include "sim/simulator.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"

namespace gs::net {

// Wire-load accounting for one VLAN, consumed by the scaling benches.
struct SegmentLoad {
  std::uint64_t frames_sent = 0;     // wire occupancy (multicast counts once)
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;     // channel loss, per receiver
  // A configured receiver the frame could not reach: no such IP, dead
  // receiver, dead switch, or partition. Unicast and multicast count these
  // identically, so the §4.2 load comparisons see the same denominator.
  std::uint64_t frames_unreachable = 0;
  // Deliveries that arrived with an injected byte flip (per receiver). The
  // soak invariant uses this to require that daemons only ever drop frames
  // when corruption was actually injected.
  std::uint64_t frames_corrupted = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, util::Rng rng);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- Topology construction --------------------------------------------

  util::SwitchId add_switch(std::size_t ports);
  util::AdapterId add_adapter(util::NodeId node);

  // Wires an adapter to a specific port, or to the first free port.
  void attach(util::AdapterId adapter, util::SwitchId sw, util::PortId port,
              util::VlanId vlan);
  void attach(util::AdapterId adapter, util::SwitchId sw, util::VlanId vlan);

  // Channel model applied to VLANs seen for the first time.
  void set_default_channel(const ChannelModel& model) {
    default_channel_ = model;
  }

  // Mean of the receiving host's processing delay δ, an exponential draw
  // per delivered frame from the VLAN segment's stream. Zero (the default)
  // draws nothing and delivers at the arrival time.
  void set_processing_delay(sim::SimDuration mean) {
    processing_delay_mean_ = mean;
  }

  // Assigns/changes an adapter's IP, keeping the unicast lookup index
  // coherent. All IP configuration must go through here.
  void set_adapter_ip(util::AdapterId id, util::IpAddress ip);

  // --- Accessors ----------------------------------------------------------

  [[nodiscard]] Adapter& adapter(util::AdapterId id);
  [[nodiscard]] const Adapter& adapter(util::AdapterId id) const;
  // Read-only: wiring and switch state change only through Fabric's own
  // methods, which keep the stored VLANs and the member index current.
  [[nodiscard]] const Switch& nic_switch(util::SwitchId id) const;
  [[nodiscard]] Segment& segment(util::VlanId vlan);

  [[nodiscard]] std::size_t adapter_count() const { return adapters_.size(); }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::vector<util::AdapterId> all_adapters() const;
  [[nodiscard]] std::vector<util::SwitchId> all_switches() const;
  [[nodiscard]] std::vector<util::AdapterId> node_adapters(
      util::NodeId node) const;

  // The VLAN an adapter currently lives on; invalid if its switch is dead or
  // it is unwired. One load: the value is stored when wiring changes.
  [[nodiscard]] util::VlanId vlan_of(util::AdapterId id) const;

  // Ground truth for tests/verification: adapters wired into `vlan` through
  // a live switch (health ignored — wiring, not liveness).
  [[nodiscard]] std::vector<util::AdapterId> adapters_in_vlan(
      util::VlanId vlan) const;

  // Adapters whose port is configured into `vlan`, ascending id, switch
  // health ignored. This is the index multicast iterates, maintained
  // incrementally by attach()/set_port_vlan() — O(members), not O(farm).
  // Port→VLAN wiring must only be mutated through Fabric for the index to
  // stay coherent (see vlan_index_consistent()).
  [[nodiscard]] const std::vector<util::AdapterId>& vlan_members(
      util::VlanId vlan) const;

  // Recomputes wired membership and every adapter's VLAN from the switch
  // tables and compares them with the incremental index and the stored
  // VLANs; tests call this after topology churn.
  [[nodiscard]] bool vlan_index_consistent() const;

  // Could a frame from `from` reach `to` right now (wiring, partitions,
  // health all considered)?
  [[nodiscard]] bool reachable(util::AdapterId from, util::AdapterId to) const;

  // Resolves an IP on a VLAN. Duplicate IPs are a misconfiguration the
  // verifier must be able to express; the winner is deterministic — the
  // lowest AdapterId holding the address on that VLAN — so misconfigured
  // soak schedules replay identically.
  [[nodiscard]] std::optional<util::AdapterId> find_by_ip(
      util::VlanId vlan, util::IpAddress ip) const;

  // --- Traffic ------------------------------------------------------------

  // Unicast to dst on the sender's VLAN. Returns false if the frame never
  // left the adapter (sender dead/unwired); in-flight loss still returns
  // true, as a real sender cannot observe it.
  bool send(util::AdapterId from, util::IpAddress dst, Payload payload);
  bool send(util::AdapterId from, util::IpAddress dst,
            std::vector<std::uint8_t> bytes) {
    return send(from, dst, make_payload(std::move(bytes)));
  }

  // Multicast to every other adapter on the sender's VLAN that is in the
  // beacon group. One that left is skipped before any draw or counter.
  bool multicast(util::AdapterId from, util::IpAddress group, Payload payload);
  bool multicast(util::AdapterId from, util::IpAddress group,
                 std::vector<std::uint8_t> bytes) {
    return multicast(from, group, make_payload(std::move(bytes)));
  }

  // --- Fault injection ----------------------------------------------------

  void set_adapter_health(util::AdapterId id, HealthState health);
  void fail_node(util::NodeId node);
  void recover_node(util::NodeId node);
  void fail_switch(util::SwitchId id);
  void recover_switch(util::SwitchId id);
  void partition_vlan(util::VlanId vlan,
                      const std::vector<std::vector<util::AdapterId>>& parts);
  void heal_vlan(util::VlanId vlan);

  // --- Reconfiguration (the switch-console path) ---------------------------

  void set_port_vlan(util::SwitchId sw, util::PortId port, util::VlanId vlan);

  // --- Accounting -----------------------------------------------------------

  [[nodiscard]] const SegmentLoad& load(util::VlanId vlan);
  [[nodiscard]] const std::map<std::uint16_t, std::uint64_t>& frames_by_type()
      const {
    return frames_by_type_;
  }
  [[nodiscard]] std::uint64_t total_frames_sent() const {
    return total_frames_sent_;
  }
  [[nodiscard]] std::uint64_t total_bytes_sent() const {
    return total_bytes_sent_;
  }
  // Zeroes every counter in place: VLANs stay present (so load sampling
  // keeps publishing for quiet VLANs) and load() references stay valid.
  void reset_load_accounting();

  // --- Telemetry -----------------------------------------------------------

  // Points wire-load sampling at a trace bus (non-owning; null disables).
  void set_trace(obs::TraceBus* bus) { trace_ = bus; }

  // Publishes one kWireSample record per VLAN every `period` of simulated
  // time, for as long as the simulation keeps running.
  void enable_load_sampling(sim::SimDuration period);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  [[nodiscard]] Switch& mutable_switch(util::SwitchId id);
  void set_switch_failed(util::SwitchId id, bool failed);

  // One in-flight frame, parked once per send/multicast in a recycled pool
  // and shared by every receiver still due to get it. The per-receiver sim
  // event captures only {this, slot, to} — 16 bytes, inside std::function's
  // inline buffer — so fan-out costs no heap allocation and no per-receiver
  // datagram copy. `remaining` counts scheduled deliveries; the slot is
  // recycled when it reaches zero.
  struct PendingFrame {
    Datagram dgram;
    // The frame's VLAN accounting row, resolved once at park time: vlans_
    // nodes are stable (reset zeroes in place, never erases), so deliveries
    // skip the per-receiver map lookup.
    SegmentLoad* load = nullptr;
    std::uint32_t remaining = 0;
  };

  // Parks a frame and returns its pool slot (remaining == 0; callers bump it
  // per scheduled delivery and must release the slot if it stays zero).
  std::uint32_t park_frame(Datagram dgram, SegmentLoad& load);
  void release_frame(std::uint32_t slot);
  void complete_delivery(std::uint32_t slot, util::AdapterId to);
  // Parks a fresh, independently allocated copy of `slot`'s datagram with
  // one byte flipped. The corrupted receiver must never share (or poison)
  // the clean payload's decode cache, so the bytes are duplicated here.
  [[nodiscard]] std::uint32_t park_corrupted(std::uint32_t slot, Segment& seg);
  [[nodiscard]] std::uint16_t peek_frame_type(
      std::span<const std::uint8_t> bytes) const;
  void sample_loads();
  void index_add(util::VlanId vlan, util::AdapterId id);
  void index_remove(util::VlanId vlan, util::AdapterId id);

  // Everything the fabric keeps per VLAN, in one record so the traffic
  // paths resolve a frame's VLAN with a single map walk. The parts
  // materialize lazily and independently: the segment on first use (it
  // snapshots default_channel_ then), the load row on first traffic or
  // load() call, and sample_loads() publishes only VLANs that have one.
  struct VlanState {
    std::optional<Segment> segment;
    // Adapters wired into the VLAN (port configuration, not liveness), kept
    // sorted by id so multicast delivery order matches the old whole-farm
    // scan and seed traces stay bit-identical.
    std::vector<util::AdapterId> members;
    SegmentLoad load;
    bool has_load = false;
  };
  Segment& segment_of(util::VlanId vlan, VlanState& state);
  // Counts one frame onto the VLAN's wire (per VLAN, in total and per
  // frame type) and returns the VLAN's load row.
  SegmentLoad& account_sent(VlanState& state, const Payload& payload);
  static SegmentLoad& load_of(VlanState& state) {
    state.has_load = true;
    return state.load;
  }

  // Per-adapter routing record, indexed by AdapterId. Half a cache line and
  // aligned to it, so a send reads its sender's record from one line.
  struct alignas(32) Wiring {
    // What vlan_of() returns: the port's VLAN while the switch is up.
    util::VlanId vlan;
    // The memo below is valid while memo_gen == topology_gen_.
    std::uint32_t memo_gen = 0;
    // The port's VLAN record (null while unwired), kept while the switch is
    // down. vlans_ nodes never move, so the pointer stays valid.
    VlanState* state = nullptr;
    // The sender's last two unicast resolutions, most recent first. An entry
    // maps a destination's IP bits to find_by_ip()'s answer (invalid for
    // none); {0, invalid} is always true, as no adapter holds the
    // unspecified address.
    struct Resolved {
      std::uint32_t ip = 0;
      util::AdapterId to;
    };
    std::array<Resolved, 2> memo{};
  };
  static_assert(sizeof(Wiring) == 32);
  // Re-reads an adapter's record from its switch and port.
  void refresh_wiring(util::AdapterId id);
  // Anything that can change a find_by_ip() answer (IP assignment, port
  // VLAN, switch state, new wiring) calls this; it voids every memo.
  void topology_changed();
  // find_by_ip(w.vlan, dst) for sender record `w`, through its memo.
  [[nodiscard]] util::AdapterId resolve_unicast(Wiring& w, util::IpAddress dst);

  sim::Simulator& sim_;
  util::Rng rng_;
  ChannelModel default_channel_;
  sim::SimDuration processing_delay_mean_ = 0;

  // By value, one cache line each; a deque so adapter() references stay
  // valid while later adapters are added.
  std::deque<Adapter> adapters_;
  std::vector<Wiring> wiring_;  // parallel to adapters_
  std::uint32_t topology_gen_ = 1;  // memos start stale (memo_gen 0)
  std::vector<std::unique_ptr<Switch>> switches_;
  // ip bits -> adapters currently holding that ip (normally exactly one;
  // duplicates are representable because misconfiguration is a scenario
  // the verifier must be able to express).
  std::unordered_map<std::uint32_t, std::vector<util::AdapterId>> by_ip_;
  // Ordered: sample_loads() walks VLANs ascending (trace digests depend on
  // it), and nodes stay put for PendingFrame::load and Wiring::state (no
  // entry is ever erased). Keyed rather than dense because scripts may name
  // any VLAN id.
  std::map<util::VlanId, VlanState> vlans_;
  std::map<std::uint16_t, std::uint64_t> frames_by_type_;
  // Counter of each message type seen so far, pointing into
  // frames_by_type_'s stable nodes, so a send bumps its type's count
  // without a map walk. Types past the table (only malformed frames carry
  // them) take the walk. Cleared with the map.
  static constexpr std::size_t kTypeCounterSlots = 32;
  std::array<std::uint64_t*, kTypeCounterSlots> type_counters_{};
  std::uint64_t total_frames_sent_ = 0;
  std::uint64_t total_bytes_sent_ = 0;

  // Bounded by the in-flight high-water mark, not by frames ever sent. A
  // deque so parked frames keep stable addresses: delivery handlers may
  // re-enter send()/multicast() and grow the pool while a delivery still
  // reads its frame by reference.
  std::deque<PendingFrame> pending_;
  std::vector<std::uint32_t> pending_free_;

  obs::TraceBus* trace_ = nullptr;
  sim::SimDuration load_sample_period_ = 0;
  sim::Timer load_sample_timer_;
};

}  // namespace gs::net
