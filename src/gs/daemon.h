// The GulfStream daemon — one per node, hosting one AdapterProtocol per
// local network adapter (§2.1: "GulfStream runs on all nodes within the
// server farm as a user level daemon").
//
// Besides hosting the protocols, the daemon implements the node-level glue:
//  * the start-up skew, one part of the δ of Equation 1 (the other part,
//    the per-message processing delay, belongs to the host: the simulated
//    fabric adds it to each delivery, and a real host supplies its own),
//  * frame reception: CRC/envelope validation, then routing — membership
//    reports to the locally hosted Central, report acks to the hosted
//    leader they belong to, everything else to the adapter's protocol,
//  * the administrative-adapter convention (§2.2): adapter 0 is the admin
//    adapter; the leader of its AMG is GulfStream Central, so this daemon
//    activates/deactivates its Central instance as that leadership changes,
//  * reliable report delivery: leaders' MembershipReports are sent via the
//    admin adapter to the current GSC, retried until acked, rebuilt as
//    full snapshots when GSC changes or asks (need_full).
//
// The daemon sees the outside world only through two seams: a TimeSource
// (virtual simulator time or a wall clock) and a Transport (the simulated
// fabric or real UDP sockets). It does not know which backend it runs on.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gs/adapter_protocol.h"
#include "gs/central.h"
#include "gs/central_hier.h"
#include "gs/params.h"
#include "net/transport.h"
#include "sim/time_source.h"
#include "util/ids.h"
#include "util/rng.h"
#include "wire/buffer.h"

namespace gs::proto {

// Per-daemon codec accounting: frames decoded per message type and frames
// dropped per reason. Counted per receiver — a multicast decoded from the
// shared cache still counts once per daemon that consumed it — so the
// observatory sees delivery volume, not cache hit rate.
struct WireStats {
  // Indexed by MsgType value (1..20); slot 0 unused.
  static constexpr std::size_t kTypeSlots = 21;

  enum class Drop : std::uint8_t {
    // Envelope rejections, mirroring wire::FrameError's nonzero values.
    kTooShort = 0,
    kBadMagic,
    kBadVersion,
    kLengthMismatch,
    kBadChecksum,
    // The envelope verified but the typed payload decoder rejected it.
    kDecode,
    // The envelope verified but the type is not a known MsgType.
    kUnknownType,
    kCount_,
  };
  static constexpr std::size_t kDropSlots =
      static_cast<std::size_t>(Drop::kCount_);

  std::array<std::uint64_t, kTypeSlots> decoded{};
  std::array<std::uint64_t, kDropSlots> dropped{};

  [[nodiscard]] std::uint64_t total_decoded() const {
    std::uint64_t sum = 0;
    for (const auto v : decoded) sum += v;
    return sum;
  }
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t sum = 0;
    for (const auto v : dropped) sum += v;
    return sum;
  }
};

[[nodiscard]] std::string_view to_string(WireStats::Drop reason);

// What every frame the daemon handles reads. A received one, in
// dispatch(): the halted check, the protocol table, and the clock and
// params the handlers' trace records read. A sent one: the transport.
// GsDaemon inherits it first, so it opens the object, all of it in the
// first 64 bytes. Not over-aligned, like AdapterProtocolHot and for the
// same reason.
struct GsDaemonHot {
  GsDaemonHot(sim::TimeSource& sim, const Params& params,
              net::Transport& transport)
      : sim_(sim), params_(params), transport_(transport) {}

  sim::TimeSource& sim_;
  const Params& params_;
  bool halted_ = false;
  std::vector<std::unique_ptr<AdapterProtocol>> protocols_;
  net::Transport& transport_;
};
// One line's worth: a later member must not push the table or the
// transport out.
static_assert(sizeof(GsDaemonHot) <= 64);

class GsDaemon : private GsDaemonHot {
 public:
  struct NodeConfig {
    util::NodeId node;
    std::string name;
    bool central_eligible = false;
    // "In the prototype we have developed, this is done by convention
    // (adapter 0)" (§2.2).
    std::size_t admin_adapter_index = 0;
  };

  // The single wiring struct: everything a daemon touches comes in here.
  // clock/transport/params are borrowed and must outlive the daemon; the
  // daemon hosts one protocol per transport port.
  struct Options {
    sim::TimeSource* clock = nullptr;    // required
    net::Transport* transport = nullptr;  // required
    const Params* params = nullptr;       // required
    NodeConfig node;
    util::Rng rng;
    // Hosted Central instance (optional; only meaningful for
    // central-eligible nodes — it activates when the admin adapter leads).
    Central* central = nullptr;
    // Hosted root Central (two-level hierarchy, central_hier.h). Activates
    // alongside `central` when the admin adapter leads: root-tier nodes'
    // admin adapter is on the root VLAN, so winning that AMG makes this
    // node both its tier's GSC and the root GSC.
    RootCentral* root_central = nullptr;
    // Which adapter (if any) faces the root VLAN. Domain-tier GSC nodes set
    // this to their second adapter: the DomainUplink sends its digests and
    // receives acks through it, and that adapter's AMG leader is the root.
    std::optional<std::size_t> uplink_adapter_index;
    // The deployment's heartbeat frame table, shared by every daemon of a
    // farm (borrowed; must outlive the daemon). Required.
    HeartbeatFrames* heartbeat_frames = nullptr;
  };

  explicit GsDaemon(Options opts);

  GsDaemon(const GsDaemon&) = delete;
  GsDaemon& operator=(const GsDaemon&) = delete;

  // Cancels every daemon-held timer — the start skew and the report
  // timers — and unhooks the transport's receive handlers, so a daemon
  // destroyed with timers or frames in flight never runs into freed
  // memory or a dead transport.
  ~GsDaemon();

  // Begins operation after the modelled start-up skew.
  void start();

  // Models the node dying / rebooting: halt() silences every hosted
  // protocol and deactivates a hosted Central; resume() re-enters discovery
  // ("the GulfStream daemon is started on each machine when it boots").
  void halt();
  void resume();
  [[nodiscard]] bool halted() const { return halted_; }

  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] std::size_t adapter_count() const { return protocols_.size(); }
  [[nodiscard]] AdapterProtocol& protocol(std::size_t index);
  [[nodiscard]] const AdapterProtocol& protocol(std::size_t index) const;
  [[nodiscard]] AdapterProtocol& admin_protocol() {
    return protocol(config_.admin_adapter_index);
  }

  // The admin-AMG leader's IP = where reports go (invalid if uncommitted).
  [[nodiscard]] util::IpAddress gsc_ip() const;
  [[nodiscard]] Central* central() { return central_; }
  [[nodiscard]] RootCentral* root_central() { return root_central_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }

  // --- Hierarchy wiring (farm assembly) ------------------------------------
  // The DomainUplink is created after the daemon (it needs the hosted
  // Central plus send/root-ip closures that call back into the daemon), so
  // it is attached here rather than via Options.
  void set_uplink(DomainUplink* uplink) { uplink_ = uplink; }
  // DomainUplink::Iface::send — ships a digest to the root GSC via the
  // uplink adapter (delivered locally when this node *is* the root).
  void send_domain_report(const DomainReport& rep);
  // DomainUplink::Iface::root_ip — the uplink adapter's AMG leader, i.e.
  // the root GSC (unspecified while uncommitted or without an uplink).
  [[nodiscard]] util::IpAddress uplink_root_ip() const;

  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_;
  }
  [[nodiscard]] std::uint64_t reports_sent() const { return reports_sent_; }
  [[nodiscard]] const WireStats& wire_stats() const { return wire_stats_; }

 private:
  struct OutstandingReport {
    std::uint64_t seq = 0;
    MembershipReport report;
    net::Payload frame;  // encoded once; retries share the same bytes
  };

  void on_started();
  void dispatch(std::size_t index, const net::Datagram& dgram);
  void handle_report_frame(util::IpAddress src, const MembershipReport& rep);
  void handle_report_ack(const ReportAck& ack);
  void report_pending(std::size_t index);
  void try_send_report(std::size_t index);
  void arm_report_retry();
  void report_retry_tick();
  void arm_report_refresh();
  void report_refresh_tick();
  void on_admin_committed(const MembershipView& view);
  void on_uplink_committed(const MembershipView& view);
  void handle_domain_report_frame(std::size_t index, util::IpAddress src,
                                  const DomainReport& rep);
  [[nodiscard]] util::IpAddress admin_ip() const {
    return transport_.local_ip(config_.admin_adapter_index);
  }

  NodeConfig config_;
  Central* central_ = nullptr;
  RootCentral* root_central_ = nullptr;
  DomainUplink* uplink_ = nullptr;
  std::optional<std::size_t> uplink_index_;

  HeartbeatFrames& heartbeat_frames_;

  // Draws the start skew and seeds each hosted protocol's stream.
  util::Rng rng_;
  // The start skew's timer; cancelled on destruction.
  sim::Timer start_timer_;

  util::IpAddress last_gsc_;
  util::IpAddress last_root_;
  std::vector<std::optional<OutstandingReport>> outstanding_;
  sim::Timer report_retry_timer_;
  sim::Timer report_refresh_timer_;
  bool started_ = false;

  std::uint64_t frames_dropped_ = 0;
  std::uint64_t reports_sent_ = 0;
  WireStats wire_stats_;
  // Scratch buffer for the daemon's own frames (report acks, reports);
  // reused across messages so steady-state encodes do not allocate.
  wire::Writer scratch_;
};

}  // namespace gs::proto
