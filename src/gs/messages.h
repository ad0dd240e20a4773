// GulfStream protocol messages and their wire codecs.
//
// Each message is a plain struct carrying its MsgType (kType) and its field
// list (kFields: member pointers in wire order). One encoder and one decoder
// template derive every codec from those lists, so a message's layout is
// written exactly once; see "Codecs" below. Decoders are total: they reject
// any malformed input (Reader's sticky error + full-consumption check)
// rather than hand back a partial struct.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "net/payload.h"
#include "util/ids.h"
#include "util/ip.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace gs::proto {

enum class MsgType : std::uint16_t {
  kBeacon = 1,
  kJoinRequest = 2,
  kPrepare = 3,
  kPrepareAck = 4,
  kCommit = 5,
  kHeartbeat = 6,
  kSuspect = 7,
  kSuspectAck = 8,
  kProbe = 9,
  kProbeAck = 10,
  kStaleNotice = 11,
  kMembershipReport = 12,
  kReportAck = 13,
  kPing = 14,
  kPingAck = 15,
  kPingReq = 16,
  kSubgroupPoll = 17,
  kSubgroupPollAck = 18,
  kDomainReport = 19,
  kDomainReportAck = 20,
};

[[nodiscard]] std::string_view to_string(MsgType type);

// Identity of one adapter as carried in beacons, membership lists, and
// reports. `node` lets GSC correlate adapter failures into node failures.
struct MemberInfo {
  util::IpAddress ip;
  util::MacAddress mac;
  util::NodeId node;
  bool central_eligible = false;  // §2.2: flag on administrative beacons

  bool operator==(const MemberInfo&) const = default;

  static constexpr auto kFields =
      std::tuple{&MemberInfo::ip, &MemberInfo::mac, &MemberInfo::node,
                 &MemberInfo::central_eligible};
};

// MemberInfo's field codec on its own.
void encode_member(wire::Writer& w, const MemberInfo& m);
[[nodiscard]] MemberInfo decode_member(wire::Reader& r);

// An immutable member list that copies share. A Prepare or Commit decoded
// once per payload hands the same list to every receiver, and the
// MembershipView each receiver builds from it keeps that list rather than
// a copy. Whether the list is in rank order (strictly descending IP, so
// no duplicates) is worked out once, when the list is built.
class MemberList {
 public:
  using const_iterator = std::vector<MemberInfo>::const_iterator;

  MemberList() = default;
  MemberList(std::vector<MemberInfo> members);  // NOLINT: implicit
  MemberList(std::initializer_list<MemberInfo> members)
      : MemberList(std::vector<MemberInfo>(members)) {}

  [[nodiscard]] const std::vector<MemberInfo>& items() const {
    return list_ ? *list_ : no_members();
  }
  [[nodiscard]] std::size_t size() const { return items().size(); }
  [[nodiscard]] bool empty() const { return items().empty(); }
  [[nodiscard]] const_iterator begin() const { return items().begin(); }
  [[nodiscard]] const_iterator end() const { return items().end(); }
  [[nodiscard]] const MemberInfo& operator[](std::size_t i) const {
    return items()[i];
  }
  [[nodiscard]] bool in_rank_order() const { return in_rank_order_; }

  // Same members in the same order; shared storage is only a shortcut.
  bool operator==(const MemberList& other) const {
    return list_ == other.list_ || items() == other.items();
  }

 private:
  static const std::vector<MemberInfo>& no_members();

  std::shared_ptr<const std::vector<MemberInfo>> list_;
  bool in_rank_order_ = true;  // the empty list is trivially in order
};

// ---------------------------------------------------------------------------

// Multicast on the well-known group during discovery, and forever by
// committed AMG leaders (§2.1).
struct Beacon {
  static constexpr MsgType kType = MsgType::kBeacon;
  MemberInfo self;
  bool is_leader = false;
  std::uint64_t view = 0;       // committed view, 0 while uncommitted
  std::uint32_t group_size = 0; // committed group size (leaders only)

  static constexpr auto kFields =
      std::tuple{&Beacon::self, &Beacon::is_leader, &Beacon::view,
                 &Beacon::group_size};
};

// A (lower-IP) leader asks a higher-IP leader to absorb its membership.
struct JoinRequest {
  static constexpr MsgType kType = MsgType::kJoinRequest;
  std::uint64_t view = 0;  // requester's committed view (for view clocks)
  std::vector<MemberInfo> members;

  static constexpr auto kFields =
      std::tuple{&JoinRequest::view, &JoinRequest::members};
};

// 2PC phase one: the proposed membership, in rank order (index 0 = leader,
// descending IP). The explicit order doubles as the heartbeat ring order
// and the leader-succession order (§2.1, §3).
struct Prepare {
  static constexpr MsgType kType = MsgType::kPrepare;
  std::uint64_t view = 0;
  util::IpAddress leader;
  MemberList members;

  static constexpr auto kFields =
      std::tuple{&Prepare::view, &Prepare::leader, &Prepare::members};
};

struct PrepareAck {
  static constexpr MsgType kType = MsgType::kPrepareAck;
  std::uint64_t view = 0;
  bool ok = true;
  std::uint64_t holder_view = 0;  // on nack: the view the holder is bound to

  static constexpr auto kFields =
      std::tuple{&PrepareAck::view, &PrepareAck::ok, &PrepareAck::holder_view};
};

// 2PC phase two. Carries the FINAL membership: participants that never
// acknowledged the Prepare (lost, dead, or moved away) are excluded, so the
// committed view contains only members known to hold the prepared state.
// This is what lets formation terminate in one round under loss without
// ever committing phantom members.
struct Commit {
  static constexpr MsgType kType = MsgType::kCommit;
  std::uint64_t view = 0;
  MemberList members;  // rank order, like Prepare

  static constexpr auto kFields = std::tuple{&Commit::view, &Commit::members};
};

// Ring heartbeat (§3, Figure 4): the sender's committed view and nothing
// else. A detector frames it once per view and resends those bytes every
// period, so it must carry nothing that changes from one period to the next.
struct Heartbeat {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  std::uint64_t view = 0;

  static constexpr auto kFields = std::tuple{&Heartbeat::view};
};

// Member -> leader (or -> successor when the leader itself is suspected).
struct Suspect {
  static constexpr MsgType kType = MsgType::kSuspect;
  std::uint64_t view = 0;
  util::IpAddress suspect;

  static constexpr auto kFields = std::tuple{&Suspect::view, &Suspect::suspect};
};

struct SuspectAck {
  static constexpr MsgType kType = MsgType::kSuspectAck;
  std::uint64_t view = 0;
  util::IpAddress suspect;

  static constexpr auto kFields =
      std::tuple{&SuspectAck::view, &SuspectAck::suspect};
};

struct Probe {
  static constexpr MsgType kType = MsgType::kProbe;
  std::uint64_t nonce = 0;

  static constexpr auto kFields = std::tuple{&Probe::nonce};
};

struct ProbeAck {
  static constexpr MsgType kType = MsgType::kProbeAck;
  std::uint64_t nonce = 0;
  // True iff the responder is a committed leader whose view contains the
  // prober. A takeover probe needs more than liveness: a leader that
  // restarted (and, say, joined some other group) is alive yet has silently
  // abandoned its old members, and its leadership must be treated as vacant.
  bool leads_prober = false;

  static constexpr auto kFields =
      std::tuple{&ProbeAck::nonce, &ProbeAck::leads_prober};
};

// Tells a peer its group state is obsolete (it was removed or its group was
// absorbed while it was unreachable); the member re-enters discovery.
struct StaleNotice {
  static constexpr MsgType kType = MsgType::kStaleNotice;
  std::uint64_t current_view = 0;

  static constexpr auto kFields = std::tuple{&StaleNotice::current_view};
};

enum class RemoveReason : std::uint8_t { kFailed = 0, kLeft = 1 };

struct RemovedMember {
  util::IpAddress ip;
  RemoveReason reason = RemoveReason::kFailed;

  static constexpr auto kFields =
      std::tuple{&RemovedMember::ip, &RemovedMember::reason};
};

// AMG leader -> GulfStream Central (§2.2). `full` snapshots establish the
// group; deltas carry only changes — "in the steady state, no network
// resources are used for group membership information".
struct MembershipReport {
  static constexpr MsgType kType = MsgType::kMembershipReport;
  std::uint64_t seq = 0;   // per-(leader adapter) sequence for gap detection
  std::uint64_t view = 0;
  bool full = false;
  MemberInfo leader;
  std::vector<MemberInfo> added;     // on full: entire membership
  std::vector<RemovedMember> removed;

  static constexpr auto kFields =
      std::tuple{&MembershipReport::seq, &MembershipReport::view,
                 &MembershipReport::full, &MembershipReport::leader,
                 &MembershipReport::added, &MembershipReport::removed};
};

struct ReportAck {
  static constexpr MsgType kType = MsgType::kReportAck;
  std::uint64_t seq = 0;
  util::IpAddress leader;  // which hosted AMG leader this ack is for — one
                           // node can host several leader adapters, and acks
                           // all arrive on its single administrative adapter
  bool need_full = false;  // GSC lost state (failover) or saw a seq gap

  static constexpr auto kFields =
      std::tuple{&ReportAck::seq, &ReportAck::leader, &ReportAck::need_full};
};

// Randomized-ping detector (§4.2): direct ping, ack, and indirect ping
// through a proxy. `origin` rides along so the proxy can route the ack back.
struct Ping {
  static constexpr MsgType kType = MsgType::kPing;
  std::uint64_t nonce = 0;
  util::IpAddress origin;

  static constexpr auto kFields = std::tuple{&Ping::nonce, &Ping::origin};
};

struct PingAck {
  static constexpr MsgType kType = MsgType::kPingAck;
  std::uint64_t nonce = 0;
  util::IpAddress target;  // who proved alive

  static constexpr auto kFields = std::tuple{&PingAck::nonce, &PingAck::target};
};

struct PingReq {
  static constexpr MsgType kType = MsgType::kPingReq;
  std::uint64_t nonce = 0;
  util::IpAddress origin;
  util::IpAddress target;

  static constexpr auto kFields =
      std::tuple{&PingReq::nonce, &PingReq::origin, &PingReq::target};
};

// Subgroup detector (§4.2): low-frequency leader poll of each subgroup.
struct SubgroupPoll {
  static constexpr MsgType kType = MsgType::kSubgroupPoll;
  std::uint64_t seq = 0;

  static constexpr auto kFields = std::tuple{&SubgroupPoll::seq};
};

struct SubgroupPollAck {
  static constexpr MsgType kType = MsgType::kSubgroupPollAck;
  std::uint64_t seq = 0;

  static constexpr auto kFields = std::tuple{&SubgroupPollAck::seq};
};

// --- Hierarchical Central (domain -> root) ----------------------------------

// One adapter's row in a domain Central's digest. The root derives group
// structure from the (group_leader, view) pair — member lists never cross
// the uplink, which is what keeps a DomainReport a digest rather than a
// concatenation of every leader report the domain consumed.
struct DomainAdapterEntry {
  MemberInfo info;
  bool alive = true;
  util::IpAddress group_leader;  // leader of the AMG this adapter sits in
  std::uint64_t view = 0;        // that group's committed view

  static constexpr auto kFields =
      std::tuple{&DomainAdapterEntry::info, &DomainAdapterEntry::alive,
                 &DomainAdapterEntry::group_leader, &DomainAdapterEntry::view};
};

// Domain Central -> root GSC (two-level hierarchy). Batched: one frame
// carries every adapter that changed since the last flush (delta) or the
// domain's whole table (full). `epoch` counts domain-Central activations so
// the root can tell a restarted domain Central (stale seq space) from a
// seq gap within one incarnation.
struct DomainReport {
  static constexpr MsgType kType = MsgType::kDomainReport;
  std::uint64_t seq = 0;    // per-(uplink incarnation) sequence
  std::uint64_t epoch = 0;  // domain-Central activation counter
  std::uint32_t domain = 0;
  bool full = false;
  util::IpAddress sender;  // the uplink adapter's IP (ack routing)
  std::vector<DomainAdapterEntry> entries;   // changed (delta) or all (full)
  std::vector<util::IpAddress> removed;      // adapters retired outright

  static constexpr auto kFields =
      std::tuple{&DomainReport::seq, &DomainReport::epoch,
                 &DomainReport::domain, &DomainReport::full,
                 &DomainReport::sender, &DomainReport::entries,
                 &DomainReport::removed};
};

struct DomainReportAck {
  static constexpr MsgType kType = MsgType::kDomainReportAck;
  std::uint64_t seq = 0;
  std::uint32_t domain = 0;
  bool need_full = false;  // root lost state (failover) or saw a seq gap

  static constexpr auto kFields =
      std::tuple{&DomainReportAck::seq, &DomainReportAck::domain,
                 &DomainReportAck::need_full};
};

// Every message, in MsgType order. It drives the codec instantiations in
// messages.cc and the tests that run over every message.
template <typename... Ts>
struct TypeList {
  template <typename T>
  static constexpr bool contains = (std::is_same_v<T, Ts> || ...);
};

using WireMessages =
    TypeList<Beacon, JoinRequest, Prepare, PrepareAck, Commit, Heartbeat,
             Suspect, SuspectAck, Probe, ProbeAck, StaleNotice,
             MembershipReport, ReportAck, Ping, PingAck, PingReq, SubgroupPoll,
             SubgroupPollAck, DomainReport, DomainReportAck>;

template <typename T>
concept WireMessage = WireMessages::contains<T>;

// --- Codecs ----------------------------------------------------------------
//
// A message's wire layout is its kFields, in order. Each field type has one
// codec in messages.cc: integers and bools little-endian at their own width,
// IpAddress and NodeId as u32, MacAddress as u64, RemoveReason as u8 (any
// other value fails the decode), vectors and MemberList as a u32 count then
// the elements, and MemberInfo, RemovedMember and DomainAdapterEntry through
// their own kFields.
//
// Two templates derive every payload codec, instantiated in messages.cc for
// each type in WireMessages:
//   encode_into(Writer&, msg)  — append the payload to a (scratch) Writer
//   decode_typed(span, T*)     — decode in place, false on malformed input
// They are what the hot paths use: the encode side reuses a per-daemon
// scratch buffer, the decode side fills the shared per-payload cache.
// encode(msg) and decode<T>(span) are the allocating conveniences.
//
// Adding a message takes one struct with kType and kFields, one MsgType
// value (and its to_string name), and one entry in WireMessages.

template <WireMessage T>
void encode_into(wire::Writer& w, const T& msg);

template <WireMessage T>
[[nodiscard]] bool decode_typed(std::span<const std::uint8_t> payload, T* out);

template <WireMessage T>
[[nodiscard]] std::vector<std::uint8_t> encode(const T& msg) {
  wire::Writer w;
  encode_into(w, msg);
  return w.take();
}

template <WireMessage T>
[[nodiscard]] std::optional<T> decode(std::span<const std::uint8_t> payload) {
  T msg;
  if (!decode_typed(payload, &msg)) return std::nullopt;
  return msg;
}

// Allocation-free framing: rewinds `scratch`, emits header + payload, and
// returns a view of the finished frame (valid until the next use of
// `scratch`).
template <WireMessage T>
[[nodiscard]] std::span<const std::uint8_t> build_frame(wire::Writer& scratch,
                                                        const T& msg) {
  wire::begin_frame(scratch, static_cast<std::uint16_t>(T::kType));
  encode_into(scratch, msg);
  return wire::finish_frame(scratch);
}

// A complete frame (header + payload) in its own buffer.
template <WireMessage T>
[[nodiscard]] std::vector<std::uint8_t> to_frame(const T& msg) {
  wire::Writer w;
  (void)build_frame(w, msg);
  return w.take();
}

// A verified frame's payload plus (optionally) the refcounted Payload that
// owns the bytes. get<T>() is the decode-once read path: when the owner is
// known and caching is on, the first receiver decodes into the payload's
// shared slot and every later receiver — of any daemon — reads the cached
// struct; otherwise it decodes into the caller's scratch optional. Either
// way the returned pointer is valid for the current handler invocation only.
class FrameRef {
 public:
  // Implicit on purpose: handlers and tests pass raw payload spans/vectors
  // where a FrameRef is expected (no caching without an owner).
  FrameRef(std::span<const std::uint8_t> payload)  // NOLINT
      : payload_(payload) {}
  FrameRef(const std::vector<std::uint8_t>& payload)  // NOLINT
      : payload_(payload) {}
  FrameRef(std::span<const std::uint8_t> payload, const net::Payload* owner)
      : payload_(payload), owner_(owner) {}

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return payload_;
  }

  template <typename T>
  [[nodiscard]] const T* get(std::optional<T>& scratch) const {
    const auto tag = static_cast<std::uint16_t>(T::kType);
    if (owner_ != nullptr && net::Payload::cache_enabled()) {
      net::DecodeSlot* slot = owner_->decode_slot();
      if (slot != nullptr) {
        switch (slot->state()) {
          case net::DecodeSlot::State::kEmpty:
            return slot->fill<T>(tag, [this](T* out) {
              return decode_typed(payload_, out);
            });
          case net::DecodeSlot::State::kDecoded:
            if (slot->tag() == tag) return slot->value<T>();
            break;  // cached as another type: decode privately below
          case net::DecodeSlot::State::kFailed:
            if (slot->tag() == tag) return nullptr;
            break;
        }
      }
    }
    scratch.emplace();
    if (!decode_typed(payload_, &*scratch)) {
      scratch.reset();
      return nullptr;
    }
    return &*scratch;
  }

 private:
  std::span<const std::uint8_t> payload_;
  const net::Payload* owner_ = nullptr;
};

}  // namespace gs::proto
