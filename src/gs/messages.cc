#include "gs/messages.h"

#include <algorithm>

namespace gs::proto {

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kBeacon: return "beacon";
    case MsgType::kJoinRequest: return "join-request";
    case MsgType::kPrepare: return "prepare";
    case MsgType::kPrepareAck: return "prepare-ack";
    case MsgType::kCommit: return "commit";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kSuspect: return "suspect";
    case MsgType::kSuspectAck: return "suspect-ack";
    case MsgType::kProbe: return "probe";
    case MsgType::kProbeAck: return "probe-ack";
    case MsgType::kStaleNotice: return "stale-notice";
    case MsgType::kMembershipReport: return "membership-report";
    case MsgType::kReportAck: return "report-ack";
    case MsgType::kPing: return "ping";
    case MsgType::kPingAck: return "ping-ack";
    case MsgType::kPingReq: return "ping-req";
    case MsgType::kSubgroupPoll: return "subgroup-poll";
    case MsgType::kSubgroupPollAck: return "subgroup-poll-ack";
    case MsgType::kDomainReport: return "domain-report";
    case MsgType::kDomainReportAck: return "domain-report-ack";
  }
  return "?";
}

void encode_member(wire::Writer& w, const MemberInfo& m) {
  w.u32(m.ip.bits());
  w.u64(m.mac.bits());
  w.u32(m.node.value());
  w.boolean(m.central_eligible);
}

MemberInfo decode_member(wire::Reader& r) {
  MemberInfo m;
  m.ip = util::IpAddress(r.u32());
  m.mac = util::MacAddress(r.u64());
  m.node = util::NodeId(r.u32());
  m.central_eligible = r.boolean();
  return m;
}

MemberList::MemberList(std::vector<MemberInfo> members) {
  const auto out_of_order = [](const MemberInfo& a, const MemberInfo& b) {
    return a.ip <= b.ip;
  };
  in_rank_order_ = std::adjacent_find(members.begin(), members.end(),
                                      out_of_order) == members.end();
  list_ = std::make_shared<const std::vector<MemberInfo>>(std::move(members));
}

const std::vector<MemberInfo>& MemberList::no_members() {
  static const std::vector<MemberInfo> none;
  return none;
}

namespace {

void encode_members(wire::Writer& w, const std::vector<MemberInfo>& members) {
  w.vec(members, [](wire::Writer& ww, const MemberInfo& m) {
    encode_member(ww, m);
  });
}

std::vector<MemberInfo> decode_members(wire::Reader& r) {
  return r.vec<MemberInfo>([](wire::Reader& rr) { return decode_member(rr); });
}

}  // namespace

// The allocation-returning encode() and optional-returning decode_T() are
// thin shims over the in-place pair (encode_into / decode_typed) that the
// hot paths — scratch-Writer framing and the shared decode cache — use.
#define GS_DEFINE_CODEC_SHIMS(T)                                       \
  std::vector<std::uint8_t> encode(const T& msg) {                     \
    wire::Writer w;                                                    \
    encode_into(w, msg);                                               \
    return w.take();                                                   \
  }                                                                    \
  std::optional<T> decode_##T(std::span<const std::uint8_t> payload) { \
    T msg;                                                             \
    if (!decode_typed(payload, &msg)) return std::nullopt;             \
    return msg;                                                        \
  }

// --- Beacon -----------------------------------------------------------------

void encode_into(wire::Writer& w, const Beacon& msg) {
  encode_member(w, msg.self);
  w.boolean(msg.is_leader);
  w.u64(msg.view);
  w.u32(msg.group_size);
}

bool decode_typed(std::span<const std::uint8_t> payload, Beacon* out) {
  wire::Reader r(payload);
  out->self = decode_member(r);
  out->is_leader = r.boolean();
  out->view = r.u64();
  out->group_size = r.u32();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Beacon)

// --- JoinRequest ------------------------------------------------------------

void encode_into(wire::Writer& w, const JoinRequest& msg) {
  w.u64(msg.view);
  encode_members(w, msg.members);
}

bool decode_typed(std::span<const std::uint8_t> payload, JoinRequest* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  out->members = decode_members(r);
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(JoinRequest)

// --- Prepare ----------------------------------------------------------------

void encode_into(wire::Writer& w, const Prepare& msg) {
  w.u64(msg.view);
  w.u32(msg.leader.bits());
  encode_members(w, msg.members.items());
}

bool decode_typed(std::span<const std::uint8_t> payload, Prepare* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  out->leader = util::IpAddress(r.u32());
  out->members = decode_members(r);
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Prepare)

// --- PrepareAck -------------------------------------------------------------

void encode_into(wire::Writer& w, const PrepareAck& msg) {
  w.u64(msg.view);
  w.boolean(msg.ok);
  w.u64(msg.holder_view);
}

bool decode_typed(std::span<const std::uint8_t> payload, PrepareAck* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  out->ok = r.boolean();
  out->holder_view = r.u64();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(PrepareAck)

// --- Commit -----------------------------------------------------------------

void encode_into(wire::Writer& w, const Commit& msg) {
  w.u64(msg.view);
  encode_members(w, msg.members.items());
}

bool decode_typed(std::span<const std::uint8_t> payload, Commit* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  out->members = decode_members(r);
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Commit)

// --- Heartbeat ----------------------------------------------------------------

void encode_into(wire::Writer& w, const Heartbeat& msg) {
  w.u64(msg.view);
}

bool decode_typed(std::span<const std::uint8_t> payload, Heartbeat* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Heartbeat)

// --- Suspect / SuspectAck -----------------------------------------------------

void encode_into(wire::Writer& w, const Suspect& msg) {
  w.u64(msg.view);
  w.u32(msg.suspect.bits());
}

bool decode_typed(std::span<const std::uint8_t> payload, Suspect* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  out->suspect = util::IpAddress(r.u32());
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Suspect)

void encode_into(wire::Writer& w, const SuspectAck& msg) {
  w.u64(msg.view);
  w.u32(msg.suspect.bits());
}

bool decode_typed(std::span<const std::uint8_t> payload, SuspectAck* out) {
  wire::Reader r(payload);
  out->view = r.u64();
  out->suspect = util::IpAddress(r.u32());
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(SuspectAck)

// --- Probe / ProbeAck ---------------------------------------------------------

void encode_into(wire::Writer& w, const Probe& msg) { w.u64(msg.nonce); }

bool decode_typed(std::span<const std::uint8_t> payload, Probe* out) {
  wire::Reader r(payload);
  out->nonce = r.u64();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Probe)

void encode_into(wire::Writer& w, const ProbeAck& msg) {
  w.u64(msg.nonce);
  w.boolean(msg.leads_prober);
}

bool decode_typed(std::span<const std::uint8_t> payload, ProbeAck* out) {
  wire::Reader r(payload);
  out->nonce = r.u64();
  out->leads_prober = r.u8() != 0;
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(ProbeAck)

// --- StaleNotice ---------------------------------------------------------------

void encode_into(wire::Writer& w, const StaleNotice& msg) {
  w.u64(msg.current_view);
}

bool decode_typed(std::span<const std::uint8_t> payload, StaleNotice* out) {
  wire::Reader r(payload);
  out->current_view = r.u64();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(StaleNotice)

// --- MembershipReport / ReportAck ----------------------------------------------

void encode_into(wire::Writer& w, const MembershipReport& msg) {
  w.u64(msg.seq);
  w.u64(msg.view);
  w.boolean(msg.full);
  encode_member(w, msg.leader);
  encode_members(w, msg.added);
  w.vec(msg.removed, [](wire::Writer& ww, const RemovedMember& m) {
    ww.u32(m.ip.bits());
    ww.u8(static_cast<std::uint8_t>(m.reason));
  });
}

bool decode_typed(std::span<const std::uint8_t> payload,
                  MembershipReport* out) {
  wire::Reader r(payload);
  out->seq = r.u64();
  out->view = r.u64();
  out->full = r.boolean();
  out->leader = decode_member(r);
  out->added = decode_members(r);
  out->removed = r.vec<RemovedMember>([](wire::Reader& rr) {
    RemovedMember m;
    m.ip = util::IpAddress(rr.u32());
    m.reason = static_cast<RemoveReason>(rr.u8());
    return m;
  });
  if (!r.finish()) return false;
  for (const RemovedMember& m : out->removed)
    if (m.reason != RemoveReason::kFailed && m.reason != RemoveReason::kLeft)
      return false;
  return true;
}

GS_DEFINE_CODEC_SHIMS(MembershipReport)

void encode_into(wire::Writer& w, const ReportAck& msg) {
  w.u64(msg.seq);
  w.u32(msg.leader.bits());
  w.boolean(msg.need_full);
}

bool decode_typed(std::span<const std::uint8_t> payload, ReportAck* out) {
  wire::Reader r(payload);
  out->seq = r.u64();
  out->leader = util::IpAddress(r.u32());
  out->need_full = r.boolean();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(ReportAck)

// --- Ping family -----------------------------------------------------------------

void encode_into(wire::Writer& w, const Ping& msg) {
  w.u64(msg.nonce);
  w.u32(msg.origin.bits());
}

bool decode_typed(std::span<const std::uint8_t> payload, Ping* out) {
  wire::Reader r(payload);
  out->nonce = r.u64();
  out->origin = util::IpAddress(r.u32());
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(Ping)

void encode_into(wire::Writer& w, const PingAck& msg) {
  w.u64(msg.nonce);
  w.u32(msg.target.bits());
}

bool decode_typed(std::span<const std::uint8_t> payload, PingAck* out) {
  wire::Reader r(payload);
  out->nonce = r.u64();
  out->target = util::IpAddress(r.u32());
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(PingAck)

void encode_into(wire::Writer& w, const PingReq& msg) {
  w.u64(msg.nonce);
  w.u32(msg.origin.bits());
  w.u32(msg.target.bits());
}

bool decode_typed(std::span<const std::uint8_t> payload, PingReq* out) {
  wire::Reader r(payload);
  out->nonce = r.u64();
  out->origin = util::IpAddress(r.u32());
  out->target = util::IpAddress(r.u32());
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(PingReq)

// --- Subgroup poll ------------------------------------------------------------------

void encode_into(wire::Writer& w, const SubgroupPoll& msg) { w.u64(msg.seq); }

bool decode_typed(std::span<const std::uint8_t> payload, SubgroupPoll* out) {
  wire::Reader r(payload);
  out->seq = r.u64();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(SubgroupPoll)

void encode_into(wire::Writer& w, const SubgroupPollAck& msg) {
  w.u64(msg.seq);
}

bool decode_typed(std::span<const std::uint8_t> payload,
                  SubgroupPollAck* out) {
  wire::Reader r(payload);
  out->seq = r.u64();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(SubgroupPollAck)

// --- DomainReport / DomainReportAck ---------------------------------------------

namespace {

void encode_domain_entry(wire::Writer& w, const DomainAdapterEntry& e) {
  encode_member(w, e.info);
  w.boolean(e.alive);
  w.u32(e.group_leader.bits());
  w.u64(e.view);
}

DomainAdapterEntry decode_domain_entry(wire::Reader& r) {
  DomainAdapterEntry e;
  e.info = decode_member(r);
  e.alive = r.boolean();
  e.group_leader = util::IpAddress(r.u32());
  e.view = r.u64();
  return e;
}

}  // namespace

void encode_into(wire::Writer& w, const DomainReport& msg) {
  w.u64(msg.seq);
  w.u64(msg.epoch);
  w.u32(msg.domain);
  w.boolean(msg.full);
  w.u32(msg.sender.bits());
  w.vec(msg.entries, [](wire::Writer& ww, const DomainAdapterEntry& e) {
    encode_domain_entry(ww, e);
  });
  w.vec(msg.removed, [](wire::Writer& ww, const util::IpAddress& ip) {
    ww.u32(ip.bits());
  });
}

bool decode_typed(std::span<const std::uint8_t> payload, DomainReport* out) {
  wire::Reader r(payload);
  out->seq = r.u64();
  out->epoch = r.u64();
  out->domain = r.u32();
  out->full = r.boolean();
  out->sender = util::IpAddress(r.u32());
  out->entries = r.vec<DomainAdapterEntry>(
      [](wire::Reader& rr) { return decode_domain_entry(rr); });
  out->removed = r.vec<util::IpAddress>(
      [](wire::Reader& rr) { return util::IpAddress(rr.u32()); });
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(DomainReport)

void encode_into(wire::Writer& w, const DomainReportAck& msg) {
  w.u64(msg.seq);
  w.u32(msg.domain);
  w.boolean(msg.need_full);
}

bool decode_typed(std::span<const std::uint8_t> payload, DomainReportAck* out) {
  wire::Reader r(payload);
  out->seq = r.u64();
  out->domain = r.u32();
  out->need_full = r.boolean();
  return r.finish();
}

GS_DEFINE_CODEC_SHIMS(DomainReportAck)

#undef GS_DEFINE_CODEC_SHIMS

}  // namespace gs::proto
