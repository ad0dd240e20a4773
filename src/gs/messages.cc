#include "gs/messages.h"

#include <algorithm>
#include <tuple>
#include <utility>

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

template <typename T>
concept Described = requires { T::kFields; };

// One codec per field type; every message and element type is written and
// read through these, so each layout rule exists once.
struct Field {
  static void put(wire::Writer& w, bool v) { w.boolean(v); }
  static void get(wire::Reader& r, bool& v) { v = r.boolean(); }

  static void put(wire::Writer& w, std::uint32_t v) { w.u32(v); }
  static void get(wire::Reader& r, std::uint32_t& v) { v = r.u32(); }

  static void put(wire::Writer& w, std::uint64_t v) { w.u64(v); }
  static void get(wire::Reader& r, std::uint64_t& v) { v = r.u64(); }

  static void put(wire::Writer& w, util::IpAddress v) { w.u32(v.bits()); }
  static void get(wire::Reader& r, util::IpAddress& v) {
    v = util::IpAddress(r.u32());
  }

  static void put(wire::Writer& w, util::MacAddress v) { w.u64(v.bits()); }
  static void get(wire::Reader& r, util::MacAddress& v) {
    v = util::MacAddress(r.u64());
  }

  static void put(wire::Writer& w, util::NodeId v) { w.u32(v.value()); }
  static void get(wire::Reader& r, util::NodeId& v) {
    v = util::NodeId(r.u32());
  }

  static void put(wire::Writer& w, RemoveReason v) {
    w.u8(static_cast<std::uint8_t>(v));
  }
  static void get(wire::Reader& r, RemoveReason& v) {
    v = static_cast<RemoveReason>(r.u8());
    if (v != RemoveReason::kFailed && v != RemoveReason::kLeft) r.fail();
  }

  template <typename T>
  static void put(wire::Writer& w, const std::vector<T>& items) {
    w.vec(items, [](wire::Writer& ww, const T& item) { put(ww, item); });
  }
  template <typename T>
  static void get(wire::Reader& r, std::vector<T>& items) {
    items = r.vec<T>([](wire::Reader& rr) {
      T item;
      get(rr, item);
      return item;
    });
  }

  static void put(wire::Writer& w, const MemberList& v) { put(w, v.items()); }
  static void get(wire::Reader& r, MemberList& v) {
    std::vector<MemberInfo> items;
    get(r, items);
    v = MemberList(std::move(items));
  }

  template <Described T>
  static void put(wire::Writer& w, const T& v) {
    std::apply([&](auto... field) { (put(w, v.*field), ...); }, T::kFields);
  }
  template <Described T>
  static void get(wire::Reader& r, T& v) {
    std::apply([&](auto... field) { (get(r, v.*field), ...); }, T::kFields);
  }
};

}  // namespace

void encode_member(wire::Writer& w, const MemberInfo& m) { Field::put(w, m); }

MemberInfo decode_member(wire::Reader& r) {
  MemberInfo m;
  Field::get(r, m);
  return m;
}

template <WireMessage T>
void encode_into(wire::Writer& w, const T& msg) {
  Field::put(w, msg);
}

template <WireMessage T>
bool decode_typed(std::span<const std::uint8_t> payload, T* out) {
  wire::Reader r(payload);
  Field::get(r, *out);
  return r.finish();
}

// messages.h only declares encode_into and decode_typed, so their code must
// be emitted here. Explicitly instantiating codec_table for WireMessages
// takes the address of both codecs of every message, which instantiates
// them in this file.
template <typename... Ts>
auto codec_table(TypeList<Ts...>) {
  return std::tuple{std::pair{&encode_into<Ts>, &decode_typed<Ts>}...};
}
template auto codec_table(WireMessages);

}  // namespace gs::proto
