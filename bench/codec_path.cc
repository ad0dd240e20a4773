// Codec hot-path micro-bench (decode-once payload cache, PR 5).
//
// Two measurements, both written to BENCH_codec_path.json:
//
//  per-message micro  for every MsgType: ns/op to encode into a warmed
//                scratch Writer (build_frame), to verify the envelope
//                (header parse + CRC32C), and to run the typed decoder.
//                This is the raw cost surface the cache amortises.
//
//  shared multicast  one sender multicasts to 64 receivers. The cached
//                path does what GsDaemon::dispatch does: every receiver
//                calls Payload::verified() and FrameRef::get() against ONE
//                shared payload, so verification and decode run once and
//                63 receivers hit the cache. The baseline replays the
//                pre-cache protocol: every receiver re-verifies the CRC
//                and re-decodes privately. The ratio is the speedup the
//                decode-once cache buys; --min_speedup turns a regression
//                of the prepare ratio into a nonzero exit, which CI treats
//                as a failure. The heartbeat row is reported, not gated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gs/messages.h"
#include "net/payload.h"
#include "util/flags.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace {

using Clock = std::chrono::steady_clock;
using gs::proto::MsgType;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

gs::proto::MemberInfo member(std::uint8_t host) {
  gs::proto::MemberInfo m;
  m.ip = gs::util::IpAddress(10, 0, 0, host);
  m.mac = gs::util::MacAddress(host);
  m.node = gs::util::NodeId(host);
  return m;
}

std::vector<gs::proto::MemberInfo> members(std::size_t n) {
  std::vector<gs::proto::MemberInfo> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(member(static_cast<std::uint8_t>(i + 1)));
  return out;
}

// Median-of-batches ns/op for `fn` run `iters` times; the median keeps a
// noisy-neighbour stall in one batch from skewing shared CI machines.
template <typename Fn>
double median_ns_per_op(std::size_t iters, const Fn& fn) {
  const std::size_t kBatches = 16;
  const std::size_t per_batch = std::max<std::size_t>(1, iters / kBatches);
  std::vector<double> rates;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) fn();
    const double dt = seconds_since(t0);
    if (dt > 0)
      rates.push_back(dt * 1e9 / static_cast<double>(per_batch));
  }
  std::sort(rates.begin(), rates.end());
  return rates.empty() ? 0.0 : rates[rates.size() / 2];
}

struct MicroRow {
  std::string type;
  std::size_t frame_bytes = 0;
  double encode_ns = 0;
  double verify_ns = 0;
  double decode_ns = 0;
};

// Sink the compiler cannot discard (C++20 deprecates volatile compound
// assignment, hence the store-of-sum form).
volatile std::uint64_t g_sink = 0;
inline void sink(std::uint64_t v) { g_sink = g_sink + v; }

template <typename T>
MicroRow micro_for(const T& msg, std::size_t iters) {
  MicroRow row;
  row.type = std::string(gs::proto::to_string(T::kType));
  gs::wire::Writer scratch;
  const std::vector<std::uint8_t> frame = gs::proto::to_frame(msg);
  row.frame_bytes = frame.size();
  row.encode_ns = median_ns_per_op(iters, [&] {
    sink(gs::proto::build_frame(scratch, msg).size());
  });
  row.verify_ns = median_ns_per_op(iters, [&] {
    sink(gs::wire::verify_frame(frame).type);
  });
  const std::span<const std::uint8_t> payload{
      frame.data() + gs::wire::kFrameHeaderSize,
      frame.size() - gs::wire::kFrameHeaderSize};
  row.decode_ns = median_ns_per_op(iters, [&] {
    T out;
    if (gs::proto::decode_typed(payload, &out)) sink(1);
  });
  return row;
}

struct ScenarioResult {
  double cached_ns_per_delivery = 0;
  double baseline_ns_per_delivery = 0;
  double speedup = 0;
};

// The 1-sender / N-receiver multicast decode scenario. Per frame, the
// cached path mirrors GsDaemon::dispatch against one shared payload; the
// baseline verifies + decodes privately per receiver.
template <typename T>
ScenarioResult run_scenario(const T& msg, std::size_t receivers,
                            std::size_t frames) {
  ScenarioResult out;
  gs::wire::Writer scratch;
  const std::size_t deliveries = receivers;

  out.cached_ns_per_delivery =
      median_ns_per_op(frames, [&] {
        const gs::net::Payload shared =
            gs::net::Payload::copy_of(gs::proto::build_frame(scratch, msg));
        for (std::size_t r = 0; r < receivers; ++r) {
          const gs::net::Payload handle = shared;  // per-receiver datagram
          const gs::wire::VerifiedFrame verified = handle.verified();
          if (!verified.ok()) continue;
          const gs::proto::FrameRef ref(handle.frame_payload(), &handle);
          std::optional<T> s;
          if (const T* decoded = ref.get<T>(s); decoded != nullptr) sink(1);
        }
      }) /
      static_cast<double>(deliveries);

  const std::vector<std::uint8_t> frame = gs::proto::to_frame(msg);
  out.baseline_ns_per_delivery =
      median_ns_per_op(frames, [&] {
        for (std::size_t r = 0; r < receivers; ++r) {
          const gs::wire::DecodeResult decoded = gs::wire::decode_frame(frame);
          if (!decoded.ok()) continue;
          T s;
          if (gs::proto::decode_typed(decoded.frame.payload, &s)) sink(1);
        }
      }) /
      static_cast<double>(deliveries);

  out.speedup = out.cached_ns_per_delivery > 0
                    ? out.baseline_ns_per_delivery / out.cached_ns_per_delivery
                    : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const bool smoke = flags.get_bool(
      "smoke", false, "quick iteration (CI codec regression gate)");
  const auto iters = static_cast<std::size_t>(flags.get_int(
      "iters", smoke ? 20000 : 200000, "per-message micro iterations"));
  const auto receivers = static_cast<std::size_t>(
      flags.get_int("receivers", 64, "multicast fan-out"));
  const auto frames = static_cast<std::size_t>(flags.get_int(
      "frames", smoke ? 2000 : 20000, "frames for the multicast scenario"));
  const double min_speedup = flags.get_double(
      "min_speedup", 3.0,
      "exit nonzero if the prepare shared-decode/per-receiver ratio falls "
      "below this");
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::bench::print_header("Codec hot path");

  // Representative instance of every message kind; group-carrying messages
  // get an 8-member view (a typical AMG per Figure 5's farm shapes).
  gs::proto::Beacon beacon;
  beacon.self = member(9);
  beacon.is_leader = true;
  beacon.view = 12;
  beacon.group_size = 8;
  gs::proto::JoinRequest join;
  join.view = 12;
  join.members = members(8);
  gs::proto::Prepare prepare;
  prepare.view = 13;
  prepare.leader = member(9).ip;
  prepare.members = members(8);
  gs::proto::PrepareAck prepare_ack;
  prepare_ack.view = 13;
  gs::proto::Commit commit;
  commit.view = 13;
  commit.members = members(8);
  gs::proto::Heartbeat heartbeat;
  heartbeat.view = 13;
  heartbeat.seq = 123456;
  gs::proto::Suspect suspect;
  suspect.view = 13;
  suspect.suspect = member(3).ip;
  gs::proto::SuspectAck suspect_ack;
  suspect_ack.view = 13;
  suspect_ack.suspect = member(3).ip;
  gs::proto::Probe probe;
  probe.nonce = 77;
  gs::proto::ProbeAck probe_ack;
  probe_ack.nonce = 77;
  probe_ack.leads_prober = true;
  gs::proto::StaleNotice stale;
  stale.current_view = 14;
  gs::proto::MembershipReport report;
  report.seq = 5;
  report.view = 13;
  report.full = true;
  report.leader = member(9);
  report.added = members(8);
  gs::proto::ReportAck report_ack;
  report_ack.seq = 5;
  report_ack.leader = member(9).ip;
  gs::proto::Ping ping;
  ping.nonce = 88;
  ping.origin = member(2).ip;
  gs::proto::PingAck ping_ack;
  ping_ack.nonce = 88;
  ping_ack.target = member(3).ip;
  gs::proto::PingReq ping_req;
  ping_req.nonce = 88;
  ping_req.origin = member(2).ip;
  ping_req.target = member(3).ip;
  gs::proto::SubgroupPoll poll;
  poll.seq = 4;
  gs::proto::SubgroupPollAck poll_ack;
  poll_ack.seq = 4;

  std::vector<MicroRow> rows;
  rows.push_back(micro_for(beacon, iters));
  rows.push_back(micro_for(join, iters));
  rows.push_back(micro_for(prepare, iters));
  rows.push_back(micro_for(prepare_ack, iters));
  rows.push_back(micro_for(commit, iters));
  rows.push_back(micro_for(heartbeat, iters));
  rows.push_back(micro_for(suspect, iters));
  rows.push_back(micro_for(suspect_ack, iters));
  rows.push_back(micro_for(probe, iters));
  rows.push_back(micro_for(probe_ack, iters));
  rows.push_back(micro_for(stale, iters));
  rows.push_back(micro_for(report, iters));
  rows.push_back(micro_for(report_ack, iters));
  rows.push_back(micro_for(ping, iters));
  rows.push_back(micro_for(ping_ack, iters));
  rows.push_back(micro_for(ping_req, iters));
  rows.push_back(micro_for(poll, iters));
  rows.push_back(micro_for(poll_ack, iters));

  std::printf("\nper-message codec cost (ns/op, median of batches):\n");
  std::printf("  %-18s %6s %9s %9s %9s\n", "type", "bytes", "encode",
              "verify", "decode");
  gs::bench::print_rule(56);
  for (const MicroRow& row : rows)
    std::printf("  %-18s %6zu %9.1f %9.1f %9.1f\n", row.type.c_str(),
                row.frame_bytes, row.encode_ns, row.verify_ns, row.decode_ns);

  // The gate rides prepare, the frame with real decode work to amortise.
  // Heartbeat is printed but not gated: its per-receiver baseline (a
  // 32-byte slicing-by-8 CRC plus a two-field decode) is cheap enough that
  // its ratio mostly measures the baseline, not the cache.
  const ScenarioResult hb_scenario =
      run_scenario(heartbeat, receivers, frames);
  const ScenarioResult prepare_scenario =
      run_scenario(prepare, receivers, frames);
  std::printf("\nshared multicast decode (1 sender, %zu receivers):\n",
              receivers);
  std::printf("  %-18s %12s %12s %9s\n", "type", "cached ns", "baseline ns",
              "speedup");
  gs::bench::print_rule(56);
  std::printf("  %-18s %12.1f %12.1f %8.1fx  (not gated)\n", "heartbeat",
              hb_scenario.cached_ns_per_delivery,
              hb_scenario.baseline_ns_per_delivery, hb_scenario.speedup);
  std::printf("  %-18s %12.1f %12.1f %8.1fx\n", "prepare",
              prepare_scenario.cached_ns_per_delivery,
              prepare_scenario.baseline_ns_per_delivery,
              prepare_scenario.speedup);

  gs::bench::BenchJson json("codec_path");
  json.set("iters", static_cast<std::int64_t>(iters));
  json.set("receivers", static_cast<std::int64_t>(receivers));
  json.set("scenario_frames", static_cast<std::int64_t>(frames));
  json.set("heartbeat_cached_ns", hb_scenario.cached_ns_per_delivery);
  json.set("heartbeat_baseline_ns", hb_scenario.baseline_ns_per_delivery);
  json.set("heartbeat_speedup", hb_scenario.speedup);
  json.set("prepare_cached_ns", prepare_scenario.cached_ns_per_delivery);
  json.set("prepare_baseline_ns", prepare_scenario.baseline_ns_per_delivery);
  json.set("prepare_speedup", prepare_scenario.speedup);
  for (const MicroRow& row : rows) {
    auto& j = json.add_row("micro");
    j.set("type", row.type);
    j.set("frame_bytes", static_cast<std::int64_t>(row.frame_bytes));
    j.set("encode_ns", row.encode_ns);
    j.set("verify_ns", row.verify_ns);
    j.set("decode_ns", row.decode_ns);
  }
  json.write();

  if (prepare_scenario.speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: prepare shared-decode speedup %.2fx below floor %.2fx "
                 "— the decode-once cache is not paying for itself\n",
                 prepare_scenario.speedup, min_speedup);
    return 1;
  }
  return 0;
}
