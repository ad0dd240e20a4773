// Pluggable failure detectors.
//
// A FailureDetector runs inside a committed AMG on behalf of one adapter.
// Its only output is ctx.suspect(ip) — a *local suspicion*; reporting to
// the leader, verification probes, and the membership recommit are the
// AdapterProtocol's business, identical across detectors. This split is
// what makes the §4.2 strategy comparison (bench E5) an apples-to-apples
// measurement: strategies differ only in monitoring traffic and suspicion
// quality.
//
// Implemented strategies (see params.h FdKind):
//  * uni-ring   — heartbeat right, monitor left (Totem-style, §3).
//  * bi-ring    — heartbeat and monitor both neighbors (GulfStream,
//                 Figure 4); pairs with the leader's two-reporter consensus.
//  * all-to-all — everyone heartbeats everyone (HACMP-style, §5:
//                 "scales poorly").
//  * subgroup   — the ring is split into small subgroups that heartbeat
//                 internally; the leader polls each subgroup at low
//                 frequency to catch whole-subgroup loss (§4.2).
//  * rand-ping  — randomized pinging with indirect probes through proxies
//                 (§4.2, ref [9]).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gs/amg.h"
#include "gs/messages.h"
#include "gs/params.h"
#include "sim/time_source.h"
#include "util/ip.h"
#include "util/rng.h"

namespace gs::proto {

// The framed Heartbeat{view} of each view number in use, one payload per
// number for a whole deployment. A Heartbeat carries nothing but its view
// number, so every detector on that number sends the same bytes: sharing
// one payload means the number is encoded, CRC'd, verified and decoded once
// per farm, and every receiver reads the same rep. The farm owns one table
// and hands it to every daemon; it is not shared across farms, so, like the
// payloads it holds, it stays on the farm's thread.
class HeartbeatFrames {
 public:
  // The frame for `view`, framed on a miss. A miss also drops every entry
  // no detector holds any more, so the table tracks the view numbers in
  // use without a size bound of its own.
  [[nodiscard]] net::Payload frame(std::uint64_t view);

  // Entries some holder besides the table still references (tests).
  [[nodiscard]] std::size_t live() const;

 private:
  struct Entry {
    std::uint64_t view;
    net::Payload frame;
  };

  std::vector<Entry> entries_;  // ascending view
  wire::Writer scratch_;
};

// The pointer members lead: a heartbeat send or arrival reads them, and
// they would otherwise sit behind the three std::functions.
struct FdContext {
  sim::TimeSource* sim = nullptr;
  const Params* params = nullptr;
  // Shared encode scratch (the owning AdapterProtocol's), used per poll or
  // ping; optional — tests that drive a detector standalone may leave it
  // null.
  wire::Writer* encode_scratch = nullptr;
  // Where heartbeat detectors take their view's frame from; required by
  // every kind but random pinging. Read once per start().
  HeartbeatFrames* heartbeat_frames = nullptr;
  util::IpAddress self;
  // Unicast a complete frame to a member of the group: the daemon's own
  // unicast hook (AdapterProtocol::NetIface::unicast), so a detector's send
  // never passes through the protocol. The result (false when the frame
  // did not leave the NIC) is ignored by every detector.
  std::function<bool(util::IpAddress, net::Payload)> send;
  // Raise a local suspicion (already deduplicated downstream).
  std::function<void(util::IpAddress)> suspect;
  // The adapter's loopback self-test; used before blaming a silent
  // neighbor (§3). Returns true when the local adapter is healthy.
  std::function<bool()> loopback_ok;
  util::Rng rng;

  // Frames a message for send(), allocation-free when scratch is wired.
  template <typename T>
  [[nodiscard]] net::Payload framed(const T& msg) {
    if (encode_scratch != nullptr)
      return net::Payload::copy_of(build_frame(*encode_scratch, msg));
    wire::Writer w;
    return net::Payload::copy_of(build_frame(w, msg));
  }
};

class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  // Begins monitoring under `view`. Called after every commit; the detector
  // must fully re-arm (ring order may have changed).
  virtual void start(const MembershipView& view) = 0;
  virtual void stop() = 0;
  // Re-targets the detector at a newly committed `view` with a fresh random
  // stream: same timers, traffic and draws as destroying it and starting a
  // new one built with `rng`, without the reallocation.
  virtual void restart(const MembershipView& view, util::Rng rng) = 0;

  // Returns true when the heartbeat was consumed: it carries the detector's
  // view and `from` is a monitored peer. False leaves it to the caller.
  virtual bool on_heartbeat(util::IpAddress from, const Heartbeat& hb) = 0;
  virtual void on_ping_ack(util::IpAddress from, const PingAck& ack) {
    (void)from;
    (void)ack;
  }
  virtual void on_ping_req(util::IpAddress from, const PingReq& req) {
    (void)from;
    (void)req;
  }
  virtual void on_subgroup_poll_ack(util::IpAddress from,
                                    const SubgroupPollAck& ack) {
    (void)from;
    (void)ack;
  }

  [[nodiscard]] virtual FdKind kind() const = 0;

  // How many independent reporters the leader should require before
  // declaring a death without verification (§3's consensus rule).
  [[nodiscard]] virtual int consensus_reporters() const { return 1; }
};

[[nodiscard]] std::unique_ptr<FailureDetector> make_failure_detector(
    FdKind kind, FdContext ctx);

}  // namespace gs::proto
