// Concrete failure-detector implementations (exposed for unit tests; library
// users go through make_failure_detector).
#pragma once

#include <map>

#include "gs/fd.h"

namespace gs::proto {

// What one heartbeat cycle reads in the detector: the running flag, the
// frame every period resends, the view number an arrival must carry, whom
// to send to, and the deadline table a received heartbeat re-arms.
// HeartbeatFd inherits it right after its vtable pointer, with its
// context's pointer members next: an arrival reads only the object's first
// two cache lines, and a send adds the third, which holds ctx_.send — the
// daemon's unicast hook itself, so a period never reads the AdapterProtocol.
struct HeartbeatFdHot {
  // One monitored peer's heartbeat deadline.
  struct Deadline {
    util::IpAddress peer;
    sim::Timer timer;
  };

  bool running_ = false;
  // The view's heartbeat, taken by start() from the farm's HeartbeatFrames:
  // every period resends these bytes, and every detector on the same view
  // number holds the same payload, so encode, CRC and the receivers' verify
  // and decode (the payload's cache) happen once per view number per farm.
  // Released by stop_all().
  net::Payload frame_;
  MembershipView view_;
  std::vector<util::IpAddress> targets_;  // peers we heartbeat
  // Every peer we expect heartbeats from, ascending IP; filled once per
  // start() and re-armed in place, so an arrival is one search.
  std::vector<Deadline> deadlines_;
};
// With the vtable pointer and ctx_'s sim/params/encode_scratch behind it,
// two lines: a later member must not push the cycle's fields further out.
static_assert(sizeof(HeartbeatFdHot) <= 96);

// Heartbeat-family detector covering uni-ring, bi-ring, all-to-all, and the
// subgroup scheme. The kind selects which ranks this member heartbeats
// (targets) and which it monitors; subgroup mode adds the leader-side
// low-frequency poll of each subgroup (§4.2).
class alignas(64) HeartbeatFd final : public FailureDetector,
                                      private HeartbeatFdHot {
 public:
  HeartbeatFd(FdKind kind, FdContext ctx);
  ~HeartbeatFd() override { stop_all(); }

  void start(const MembershipView& view) override;
  void stop() override { stop_all(); }
  void restart(const MembershipView& view, util::Rng rng) override;

  bool on_heartbeat(util::IpAddress from, const Heartbeat& hb) override;
  void on_subgroup_poll_ack(util::IpAddress from,
                            const SubgroupPollAck& ack) override;

  [[nodiscard]] FdKind kind() const override { return kind_; }
  [[nodiscard]] int consensus_reporters() const override {
    return (kind_ == FdKind::kBidirectionalRing || kind_ == FdKind::kAllToAll)
               ? 2
               : 1;
  }

  // Rank list of the subgroup containing `rank` (exposed for tests).
  static std::vector<std::size_t> subgroup_of(std::size_t rank,
                                              std::size_t group_size,
                                              std::size_t subgroup_size);

 private:
  void stop_all();
  void compute_peers();
  void send_heartbeats();
  // The peer's entry in deadlines_, or null when it is not monitored.
  [[nodiscard]] Deadline* find_deadline(util::IpAddress peer);
  void arm_monitor(Deadline& deadline, bool after_suspicion);
  void monitor_expired(util::IpAddress peer);

  // Leader-side subgroup polling.
  void send_polls();
  struct ChunkState {
    std::vector<util::IpAddress> members;
    int consecutive_misses = 0;
    std::uint64_t outstanding_seq = 0;  // 0 = none
    std::size_t next_target = 0;        // rotation over members
  };

  FdContext ctx_;
  FdKind kind_;
  sim::Timer send_timer_;
  // The monitored peers in the order compute_peers() lists them, which is
  // the order start() arms their deadlines in.
  std::vector<util::IpAddress> monitored_;

  // subgroup-poll state (leader only)
  std::vector<ChunkState> chunks_;
  sim::Timer poll_timer_;
  std::uint64_t poll_seq_ = 0;
  std::map<std::uint64_t, std::size_t> poll_chunk_by_seq_;
};

// Randomized distributed pinging (§4.2, ref [9]): each period pick a random
// member, ping it; on silence, ask `ping_proxies` other members to ping it
// indirectly; still silent by the end of the period => suspect.
class RandPingFd final : public FailureDetector {
 public:
  explicit RandPingFd(FdContext ctx) : ctx_(std::move(ctx)) {}
  ~RandPingFd() override { stop(); }

  void start(const MembershipView& view) override;
  void stop() override;
  void restart(const MembershipView& view, util::Rng rng) override;

  bool on_heartbeat(util::IpAddress, const Heartbeat&) override {
    return false;
  }
  void on_ping_ack(util::IpAddress from, const PingAck& ack) override;
  void on_ping_req(util::IpAddress from, const PingReq& req) override;

  [[nodiscard]] FdKind kind() const override { return FdKind::kRandomPing; }

 private:
  void tick();
  void direct_timeout();
  void period_end();

  FdContext ctx_;
  MembershipView view_;
  std::vector<util::IpAddress> peers_;
  bool running_ = false;

  sim::Timer tick_timer_;
  sim::Timer direct_timer_;
  sim::Timer round_end_timer_;
  util::IpAddress round_target_;
  std::uint64_t round_nonce_ = 0;
  bool round_acked_ = true;

  // Proxy duty: nonce -> origin awaiting the forwarded ack. Entries are
  // pruned after one ping period (a duty older than that is dead weight).
  struct ProxyDuty {
    util::IpAddress origin;
    sim::SimTime created;
  };
  std::map<std::uint64_t, ProxyDuty> proxy_pending_;
};

}  // namespace gs::proto
