// Concrete failure-detector implementations (exposed for unit tests; library
// users go through make_failure_detector).
#pragma once

#include <map>

#include "gs/fd.h"

namespace gs::proto {

// Heartbeat-family detector covering uni-ring, bi-ring, all-to-all, and the
// subgroup scheme. The kind selects which ranks this member heartbeats
// (targets) and which it monitors; subgroup mode adds the leader-side
// low-frequency poll of each subgroup (§4.2).
class HeartbeatFd final : public FailureDetector {
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
  void arm_monitor(util::IpAddress peer, bool after_suspicion);
  void monitor_expired(util::IpAddress peer);

  // Leader-side subgroup polling.
  void send_polls();
  struct ChunkState {
    std::vector<util::IpAddress> members;
    int consecutive_misses = 0;
    std::uint64_t outstanding_seq = 0;  // 0 = none
    std::size_t next_target = 0;        // rotation over members
  };

  FdKind kind_;
  FdContext ctx_;
  MembershipView view_;
  bool running_ = false;

  std::vector<util::IpAddress> targets_;   // peers we heartbeat
  std::vector<util::IpAddress> monitored_; // peers we expect heartbeats from
  std::map<util::IpAddress, sim::Timer> deadlines_;
  std::uint64_t hb_seq_ = 0;
  sim::Timer send_timer_;

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
