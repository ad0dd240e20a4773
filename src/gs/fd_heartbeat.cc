#include <algorithm>

#include "gs/fd_impl.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace gs::proto {

HeartbeatFd::HeartbeatFd(FdKind kind, FdContext ctx)
    : ctx_(std::move(ctx)), kind_(kind) {
  GS_CHECK(kind_ != FdKind::kRandomPing);
  GS_CHECK(ctx_.heartbeat_frames != nullptr);
}

std::vector<std::size_t> HeartbeatFd::subgroup_of(std::size_t rank,
                                                  std::size_t group_size,
                                                  std::size_t subgroup_size) {
  GS_CHECK(subgroup_size > 0 && rank < group_size);
  const std::size_t chunk = rank / subgroup_size;
  const std::size_t begin = chunk * subgroup_size;
  const std::size_t end = std::min(begin + subgroup_size, group_size);
  std::vector<std::size_t> out;
  out.reserve(end - begin);
  for (std::size_t r = begin; r < end; ++r) out.push_back(r);
  return out;
}

void HeartbeatFd::stop_all() {
  running_ = false;
  frame_ = {};
  send_timer_.cancel();
  poll_timer_.cancel();
  for (Deadline& d : deadlines_) d.timer.cancel();
  deadlines_.clear();
  targets_.clear();
  monitored_.clear();
  chunks_.clear();
  poll_chunk_by_seq_.clear();
}

void HeartbeatFd::compute_peers() {
  targets_.clear();
  monitored_.clear();
  chunks_.clear();
  const std::size_t n = view_.size();
  if (n < 2) return;
  const auto rank_opt = view_.rank_of(ctx_.self);
  GS_CHECK(rank_opt.has_value());
  const std::size_t rank = *rank_opt;
  const util::IpAddress right = view_.member_at((rank + 1) % n).ip;
  const util::IpAddress left = view_.member_at((rank + n - 1) % n).ip;

  auto add_unique = [](std::vector<util::IpAddress>& v, util::IpAddress ip) {
    if (std::find(v.begin(), v.end(), ip) == v.end()) v.push_back(ip);
  };

  switch (kind_) {
    case FdKind::kUnidirectionalRing:
      // Heartbeat the right neighbor, monitor the left (§3's base scheme).
      add_unique(targets_, right);
      add_unique(monitored_, left);
      break;
    case FdKind::kBidirectionalRing:
      add_unique(targets_, right);
      add_unique(targets_, left);
      add_unique(monitored_, left);
      add_unique(monitored_, right);
      break;
    case FdKind::kAllToAll:
      for (const MemberInfo& m : view_.members()) {
        if (m.ip == ctx_.self) continue;
        targets_.push_back(m.ip);
        monitored_.push_back(m.ip);
      }
      break;
    case FdKind::kSubgroupRing: {
      const auto sub = subgroup_of(
          rank, n, static_cast<std::size_t>(ctx_.params->subgroup_size));
      for (std::size_t r : sub) {
        const util::IpAddress ip = view_.member_at(r).ip;
        if (ip == ctx_.self) continue;
        add_unique(targets_, ip);
        add_unique(monitored_, ip);
      }
      // The leader additionally polls every other subgroup at low frequency
      // to catch a catastrophic whole-subgroup failure (§4.2).
      if (rank == 0) {
        const auto s = static_cast<std::size_t>(ctx_.params->subgroup_size);
        for (std::size_t begin = 0; begin < n; begin += s) {
          if (begin == 0) continue;  // own subgroup is covered by heartbeats
          ChunkState chunk;
          for (std::size_t r = begin; r < std::min(begin + s, n); ++r)
            chunk.members.push_back(view_.member_at(r).ip);
          chunks_.push_back(std::move(chunk));
        }
      }
      break;
    }
    case FdKind::kRandomPing:
      GS_CHECK_MSG(false, "RandPingFd handles kRandomPing");
  }
}

void HeartbeatFd::start(const MembershipView& view) {
  stop_all();
  view_ = view;
  running_ = true;
  compute_peers();
  if (targets_.empty() && monitored_.empty() && chunks_.empty()) return;
  if (!targets_.empty()) frame_ = ctx_.heartbeat_frames->frame(view_.view());

  // Stagger the first heartbeat so group members do not synchronize.
  const auto period = ctx_.params->hb_period;
  send_timer_ = ctx_.sim->after(
      static_cast<sim::SimDuration>(ctx_.rng.below(
          static_cast<std::uint64_t>(std::max<sim::SimDuration>(1, period)))),
      [this] { send_heartbeats(); });

  for (util::IpAddress peer : monitored_) deadlines_.push_back({peer, {}});
  std::ranges::sort(deadlines_, {}, &Deadline::peer);
  for (util::IpAddress peer : monitored_)
    arm_monitor(*find_deadline(peer), /*after_suspicion=*/false);

  if (!chunks_.empty()) {
    poll_timer_ = ctx_.sim->after(ctx_.params->subgroup_poll_period,
                                  [this] { send_polls(); });
  }
}

void HeartbeatFd::restart(const MembershipView& view, util::Rng rng) {
  // start() cancels the old view's timers in the order a destroyed detector
  // would; the poll sequence restarts as it would in a new one.
  ctx_.rng = rng;
  poll_seq_ = 0;
  start(view);
}

void HeartbeatFd::send_heartbeats() {
  if (!running_) return;
  // Every target in every period gets the same bytes: the view's frame.
  for (util::IpAddress peer : targets_) ctx_.send(peer, frame_);
  send_timer_ = ctx_.sim->after(ctx_.params->hb_period,
                                [this] { send_heartbeats(); });
}

HeartbeatFd::Deadline* HeartbeatFd::find_deadline(util::IpAddress peer) {
  const auto it =
      std::ranges::lower_bound(deadlines_, peer, {}, &Deadline::peer);
  return it != deadlines_.end() && it->peer == peer ? &*it : nullptr;
}

void HeartbeatFd::arm_monitor(Deadline& deadline, bool after_suspicion) {
  const auto period = ctx_.params->hb_period;
  const sim::SimDuration delay =
      after_suspicion
          ? ctx_.params->resuspect_hold
          : period * ctx_.params->hb_sensitivity + period / 2;
  // Fast path for the steady state (every heartbeat arrival lands here):
  // the pending deadline moves in place — the backend keeps the callback,
  // so the cycle is allocation-free. Falls back to a fresh arm on first
  // use and when re-arming from monitor_expired (the timer just fired).
  if (deadline.timer.rearm_after(delay)) return;
  deadline.timer = ctx_.sim->after(
      delay, [this, peer = deadline.peer] { monitor_expired(peer); });
}

void HeartbeatFd::monitor_expired(util::IpAddress peer) {
  if (!running_) return;
  // Before blaming the neighbor, make sure we can still hear at all (§3:
  // "first performing a loopback test on its own adapter").
  if (ctx_.params->fd_loopback_test && ctx_.loopback_ok && !ctx_.loopback_ok()) {
    GS_LOG(kDebug, "fd") << ctx_.self << " loopback failed; not blaming "
                         << peer;
    arm_monitor(*find_deadline(peer), /*after_suspicion=*/false);
    return;
  }
  obs::emit_trace(ctx_.params->trace, obs::TraceKind::kHeartbeatMiss,
                  ctx_.sim->now(), ctx_.self, peer);
  ctx_.suspect(peer);
  // suspect() may re-enter and re-target this detector: hold off only a
  // peer it still monitors.
  if (Deadline* deadline = find_deadline(peer))
    arm_monitor(*deadline, /*after_suspicion=*/true);
}

bool HeartbeatFd::on_heartbeat(util::IpAddress from, const Heartbeat& hb) {
  if (!running_) return false;
  if (hb.view != view_.view()) return false;  // stale traffic handled upstream
  Deadline* deadline = find_deadline(from);
  if (deadline == nullptr) return false;
  arm_monitor(*deadline, /*after_suspicion=*/false);
  return true;
}

void HeartbeatFd::send_polls() {
  if (!running_) return;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    ChunkState& chunk = chunks_[i];
    if (chunk.outstanding_seq != 0) {
      poll_chunk_by_seq_.erase(chunk.outstanding_seq);
      chunk.outstanding_seq = 0;
      if (++chunk.consecutive_misses >= ctx_.params->subgroup_poll_misses) {
        // The whole subgroup has gone silent across rotated targets:
        // suspect every member (the leader verifies each individually).
        for (util::IpAddress ip : chunk.members) ctx_.suspect(ip);
        chunk.consecutive_misses = 0;
      }
    }
    const util::IpAddress target =
        chunk.members[chunk.next_target % chunk.members.size()];
    chunk.next_target++;
    SubgroupPoll poll{};
    poll.seq = ++poll_seq_;
    chunk.outstanding_seq = poll.seq;
    poll_chunk_by_seq_[poll.seq] = i;
    ctx_.send(target, ctx_.framed(poll));
  }
  poll_timer_ = ctx_.sim->after(ctx_.params->subgroup_poll_period,
                                [this] { send_polls(); });
}

void HeartbeatFd::on_subgroup_poll_ack(util::IpAddress /*from*/,
                                       const SubgroupPollAck& ack) {
  if (!running_) return;
  auto it = poll_chunk_by_seq_.find(ack.seq);
  if (it == poll_chunk_by_seq_.end()) return;
  ChunkState& chunk = chunks_[it->second];
  poll_chunk_by_seq_.erase(it);
  if (chunk.outstanding_seq == ack.seq) {
    chunk.outstanding_seq = 0;
    chunk.consecutive_misses = 0;
  }
}

}  // namespace gs::proto
