#include "gs/fd_impl.h"
#include "util/check.h"

namespace gs::proto {

void RandPingFd::start(const MembershipView& view) {
  stop();
  view_ = view;
  peers_.clear();
  for (const MemberInfo& m : view.members())
    if (m.ip != ctx_.self) peers_.push_back(m.ip);
  if (peers_.empty()) return;
  running_ = true;
  round_acked_ = true;
  const auto period = ctx_.params->ping_period;
  tick_timer_ = ctx_.sim->after(
      static_cast<sim::SimDuration>(ctx_.rng.below(
          static_cast<std::uint64_t>(std::max<sim::SimDuration>(1, period)))),
      [this] { tick(); });
}

void RandPingFd::restart(const MembershipView& view, util::Rng rng) {
  ctx_.rng = rng;
  round_target_ = util::IpAddress();
  round_nonce_ = 0;
  round_acked_ = true;
  start(view);
}

void RandPingFd::stop() {
  running_ = false;
  tick_timer_.cancel();
  direct_timer_.cancel();
  round_end_timer_.cancel();
  proxy_pending_.clear();
}

void RandPingFd::tick() {
  if (!running_) return;

  // Retire proxy duties that can no longer be useful.
  const sim::SimTime now = ctx_.sim->now();
  for (auto it = proxy_pending_.begin(); it != proxy_pending_.end();) {
    if (now - it->second.created > ctx_.params->ping_period)
      it = proxy_pending_.erase(it);
    else
      ++it;
  }

  round_target_ = peers_[ctx_.rng.below(peers_.size())];
  do {
    round_nonce_ = ctx_.rng.next();
  } while (round_nonce_ == 0);
  round_acked_ = false;

  Ping ping{};
  ping.nonce = round_nonce_;
  ping.origin = ctx_.self;
  ctx_.send(round_target_, ctx_.framed(ping));

  direct_timer_ =
      ctx_.sim->after(ctx_.params->ping_timeout, [this] { direct_timeout(); });
  // Give indirect probes the rest of the period to come back.
  round_end_timer_ = ctx_.sim->after(ctx_.params->ping_period * 9 / 10,
                                     [this] { period_end(); });
  tick_timer_ = ctx_.sim->after(ctx_.params->ping_period, [this] { tick(); });
}

void RandPingFd::direct_timeout() {
  if (!running_ || round_acked_) return;
  // No direct ack: route indirect pings through up to `ping_proxies`
  // other members (ref [9]'s randomized scheme).
  std::vector<util::IpAddress> candidates;
  for (util::IpAddress ip : peers_)
    if (ip != round_target_) candidates.push_back(ip);
  const auto want = static_cast<std::size_t>(ctx_.params->ping_proxies);
  for (std::size_t i = 0; i < want && !candidates.empty(); ++i) {
    const std::size_t pick = ctx_.rng.below(candidates.size());
    PingReq req{};
    req.nonce = round_nonce_;
    req.origin = ctx_.self;
    req.target = round_target_;
    ctx_.send(candidates[pick], ctx_.framed(req));
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

void RandPingFd::period_end() {
  if (!running_ || round_acked_) return;
  ctx_.suspect(round_target_);
}

void RandPingFd::on_ping_ack(util::IpAddress /*from*/, const PingAck& ack) {
  if (!running_) return;
  if (ack.nonce == round_nonce_ && ack.target == round_target_)
    round_acked_ = true;
  // Proxy duty: forward evidence of life back to the original requester.
  auto it = proxy_pending_.find(ack.nonce);
  if (it != proxy_pending_.end()) {
    PingAck forward{};
    forward.nonce = ack.nonce;
    forward.target = ack.target;
    ctx_.send(it->second.origin, ctx_.framed(forward));
    proxy_pending_.erase(it);
  }
}

void RandPingFd::on_ping_req(util::IpAddress /*from*/, const PingReq& req) {
  if (!running_) return;
  proxy_pending_[req.nonce] = ProxyDuty{req.origin, ctx_.sim->now()};
  Ping ping{};
  ping.nonce = req.nonce;
  ping.origin = ctx_.self;  // the target acks to us; we forward
  ctx_.send(req.target, ctx_.framed(ping));
}

}  // namespace gs::proto
