#include "gs/adapter_protocol.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace gs::proto {

namespace {
// A stale ex-member heartbeats at full rate; one StaleNotice per peer per
// window is plenty to get it to rejoin.
constexpr sim::SimDuration kStaleNoticeWindow = sim::seconds(1);
}  // namespace

std::string_view to_string(AdapterState s) {
  switch (s) {
    case AdapterState::kIdle: return "idle";
    case AdapterState::kBeaconing: return "beaconing";
    case AdapterState::kWaitingForLeader: return "waiting-for-leader";
    case AdapterState::kMember: return "member";
    case AdapterState::kLeader: return "leader";
  }
  return "?";
}

AdapterProtocol::AdapterProtocol(sim::TimeSource& clock, const Params& params,
                                 HeartbeatFrames& heartbeat_frames,
                                 MemberInfo self, NetIface net, Hooks hooks,
                                 util::Rng rng)
    : sim_(clock),
      net_(std::move(net)),
      params_(params),
      heartbeat_frames_(heartbeat_frames),
      self_(self),
      hooks_(std::move(hooks)),
      rng_(rng) {}

void AdapterProtocol::trace(obs::TraceKind kind, util::IpAddress peer,
                            std::uint64_t a, std::uint64_t b) {
  obs::emit_trace(params_.trace, kind, sim_.now(), self_.ip, peer, a, b, {},
                  self_.node);
}

AdapterProtocol::~AdapterProtocol() { cancel_all_timers(); }

void AdapterProtocol::cancel_all_timers() {
  // Destruction-path cleanup only: cancels without tracing or notifying —
  // shutdown()'s kTwoPcAbort emission must not happen during teardown,
  // where sinks may already be gone (and golden traces would change).
  if (fd_) {
    fd_->stop();
    fd_.reset();
  }
  beacon_send_timer_.cancel();
  beacon_end_timer_.cancel();
  defer_timer_.cancel();
  if (pending_prepare_) pending_prepare_->expiry.cancel();
  if (proposal_) proposal_->timer.cancel();
  change_timer_.cancel();
  for (auto& [ip, s] : suspicions_) s.probe_timer.cancel();
  report_timer_.cancel();
  for (auto& [ip, out] : outstanding_suspects_) out.timer.cancel();
  if (takeover_) takeover_->timer.cancel();
}

void AdapterProtocol::start() {
  GS_CHECK(state_ == AdapterState::kIdle);
  begin_beaconing();
}

void AdapterProtocol::shutdown() {
  stop_fd();
  clear_member_duty_state();
  clear_leader_duty_state();
  committed_ = MembershipView();
  committed_at_ = -1;
  if (pending_prepare_) {
    pending_prepare_->expiry.cancel();
    pending_prepare_.reset();
  }
  beacon_send_timer_.cancel();
  beacon_end_timer_.cancel();
  defer_timer_.cancel();
  clear_heard();
  stale_notice_sent_.clear();
  // The report counter dies with the daemon process: after a restart this
  // adapter numbers its reports from scratch (GSC recognizes the fresh
  // instance by the full snapshot, not by the counter).
  report_seq_ = 0;
  set_state(AdapterState::kIdle);
}

void AdapterProtocol::restart() {
  GS_CHECK(state_ == AdapterState::kIdle);
  begin_beaconing();
}

void AdapterProtocol::set_state(AdapterState next) {
  const bool listened = in_beacon_group(state_);
  state_ = next;
  const bool listens = in_beacon_group(next);
  if (listens != listened && net_.listen_beacons) net_.listen_beacons(listens);
}

bool AdapterProtocol::unicast(util::IpAddress to, net::Payload frame) {
  GS_CHECK(net_.unicast != nullptr);
  return net_.unicast(to, std::move(frame));
}

// --- Discovery ----------------------------------------------------------------

void AdapterProtocol::begin_beaconing() {
  set_state(AdapterState::kBeaconing);
  clear_heard();
  defer_join_attempted_ = false;
  beacon_send_timer_.cancel();
  beacon_end_timer_.cancel();
  defer_timer_.cancel();

  beacon_tick();

  // Model of the paper's observed start-up anomaly (§4.1): the phase-end
  // timer is armed 1-2 s after beaconing actually begins, because the
  // daemon interleaves other initialization with beacon start-up.
  const sim::SimDuration setup_extra =
      params_.beacon_setup_max > params_.beacon_setup_min
          ? rng_.range(params_.beacon_setup_min, params_.beacon_setup_max)
          : params_.beacon_setup_min;
  beacon_end_timer_ = sim_.after(params_.beacon_phase + setup_extra,
                                 [this] { end_beacon_phase(); });
}

void AdapterProtocol::clear_heard() {
  heard_max_ = util::IpAddress();
  heard_higher_leaders_.clear();
  heard_.clear();
}

void AdapterProtocol::note_heard(const Beacon& msg) {
  const util::IpAddress ip = msg.self.ip;
  heard_max_ = std::max(heard_max_, ip);
  if (ip > self_ip()) {
    // Self can no longer win this phase: the full set is never needed
    // again, only whether this higher IP's latest beacon claims leadership.
    heard_.clear();
    const auto it = std::find(heard_higher_leaders_.begin(),
                              heard_higher_leaders_.end(), ip);
    if (msg.is_leader && it == heard_higher_leaders_.end())
      heard_higher_leaders_.push_back(ip);
    else if (!msg.is_leader && it != heard_higher_leaders_.end())
      heard_higher_leaders_.erase(it);
  } else if (heard_max_ < self_ip()) {
    heard_[ip] = HeardBeacon{msg.self, msg.is_leader};
  }
}

void AdapterProtocol::beacon_tick() {
  if (state_ != AdapterState::kBeaconing && state_ != AdapterState::kLeader)
    return;
  Beacon b{};
  b.self = self_;
  b.is_leader = state_ == AdapterState::kLeader;
  b.view = committed_.empty() ? 0 : committed_.view();
  b.group_size = static_cast<std::uint32_t>(committed_.size());
  if (net_.beacon_multicast) net_.beacon_multicast(framed(b));
  ++stats_.beacons_sent;
  trace(obs::TraceKind::kBeaconSent, {}, b.view, b.group_size);
  beacon_send_timer_ =
      sim_.after(params_.beacon_interval, [this] { beacon_tick(); });
}

void AdapterProtocol::end_beacon_phase() {
  if (state_ != AdapterState::kBeaconing) return;

  const util::IpAddress best = std::max(self_ip(), heard_max_);
  if (best == self_ip()) {
    // We have the highest IP: undertake group formation (§2.1). Fellow
    // beaconers (non-leaders) become our members; committed groups we
    // overheard are led by lower IPs and will merge into us via
    // JoinRequest once their leaders hear our leader beacons.
    trace(obs::TraceKind::kElectionWon, {}, heard_.size());
    for (const auto& [ip, heard] : heard_)
      if (!heard.is_leader) pending_adds_[ip] = heard.info;
    if (pending_adds_.empty()) {
      install_singleton();
    } else {
      set_state(AdapterState::kLeader);  // tentative: formation in flight
      propose();
    }
    return;
  }

  // Defer AMG formation and leadership to the highest IP heard (§2.1).
  trace(obs::TraceKind::kElectionDeferred, best);
  set_state(AdapterState::kWaitingForLeader);
  beacon_send_timer_.cancel();
  defer_timer_ = sim_.after(params_.defer_timeout, [this] { defer_expired(); });
}

void AdapterProtocol::defer_expired() {
  if (state_ != AdapterState::kWaitingForLeader) return;
  // The expected leader never committed us (its beacons or our 2PC traffic
  // were lost, or it died). If a committed higher-IP leader was heard while
  // we waited, ask it directly for membership before falling back: forming
  // a singleton beside a live group only to merge moments later puts every
  // member of the segment through an extra view change. One join attempt,
  // one more defer period; then the singleton fallback repairs the rest.
  if (!defer_join_attempted_) {
    util::IpAddress target;
    for (const util::IpAddress ip : heard_higher_leaders_)
      target = std::max(target, ip);
    if (!target.is_unspecified()) {
      defer_join_attempted_ = true;
      GS_LOG(kDebug, "amg") << self_ip() << " defer timeout; joining leader "
                            << target;
      // This attempt buys a full extra defer period — it must actually go
      // out. Clear the join rate limiter so maybe_send_join cannot silently
      // swallow it because some earlier join to the same target was recent.
      last_join_sent_ = -1;
      maybe_send_join(target);
      defer_timer_ =
          sim_.after(params_.defer_timeout, [this] { defer_expired(); });
      return;
    }
  }
  GS_LOG(kDebug, "amg") << self_ip() << " defer timeout; forming singleton";
  install_singleton();
}

void AdapterProtocol::install_singleton() {
  install(MembershipView::make(++clock_, {self_}));
}

// --- Participant 2PC -----------------------------------------------------------

void AdapterProtocol::handle_prepare(util::IpAddress src, const Prepare& msg) {
  bump_clock(msg.view);
  auto nack = [&](std::uint64_t holder_view) {
    GS_LOG(kDebug, "2pc") << self_ip() << " nacks prepare v" << msg.view
                          << " from " << src << " (holder v" << holder_view
                          << ")";
    PrepareAck ack{};
    ack.view = msg.view;
    ack.ok = false;
    ack.holder_view = holder_view;
    unicast(src, framed(ack));
  };

  if (!committed_.empty() && msg.view <= committed_.view()) {
    nack(committed_.view());
    return;
  }
  if (pending_prepare_ && msg.view < pending_prepare_->view) {
    nack(pending_prepare_->view);
    return;
  }
  if (pending_prepare_ && msg.view == pending_prepare_->view &&
      pending_prepare_->coordinator != src) {
    nack(pending_prepare_->view);
    return;
  }
  if (msg.leader != src) {
    nack(0);
    return;
  }
  MembershipView membership = MembershipView::make(msg.view, msg.members);
  if (!membership.contains(self_ip())) {
    nack(0);
    return;
  }

  PendingPrepare pending;
  pending.view = msg.view;
  pending.coordinator = src;
  pending.membership = std::move(membership);
  if (pending_prepare_) pending_prepare_->expiry.cancel();
  pending_prepare_ = std::make_unique<PendingPrepare>(std::move(pending));
  // Hold the prepared state past the coordinator's worst case: it may ride
  // out every retry ((retries+1) * timeout) before committing the subset.
  pending_prepare_->expiry = sim_.after(
      2 * (params_.twopc_retries + 1) * params_.twopc_timeout, [this] {
        // Coordinator vanished between phases; forget the prepared view.
        pending_prepare_.reset();
      });

  GS_LOG(kDebug, "2pc") << self_ip() << " acks prepare v" << msg.view
                        << " from " << src;
  PrepareAck ack{};
  ack.view = msg.view;
  ack.ok = true;
  unicast(src, framed(ack));
}

void AdapterProtocol::handle_commit(const Commit& msg) {
  bump_clock(msg.view);
  // The commit carries the authoritative final membership (participants
  // whose acks were lost have been excluded), so it is installable on its
  // own: all we require is that it is newer than what we hold and that it
  // includes us. The prepare/ack phase still gates whom the coordinator
  // may include.
  if (!committed_.empty() && msg.view <= committed_.view()) return;
  MembershipView final = MembershipView::make(msg.view, msg.members);
  if (!final.contains(self_ip())) return;  // excluded; rejoin via discovery
  if (pending_prepare_ && pending_prepare_->view <= msg.view) {
    pending_prepare_->expiry.cancel();
    pending_prepare_.reset();
  }
  install(std::move(final));
}

void AdapterProtocol::maybe_implicit_commit(std::uint64_t msg_view) {
  // Group traffic tagged with the prepared view proves the coordinator
  // committed: members only emit view-v messages after installing v. This
  // recovers members whose Commit datagram was lost.
  if (pending_prepare_ && pending_prepare_->view == msg_view)
    install_pending();
}

void AdapterProtocol::install_pending() {
  GS_CHECK(pending_prepare_ != nullptr);
  MembershipView view = std::move(pending_prepare_->membership);
  pending_prepare_->expiry.cancel();
  pending_prepare_.reset();
  install(std::move(view));
}

void AdapterProtocol::install(MembershipView view) {
  GS_CHECK(!view.empty());
  bump_clock(view.view());
  committed_ = std::move(view);
  committed_at_ = sim_.now();
  ++stats_.commits;

  beacon_end_timer_.cancel();
  defer_timer_.cancel();
  if (pending_prepare_ && pending_prepare_->view <= committed_.view()) {
    pending_prepare_->expiry.cancel();
    pending_prepare_.reset();
  }

  const bool lead = committed_.leader().ip == self_ip();
  set_state(lead ? AdapterState::kLeader : AdapterState::kMember);
  trace(obs::TraceKind::kViewInstalled, committed_.leader().ip,
        committed_.view(), committed_.size());
  clear_member_duty_state();

  // Prune the StaleNotice rate-limit map: entries for peers in the new view
  // are moot (their heartbeats go to the detector now), and entries past
  // the rate window carry no information. Otherwise the map accumulates one
  // entry per stale peer ever heard, for as long as we stay committed.
  for (auto stale = stale_notice_sent_.begin();
       stale != stale_notice_sent_.end();) {
    if (committed_.contains(stale->first) ||
        sim_.now() - stale->second >= kStaleNoticeWindow)
      stale = stale_notice_sent_.erase(stale);
    else
      ++stale;
  }

  if (lead) {
    // Drop bookkeeping that the new view made moot.
    for (auto it = suspicions_.begin(); it != suspicions_.end();) {
      if (!committed_.contains(it->first)) {
        it->second.probe_timer.cancel();
        it = suspicions_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = pending_adds_.begin(); it != pending_adds_.end();)
      it = committed_.contains(it->first) ? pending_adds_.erase(it) : ++it;
    for (auto it = pending_removes_.begin(); it != pending_removes_.end();)
      it = !committed_.contains(it->first) ? pending_removes_.erase(it) : ++it;

    // Leaders beacon forever so new/merging adapters can find the group.
    beacon_send_timer_.cancel();
    beacon_tick();
    arm_report_debounce();
    if (!pending_adds_.empty() || !pending_removes_.empty())
      schedule_change();
  } else {
    clear_leader_duty_state();
    beacon_send_timer_.cancel();
  }

  start_fd();
  GS_LOG(kDebug, "amg") << self_ip() << " committed view "
                        << committed_.view() << " size " << committed_.size()
                        << (lead ? " (leader)" : "");
  if (hooks_.on_committed) hooks_.on_committed(committed_);
}

// --- Coordinator 2PC -------------------------------------------------------------

void AdapterProtocol::schedule_change() {
  if (proposal_) {
    dirty_ = true;
    return;
  }
  if (change_timer_.armed()) return;
  change_timer_ = sim_.after(params_.change_debounce, [this] {
    change_timer_ = sim::Timer();
    propose();
  });
}

void AdapterProtocol::propose() {
  if (proposal_) {
    dirty_ = true;
    return;
  }
  if (state_ != AdapterState::kLeader) return;

  // Candidates in precedence order — self, the pending adds, then the
  // committed members not pending removal — since make() keeps the first
  // entry per IP.
  std::vector<MemberInfo> list;
  list.reserve(1 + pending_adds_.size() + committed_.size());
  list.push_back(self_);
  for (const auto& [ip, info] : pending_adds_) list.push_back(info);
  for (const MemberInfo& m : committed_.members())
    if (!pending_removes_.count(m.ip)) list.push_back(m);
  MembershipView proposed = MembershipView::make(clock_ + 1, std::move(list));

  const auto same_ip = [](const MemberInfo& a, const MemberInfo& b) {
    return a.ip == b.ip;
  };
  if (!force_recommit_ && !committed_.empty() &&
      std::equal(proposed.members().begin(), proposed.members().end(),
                 committed_.members().begin(), committed_.members().end(),
                 same_ip)) {
    pending_adds_.clear();
    pending_removes_.clear();
    return;
  }
  force_recommit_ = false;
  pending_adds_.clear();
  pending_removes_.clear();
  ++clock_;
  GS_CHECK_MSG(proposed.leader().ip == self_ip(),
               "coordinator must hold the highest IP in its proposal");

  // Every member but self (rank 0) has an ack outstanding.
  Proposal proposal;
  proposal.awaiting.assign(proposed.size(), true);
  proposal.awaiting[0] = false;
  proposal.awaiting_count = proposed.size() - 1;
  proposal.membership = std::move(proposed);

  if (proposal.awaiting_count == 0) {
    install(proposal.membership);
    return;
  }

  send_prepares(proposal);
  trace(obs::TraceKind::kTwoPcPrepare, {}, proposal.membership.view(),
        proposal.awaiting_count);

  proposal_ = std::move(proposal);
  proposal_->timer =
      sim_.after(params_.twopc_timeout, [this] { twopc_timeout(); });
}

void AdapterProtocol::send_prepares(const Proposal& proposal) {
  Prepare prepare{};
  prepare.view = proposal.membership.view();
  prepare.leader = self_ip();
  prepare.members = proposal.membership.member_list();
  const net::Payload frame = framed(prepare);
  // Ascending IP order, i.e. from the highest rank down.
  for (std::size_t rank = proposal.awaiting.size(); rank-- > 0;)
    if (proposal.awaiting[rank])
      unicast(proposal.membership.member_at(rank).ip, frame);
}

void AdapterProtocol::reinstate_proposal_state(const MembershipView& aborted,
                                               util::IpAddress drop,
                                               RemoveReason drop_reason) {
  // Rebuild pending_adds_/pending_removes_ so the next propose() reproduces
  // `aborted` minus `drop`. Crucially, committed members the aborted
  // proposal already excluded (a dead leader, say) must be re-excluded:
  // propose() captured-and-cleared that state when it ran.
  for (const MemberInfo& m : aborted.members()) {
    if (m.ip == self_ip() || m.ip == drop) continue;
    pending_adds_[m.ip] = m;
  }
  for (const MemberInfo& m : committed_.members()) {
    if (m.ip == self_ip() || aborted.contains(m.ip)) continue;
    auto it = departures_.find(m.ip);
    pending_removes_[m.ip] =
        it == departures_.end() ? RemoveReason::kFailed : it->second;
  }
  if (committed_.contains(drop)) {
    pending_removes_[drop] = drop_reason;
    departures_[drop] = drop_reason;
  }
  force_recommit_ = true;
}

void AdapterProtocol::twopc_timeout() {
  if (!proposal_) return;
  if (proposal_->attempt <= params_.twopc_retries) {
    ++proposal_->attempt;
    send_prepares(*proposal_);
    proposal_->timer =
        sim_.after(params_.twopc_timeout, [this] { twopc_timeout(); });
    return;
  }

  // Retries exhausted: commit the acknowledged subset. Restarting the 2PC
  // without the silent members livelocks under loss (they re-join via
  // beacons as fast as they are dropped), and committing them blind would
  // create phantom members (e.g. a moved leader's stale claims). Excluded
  // members that are in fact alive re-enter through discovery and a later,
  // independent recommit.
  const MembershipView& proposed = proposal_->membership;
  for (std::size_t rank = 0; rank < proposed.size(); ++rank) {
    const util::IpAddress ip = proposed.member_at(rank).ip;
    if (proposal_->awaiting[rank] && committed_.contains(ip))
      departures_[ip] = RemoveReason::kFailed;
  }
  do_commit();
}

void AdapterProtocol::handle_prepare_ack(util::IpAddress src,
                                         const PrepareAck& msg) {
  GS_LOG(kDebug, "2pc") << self_ip() << " got " << (msg.ok ? "ack" : "nack")
                        << " v" << msg.view << " from " << src
                        << (proposal_ ? "" : " (no proposal)");
  if (!proposal_ || msg.view != proposal_->membership.view()) return;
  const auto rank = proposal_->membership.rank_of(src);
  if (!rank || !proposal_->awaiting[*rank]) return;

  if (msg.ok) {
    proposal_->awaiting[*rank] = false;
    if (--proposal_->awaiting_count == 0) do_commit();
    return;
  }

  // The participant is bound to a competing or newer view: step the clock
  // past it, drop the participant from this membership change, and retry.
  bump_clock(msg.holder_view);
  trace(obs::TraceKind::kTwoPcAbort, src, proposal_->membership.view(), 1);
  const MembershipView aborted = std::move(proposal_->membership);
  proposal_->timer.cancel();
  proposal_.reset();
  reinstate_proposal_state(aborted, src, RemoveReason::kLeft);
  schedule_change();
}

void AdapterProtocol::do_commit() {
  GS_CHECK(proposal_.has_value());
  // Final membership = the acknowledged subset: on the all-acked path the
  // proposal itself, otherwise its members minus the silent participants.
  MembershipView membership = proposal_->membership;
  if (proposal_->awaiting_count > 0) {
    std::vector<MemberInfo> acked;
    acked.reserve(membership.size() - proposal_->awaiting_count);
    for (std::size_t rank = 0; rank < membership.size(); ++rank)
      if (!proposal_->awaiting[rank])
        acked.push_back(membership.member_at(rank));
    membership = MembershipView::make(membership.view(), std::move(acked));
  }
  proposal_->timer.cancel();
  proposal_.reset();

  Commit commit{};
  commit.view = membership.view();
  commit.members = membership.member_list();
  if (util::Logger::instance().enabled(util::LogLevel::kDebug)) {
    util::LogLine line(util::LogLevel::kDebug, "2pc");
    line << self_ip() << " commits v" << commit.view << " members:";
    for (const MemberInfo& m : commit.members) line << " " << m.ip;
  }
  const net::Payload frame = framed(commit);
  for (const MemberInfo& m : membership.members())
    if (m.ip != self_ip()) unicast(m.ip, frame);
  trace(obs::TraceKind::kTwoPcCommit, {}, commit.view, membership.size());

  install(std::move(membership));
  if (dirty_) {
    dirty_ = false;
    schedule_change();
  }
}

// --- Leader duties -----------------------------------------------------------------

void AdapterProtocol::handle_beacon(util::IpAddress src, const Beacon& msg) {
  bump_clock(msg.view);
  if (msg.self.ip == self_ip()) return;

  switch (state_) {
    case AdapterState::kBeaconing:
    case AdapterState::kWaitingForLeader: {
      note_heard(msg);
      trace(obs::TraceKind::kBeaconHeard, msg.self.ip, msg.view,
            msg.is_leader ? 1 : 0);
      return;
    }
    case AdapterState::kLeader:
      break;  // handled below
    case AdapterState::kMember:
    case AdapterState::kIdle:
      // "Only the leader continues to multicast and listen" (§2.1): these
      // states left the beacon group, so only a beacon already in flight
      // when the adapter left gets here.
      return;
  }
  (void)src;

  if (!msg.is_leader) {
    // An uncommitted adapter is announcing itself. Absorb it if we outrank
    // it; if it outranks us it will form its own group and absorb us via
    // the leader-merge path, preserving the highest-IP-leads invariant.
    if (msg.self.ip > self_ip()) return;
    if (committed_.contains(msg.self.ip)) {
      // One of our members lost its state (e.g. it reset after a transient
      // isolation): force a re-prepare so it re-installs the view.
      force_recommit_ = true;
    }
    pending_adds_[msg.self.ip] = msg.self;
    pending_removes_.erase(msg.self.ip);
    schedule_change();
    return;
  }

  // Another committed leader shares this segment: merge. The lower-IP
  // leader surrenders its membership to the higher (§2.1).
  if (msg.self.ip > self_ip()) maybe_send_join(msg.self.ip);
}

void AdapterProtocol::maybe_send_join(util::IpAddress higher_leader) {
  const sim::SimTime now = sim_.now();
  if (join_target_ == higher_leader && last_join_sent_ >= 0 &&
      now - last_join_sent_ < params_.join_retry)
    return;
  join_target_ = higher_leader;
  last_join_sent_ = now;
  ++stats_.joins_requested;
  trace(obs::TraceKind::kJoinRequested, higher_leader);

  JoinRequest join{};
  join.view = committed_.empty() ? 0 : committed_.view();
  // Claim only members we can actually speak for: during a takeover the
  // committed view is stale and may still list the dead old leader (or
  // other higher-IP members we excluded) — those are not ours to merge.
  for (const MemberInfo& m : committed_.members())
    if (m.ip <= self_ip()) join.members.push_back(m);
  if (join.members.empty()) join.members.push_back(self_);
  unicast(higher_leader, framed(join));
}

void AdapterProtocol::handle_join_request(const JoinRequest& msg) {
  bump_clock(msg.view);
  if (state_ != AdapterState::kLeader) return;
  for (const MemberInfo& m : msg.members) {
    // Skip anything that would outrank us: a stale requester (e.g. one
    // mid-takeover) may still list members above both of us; absorbing
    // them would break the highest-IP-leads invariant, and if they are
    // alive their own discovery brings them in the right way around.
    if (m.ip >= self_ip()) continue;
    if (committed_.contains(m.ip)) {
      // Already a member on paper, yet it is requesting to join: it never
      // installed our view (lost commit, or it was committed while silent).
      // Re-prepare so it can actually sync up.
      force_recommit_ = true;
    }
    pending_adds_[m.ip] = m;
    pending_removes_.erase(m.ip);
  }
  schedule_change();
}

void AdapterProtocol::leader_handle_suspicion(util::IpAddress suspect,
                                              util::IpAddress reporter) {
  if (suspect == self_ip()) return;
  if (!committed_.contains(suspect)) return;
  if (pending_removes_.count(suspect)) return;

  SuspicionState& s = suspicions_[suspect];
  s.reporters.insert(reporter);

  if (params_.leader_verify) {
    // "the AMG leader first attempts to verify the reported failure" (§2.1).
    if (!s.probing) start_verification(suspect);
    return;
  }
  const int needed = fd_ ? fd_->consensus_reporters() : 1;
  if (static_cast<int>(s.reporters.size()) >= needed) declare_dead(suspect);
}

void AdapterProtocol::start_verification(util::IpAddress suspect) {
  SuspicionState& s = suspicions_[suspect];
  s.probing = true;
  do {
    s.probe_nonce = rng_.next();
  } while (s.probe_nonce == 0);
  s.probes_left = params_.probe_retries + 1;

  Probe probe{};
  probe.nonce = s.probe_nonce;
  unicast(suspect, framed(probe));
  ++stats_.probes_sent;
  trace(obs::TraceKind::kProbeSent, suspect);
  --s.probes_left;
  s.probe_timer = sim_.after(params_.probe_timeout,
                             [this, suspect] { probe_timeout(suspect); });
}

void AdapterProtocol::probe_timeout(util::IpAddress suspect) {
  auto it = suspicions_.find(suspect);
  if (it == suspicions_.end() || !it->second.probing) return;
  SuspicionState& s = it->second;
  if (s.probes_left > 0) {
    Probe probe{};
    probe.nonce = s.probe_nonce;
    unicast(suspect, framed(probe));
    ++stats_.probes_sent;
    trace(obs::TraceKind::kProbeSent, suspect);
    --s.probes_left;
    s.probe_timer = sim_.after(params_.probe_timeout,
                               [this, suspect] { probe_timeout(suspect); });
    return;
  }
  declare_dead(suspect);
}

void AdapterProtocol::declare_dead(util::IpAddress ip) {
  GS_LOG(kDebug, "amg") << self_ip() << " declares " << ip << " dead";
  ++stats_.deaths_declared;
  trace(obs::TraceKind::kDeathDeclared, ip);
  auto it = suspicions_.find(ip);
  if (it != suspicions_.end()) {
    it->second.probe_timer.cancel();
    suspicions_.erase(it);
  }
  pending_adds_.erase(ip);
  pending_removes_[ip] = RemoveReason::kFailed;
  departures_[ip] = RemoveReason::kFailed;
  schedule_change();
}

void AdapterProtocol::arm_report_debounce() {
  // Every membership change while the AMG settles pushes the debounce out;
  // move the pending deadline in place when there is one (same callback).
  if (report_timer_.rearm_after(params_.amg_stable_wait)) return;
  report_timer_ = sim_.after(params_.amg_stable_wait, [this] {
    if (state_ == AdapterState::kLeader && !committed_.empty() &&
        hooks_.on_report_pending)
      hooks_.on_report_pending();
  });
}

MembershipReport AdapterProtocol::build_report() {
  GS_CHECK(state_ == AdapterState::kLeader && !committed_.empty());
  MembershipReport rep;
  rep.seq = ++report_seq_;
  rep.view = committed_.view();
  rep.leader = self_;
  rep.full = need_full_;
  need_full_ = false;

  if (rep.full) {
    rep.added = committed_.members();
    // A full snapshot still conveys known deaths (e.g. the old leader a
    // takeover removed): GSC would otherwise never hear of them, since a
    // fresh leadership always starts with a full report.
    for (const auto& [ip, reason] : departures_) {
      if (committed_.contains(ip)) continue;
      rep.removed.push_back(RemovedMember{ip, reason});
    }
  } else {
    for (const MemberInfo& m : committed_.members())
      if (!last_acked_membership_.contains(m.ip)) rep.added.push_back(m);
    // Removals are listed in ascending IP order: the acked view backwards.
    const std::vector<MemberInfo>& acked = last_acked_membership_.members();
    for (auto m = acked.rbegin(); m != acked.rend(); ++m) {
      const util::IpAddress ip = m->ip;
      if (committed_.contains(ip)) continue;
      RemovedMember removed;
      removed.ip = ip;
      auto it = departures_.find(ip);
      removed.reason = it == departures_.end() ? RemoveReason::kLeft
                                               : it->second;
      rep.removed.push_back(removed);
    }
  }
  pending_snapshot_ = PendingSnapshot{rep.seq, committed_};
  return rep;
}

void AdapterProtocol::report_acked(std::uint64_t seq) {
  if (!pending_snapshot_ || pending_snapshot_->seq != seq) return;
  // Every departure outside the acked snapshot has now been conveyed.
  for (auto it = departures_.begin(); it != departures_.end();)
    it = pending_snapshot_->membership.contains(it->first)
             ? ++it
             : departures_.erase(it);
  last_acked_membership_ = std::move(pending_snapshot_->membership);
  pending_snapshot_.reset();
}

// --- Member duties --------------------------------------------------------------------

void AdapterProtocol::raise_suspicion(util::IpAddress suspect) {
  ++stats_.suspicions_raised;
  if (suspect == self_ip()) return;
  trace(obs::TraceKind::kSuspicionRaised, suspect);

  if (state_ == AdapterState::kLeader) {
    leader_handle_suspicion(suspect, self_ip());
    return;
  }
  if (state_ != AdapterState::kMember || committed_.empty()) return;
  locally_suspected_.insert(suspect);

  if (suspect != leader_ip()) {
    send_suspect(suspect, leader_ip());
    return;
  }

  // The leader itself is suspected: route the report to the first
  // not-yet-suspected successor by rank ("notification is sent to the
  // second ranked adapter", §2.1). If that successor is us, verify and
  // take over; if nobody reachable remains, we are alone — re-discover.
  for (std::size_t rank = 1; rank < committed_.size(); ++rank) {
    const util::IpAddress ip = committed_.member_at(rank).ip;
    if (ip == self_ip()) {
      begin_takeover_check();
      return;
    }
    if (locally_suspected_.count(ip)) continue;
    send_suspect(suspect, ip);
    return;
  }
  reset_to_discovery();
}

void AdapterProtocol::send_suspect(util::IpAddress suspect,
                                   util::IpAddress to) {
  if (outstanding_suspects_.count(suspect)) return;  // already in flight
  OutstandingSuspect out;
  out.to = to;
  out.tries = 1;
  out.timer = sim_.after(params_.suspect_retry,
                         [this, suspect] { suspect_retry_expired(suspect); });
  outstanding_suspects_[suspect] = std::move(out);

  Suspect msg{};
  msg.view = committed_.view();
  msg.suspect = suspect;
  unicast(to, framed(msg));
  ++stats_.suspects_sent;
  trace(obs::TraceKind::kSuspectSent, suspect);
}

void AdapterProtocol::suspect_retry_expired(util::IpAddress suspect) {
  auto it = outstanding_suspects_.find(suspect);
  if (it == outstanding_suspects_.end()) return;
  OutstandingSuspect& out = it->second;
  if (out.tries < params_.suspect_retries) {
    ++out.tries;
    Suspect msg{};
    msg.view = committed_.view();
    msg.suspect = suspect;
    unicast(out.to, framed(msg));
    ++stats_.suspects_sent;
    trace(obs::TraceKind::kSuspectSent, suspect);
    out.timer = sim_.after(params_.suspect_retry,
                           [this, suspect] { suspect_retry_expired(suspect); });
    return;
  }

  // The recipient never acknowledged: it is unreachable from here.
  const util::IpAddress failed_recipient = out.to;
  outstanding_suspects_.erase(it);
  if (state_ != AdapterState::kMember) return;

  if (failed_recipient == leader_ip() && suspect != leader_ip()) {
    // "it can no longer reach the group leader" (§3.1): escalate.
    raise_suspicion(leader_ip());
    return;
  }
  // A successor was unreachable during leader suspicion: mark it and walk
  // to the next rank.
  locally_suspected_.insert(failed_recipient);
  if (suspect == leader_ip()) raise_suspicion(leader_ip());
}

void AdapterProtocol::begin_takeover_check() {
  if (takeover_) return;
  Takeover takeover;
  do {
    takeover.nonce = rng_.next();
  } while (takeover.nonce == 0);
  takeover.probes_left = params_.probe_retries + 1;
  takeover_ = std::move(takeover);

  Probe probe{};
  probe.nonce = takeover_->nonce;
  unicast(leader_ip(), framed(probe));
  ++stats_.probes_sent;
  --takeover_->probes_left;
  takeover_->timer = sim_.after(params_.probe_timeout,
                                [this] { takeover_probe_timeout(); });
}

void AdapterProtocol::takeover_probe_timeout() {
  if (!takeover_) return;
  if (takeover_->probes_left > 0) {
    Probe probe{};
    probe.nonce = takeover_->nonce;
    unicast(leader_ip(), framed(probe));
    ++stats_.probes_sent;
    --takeover_->probes_left;
    takeover_->timer = sim_.after(params_.probe_timeout,
                                  [this] { takeover_probe_timeout(); });
    return;
  }
  do_takeover();
}

void AdapterProtocol::do_takeover() {
  takeover_.reset();
  if (state_ != AdapterState::kMember || committed_.empty()) return;
  ++stats_.takeovers;
  trace(obs::TraceKind::kTakeover, leader_ip());
  GS_LOG(kDebug, "amg") << self_ip() << " taking over leadership from "
                        << leader_ip();

  const auto my_rank = committed_.rank_of(self_ip());
  GS_CHECK(my_rank.has_value());

  // Exclude the dead leader and every higher-ranked member: succession only
  // reaches us once all of them are suspected or unreachable, and the
  // coordinator of a proposal must hold its highest IP. A falsely excluded
  // member recovers through StaleNotice + re-discovery.
  pending_removes_[leader_ip()] = RemoveReason::kFailed;
  departures_[leader_ip()] = RemoveReason::kFailed;
  for (std::size_t rank = 1; rank < *my_rank; ++rank) {
    const util::IpAddress ip = committed_.member_at(rank).ip;
    pending_removes_[ip] = RemoveReason::kFailed;
    departures_[ip] = RemoveReason::kFailed;
  }
  set_state(AdapterState::kLeader);
  need_full_ = true;  // fresh leadership: establish the group at GSC anew
  force_recommit_ = true;
  propose();
}

void AdapterProtocol::reset_to_discovery() {
  ++stats_.resets;
  trace(obs::TraceKind::kReset);
  GS_LOG(kDebug, "amg") << self_ip() << " resetting to discovery";
  stop_fd();
  clear_member_duty_state();
  clear_leader_duty_state();
  committed_ = MembershipView();
  committed_at_ = -1;
  if (pending_prepare_) {
    pending_prepare_->expiry.cancel();
    pending_prepare_.reset();
  }
  stale_notice_sent_.clear();
  if (hooks_.on_reset) hooks_.on_reset();
  begin_beaconing();
}

// --- Shared helpers ------------------------------------------------------------------

void AdapterProtocol::start_fd() {
  util::Rng rng = rng_.fork(0xFD + committed_.view());
  if (fd_ && fd_->kind() == params_.fd_kind) {
    fd_->restart(committed_, rng);
    return;
  }
  stop_fd();
  FdContext ctx;
  ctx.sim = &sim_;
  ctx.params = &params_;
  ctx.self = self_ip();
  GS_CHECK(net_.unicast != nullptr);
  ctx.send = net_.unicast;
  ctx.suspect = [this](util::IpAddress ip) { raise_suspicion(ip); };
  ctx.loopback_ok = net_.loopback_ok;
  ctx.rng = rng;
  ctx.encode_scratch = &scratch_;
  ctx.heartbeat_frames = &heartbeat_frames_;
  fd_ = make_failure_detector(params_.fd_kind, std::move(ctx));
  fd_->start(committed_);
}

void AdapterProtocol::stop_fd() {
  if (fd_) {
    fd_->stop();
    fd_.reset();
  }
}

void AdapterProtocol::clear_member_duty_state() {
  for (auto& [ip, out] : outstanding_suspects_) out.timer.cancel();
  outstanding_suspects_.clear();
  locally_suspected_.clear();
  if (takeover_) {
    takeover_->timer.cancel();
    takeover_.reset();
  }
}

void AdapterProtocol::clear_leader_duty_state() {
  if (proposal_) {
    // Leadership ended (demotion, reset, or shutdown) with a round still
    // uncommitted: the proposal dies here, b=2 distinguishes it from a
    // nack abort.
    trace(obs::TraceKind::kTwoPcAbort, {}, proposal_->membership.view(), 2);
    proposal_->timer.cancel();
    proposal_.reset();
  }
  change_timer_.cancel();
  dirty_ = false;
  force_recommit_ = false;
  pending_adds_.clear();
  pending_removes_.clear();
  for (auto& [ip, s] : suspicions_) s.probe_timer.cancel();
  suspicions_.clear();
  join_target_ = util::IpAddress();
  last_join_sent_ = -1;
  report_timer_.cancel();
  // Reporting restarts from scratch on the next leadership.
  need_full_ = true;
  last_acked_membership_ = MembershipView();
  pending_snapshot_.reset();
  departures_.clear();
}

// --- Dispatch -------------------------------------------------------------------------

HandleResult AdapterProtocol::handle_frame(util::IpAddress src, MsgType type,
                                           FrameRef frame) {
  // Every case decodes through frame.get(): the first receiver of a shared
  // payload fills its cache, later receivers read it. `scratch` only
  // engages when the payload is unshared or the cache is disabled.
  switch (type) {
    case MsgType::kBeacon: {
      std::optional<Beacon> scratch;
      const Beacon* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      handle_beacon(src, *msg);
      return HandleResult::kHandled;
    }
    case MsgType::kJoinRequest: {
      std::optional<JoinRequest> scratch;
      const JoinRequest* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      handle_join_request(*msg);
      return HandleResult::kHandled;
    }
    case MsgType::kPrepare: {
      std::optional<Prepare> scratch;
      const Prepare* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      handle_prepare(src, *msg);
      return HandleResult::kHandled;
    }
    case MsgType::kPrepareAck: {
      std::optional<PrepareAck> scratch;
      const PrepareAck* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      handle_prepare_ack(src, *msg);
      return HandleResult::kHandled;
    }
    case MsgType::kCommit: {
      std::optional<Commit> scratch;
      const Commit* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      handle_commit(*msg);
      return HandleResult::kHandled;
    }
    case MsgType::kHeartbeat: {
      std::optional<Heartbeat> scratch;
      const Heartbeat* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      bump_clock(msg->view);
      maybe_implicit_commit(msg->view);
      if (!is_committed()) return HandleResult::kHandled;
      // Fast path first: the steady-state heartbeat comes from a monitored
      // neighbour and skips the membership search. Sound because start_fd()
      // runs with committed_ on every install, and committed_ is otherwise
      // only cleared next to stop_fd(), so the detector's monitored peers
      // are always a subset of committed_. A heartbeat the detector does
      // not consume falls back to the full check.
      if (fd_ && fd_->on_heartbeat(src, *msg)) return HandleResult::kHandled;
      if (committed_.contains(src)) return HandleResult::kHandled;
      if (msg->view <= committed_.view()) {
        // A stale ex-member is still heartbeating us: tell it to rejoin.
        // Equality counts as stale too — view numbers of *different* group
        // incarnations are not ordered, and a restarted neighbor's new group
        // can land on exactly our number. A genuinely newer view that adds
        // us keeps msg->view strictly above anything we have committed, so
        // healthy group-mates are never told off.
        auto& last = stale_notice_sent_[src];
        if (last == 0 || sim_.now() - last >= kStaleNoticeWindow) {
          last = sim_.now();
          StaleNotice notice{};
          notice.current_view = committed_.view();
          unicast(src, framed(notice));
          ++stats_.stale_notices_sent;
        }
      }
      return HandleResult::kHandled;
    }
    case MsgType::kSuspect: {
      std::optional<Suspect> scratch;
      const Suspect* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      bump_clock(msg->view);
      maybe_implicit_commit(msg->view);
      SuspectAck ack{};
      ack.view = msg->view;
      ack.suspect = msg->suspect;
      unicast(src, framed(ack));
      if (msg->suspect == self_ip()) return HandleResult::kHandled;
      if (state_ == AdapterState::kLeader) {
        leader_handle_suspicion(msg->suspect, src);
      } else if (state_ == AdapterState::kMember && !committed_.empty() &&
                 msg->suspect == leader_ip() && committed_.contains(src)) {
        // We were told the leader is dead. Run the same successor walk a
        // local suspicion would: if every rank above us is already suspect
        // we verify and take over; otherwise we forward toward the true
        // successor (the reporter may simply have been unable to reach it).
        raise_suspicion(msg->suspect);
      }
      return HandleResult::kHandled;
    }
    case MsgType::kSuspectAck: {
      std::optional<SuspectAck> scratch;
      const SuspectAck* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      auto it = outstanding_suspects_.find(msg->suspect);
      if (it != outstanding_suspects_.end() && it->second.to == src) {
        it->second.timer.cancel();
        outstanding_suspects_.erase(it);
      }
      return HandleResult::kHandled;
    }
    case MsgType::kProbe: {
      // Liveness probes are answered in every state: the question is "is
      // this adapter alive", not "is it in my group". The ack additionally
      // states whether we lead a committed view containing the prober, so a
      // takeover probe can distinguish "leader alive and still mine" from
      // "alive, but it restarted and abandoned us".
      std::optional<Probe> scratch;
      const Probe* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      ProbeAck ack{};
      ack.nonce = msg->nonce;
      ack.leads_prober = state_ == AdapterState::kLeader && is_committed() &&
                         committed_.contains(src);
      unicast(src, framed(ack));
      return HandleResult::kHandled;
    }
    case MsgType::kProbeAck: {
      std::optional<ProbeAck> scratch;
      const ProbeAck* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      if (takeover_ && msg->nonce == takeover_->nonce) {
        takeover_->timer.cancel();
        if (msg->leads_prober) {
          // The leader is alive and still counts us a member; stand down.
          takeover_.reset();
          locally_suspected_.erase(leader_ip());
          return HandleResult::kHandled;
        }
        // Alive, but it no longer leads a view containing us: the leader
        // restarted (sub-detection-threshold blip) or was absorbed into
        // another group, silently orphaning this one. Mere liveness must
        // not veto the succession — leadership of our view is vacant.
        do_takeover();
        return HandleResult::kHandled;
      }
      for (auto it = suspicions_.begin(); it != suspicions_.end(); ++it) {
        if (it->second.probing && it->second.probe_nonce == msg->nonce) {
          ++stats_.probes_refuted;
          trace(obs::TraceKind::kProbeRefuted, it->first);
          it->second.probe_timer.cancel();
          suspicions_.erase(it);
          return HandleResult::kHandled;
        }
      }
      return HandleResult::kHandled;
    }
    case MsgType::kStaleNotice: {
      std::optional<StaleNotice> scratch;
      const StaleNotice* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      bump_clock(msg->current_view);
      if (state_ == AdapterState::kMember ||
          state_ == AdapterState::kWaitingForLeader)
        reset_to_discovery();
      return HandleResult::kHandled;
    }
    case MsgType::kPing: {
      std::optional<Ping> scratch;
      const Ping* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      PingAck ack{};
      ack.nonce = msg->nonce;
      ack.target = self_ip();
      unicast(msg->origin, framed(ack));
      return HandleResult::kHandled;
    }
    case MsgType::kPingAck: {
      std::optional<PingAck> scratch;
      const PingAck* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      if (fd_) fd_->on_ping_ack(src, *msg);
      return HandleResult::kHandled;
    }
    case MsgType::kPingReq: {
      std::optional<PingReq> scratch;
      const PingReq* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      if (fd_) fd_->on_ping_req(src, *msg);
      return HandleResult::kHandled;
    }
    case MsgType::kSubgroupPoll: {
      std::optional<SubgroupPoll> scratch;
      const SubgroupPoll* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      SubgroupPollAck ack{};
      ack.seq = msg->seq;
      unicast(src, framed(ack));
      return HandleResult::kHandled;
    }
    case MsgType::kSubgroupPollAck: {
      std::optional<SubgroupPollAck> scratch;
      const SubgroupPollAck* msg = frame.get(scratch);
      if (msg == nullptr) return HandleResult::kDecodeError;
      if (fd_) fd_->on_subgroup_poll_ack(src, *msg);
      return HandleResult::kHandled;
    }
    case MsgType::kMembershipReport:
    case MsgType::kReportAck:
    case MsgType::kDomainReport:
    case MsgType::kDomainReportAck:
      // Routed by the daemon before frames reach the protocol.
      return HandleResult::kHandled;
  }
  return HandleResult::kUnknownType;
}

}  // namespace gs::proto
