#include "gs/central.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace gs::proto {

std::string_view to_string(FarmEvent::Kind kind) {
  switch (kind) {
    case FarmEvent::Kind::kGscActivated: return "gsc-activated";
    case FarmEvent::Kind::kGscDeactivated: return "gsc-deactivated";
    case FarmEvent::Kind::kInitialTopologyStable: return "topology-stable";
    case FarmEvent::Kind::kAdapterFailed: return "adapter-failed";
    case FarmEvent::Kind::kAdapterRecovered: return "adapter-recovered";
    case FarmEvent::Kind::kNodeFailed: return "node-failed";
    case FarmEvent::Kind::kNodeRecovered: return "node-recovered";
    case FarmEvent::Kind::kSwitchFailed: return "switch-failed";
    case FarmEvent::Kind::kSwitchRecovered: return "switch-recovered";
    case FarmEvent::Kind::kMoveInitiated: return "move-initiated";
    case FarmEvent::Kind::kMoveCompleted: return "move-completed";
    case FarmEvent::Kind::kUnexpectedMove: return "unexpected-move";
    case FarmEvent::Kind::kInconsistencyFound: return "inconsistency";
    case FarmEvent::Kind::kAdapterQuarantined: return "adapter-quarantined";
  }
  return "?";
}

Central::Central(sim::TimeSource& clock, const Params& params,
                 config::ConfigDb* db, net::SwitchConsole* console)
    : sim_(clock), params_(params), db_(db), console_(console) {}

Central::~Central() { cancel_all_timers(); }

void Central::cancel_all_timers() {
  for (auto& [ip, state] : expected_moves_) state.deadline.cancel();
  for (auto& [ip, timer] : held_failures_) timer.cancel();
  stability_timer_.cancel();
  lease_timer_.cancel();
}

void Central::emit(FarmEvent event) {
  event.time = sim_.now();
  event.source = self_ip_;
  GS_LOG(kDebug, "gsc") << to_string(event.kind)
                        << (event.detail.empty() ? "" : ": ") << event.detail;
  event_bus_.publish(event);
}

void Central::trace(obs::TraceKind kind, util::IpAddress ip, std::uint64_t a) {
  obs::emit_trace(params_.trace, kind, sim_.now(), self_ip_, ip, a);
}

void Central::clear_all_state() {
  groups_.clear();
  adapters_.clear();
  for (auto& [ip, state] : expected_moves_) state.deadline.cancel();
  expected_moves_.clear();
  for (auto& [ip, timer] : held_failures_) timer.cancel();
  held_failures_.clear();
  stability_timer_.cancel();
  lease_timer_.cancel();
  stable_ = false;
  stable_time_ = -1;
  nodes_down_.clear();
  switches_down_.clear();
  snmp_wiring_.clear();
  quarantined_.clear();
  reports_received_ = 0;
}

void Central::activate(util::IpAddress self_admin_ip) {
  if (active_ && self_ip_ == self_admin_ip) return;
  clear_all_state();
  active_ = true;
  self_ip_ = self_admin_ip;
  arm_lease_sweep();
  if (observer_ != nullptr) observer_->central_activated();
  // Past the early-return above, the trace always means "fresh, empty
  // tables" — the span tracker relies on that to void its mirrored
  // verdicts.
  trace(obs::TraceKind::kGscActivated);
  FarmEvent event{};
  event.kind = FarmEvent::Kind::kGscActivated;
  event.ip = self_admin_ip;
  emit(std::move(event));
}

void Central::deactivate() {
  if (!active_) return;
  active_ = false;
  clear_all_state();
  if (observer_ != nullptr) observer_->central_deactivated();
  trace(obs::TraceKind::kGscDeactivated);
  FarmEvent event{};
  event.kind = FarmEvent::Kind::kGscDeactivated;
  event.ip = self_ip_;
  emit(std::move(event));
  self_ip_ = util::IpAddress();
}

void Central::arm_stability_timer() {
  if (stable_) return;
  stability_timer_.cancel();
  stability_timer_ = sim_.after(params_.gsc_stable_wait, [this] {
    stable_ = true;
    stable_time_ = sim_.now();
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kInitialTopologyStable;
    emit(std::move(event));
  });
}

void Central::handle_report(util::IpAddress from,
                            const MembershipReport& report,
                            const std::function<void(const ReportAck&)>& reply) {
  (void)from;
  if (!active_) return;
  ++reports_received_;

  ReportAck ack{};
  ack.seq = report.seq;
  ack.leader = report.leader.ip;

  auto it = groups_.find(report.leader.ip);
  const bool duplicate =
      it != groups_.end() &&
      (report.full ? report.seq == it->second.last_seq &&
                         report.view == it->second.view
                   : report.seq <= it->second.last_seq);
  if (duplicate) {
    // Duplicate of something already applied — idempotent ack. A *full*
    // report is a duplicate only when BOTH its seq and view match the
    // record: a restarted leader's daemon numbers reports from scratch
    // (its counter died with the process), so its fresh snapshot can
    // collide with last_seq at small values while carrying a different
    // view. The (seq, view) pair identifies the snapshot; anything else —
    // regressed seq, colliding seq with a new view — is the leader
    // establishing the group anew. Ack-without-apply would wedge the
    // group here forever, every fresh report looking "stale". Let the
    // snapshot fall through and reset last_seq.
    //
    // Even a duplicate renews the group's lease: it is first-hand evidence
    // the leader is alive and still claims the group. Without this, a
    // leader whose reports all look stale would have its group lease-expired
    // and every member declared dead while the leader is healthy.
    it->second.last_report = sim_.now();
    if (report.full)
      obs::emit_trace(params_.trace, obs::TraceKind::kGscReportDup, sim_.now(),
                      self_ip_, report.leader.ip, report.seq, report.view);
    reply(ack);
    return;
  }
  if (!report.full &&
      (it == groups_.end() || report.seq != it->second.last_seq + 1)) {
    // Never saw this group's snapshot (fresh GSC) or a delta went missing.
    // A rejected delta for a KNOWN group still proves its leader alive and
    // claiming the group, so it renews the lease — without this, a leader
    // stuck in need_full (its fulls lost to the wire) has its live group
    // expired by lease_sweep while it is actively reporting. It must NOT
    // touch the member table though: when the group was already retired
    // (it == end), applying anything from the stale delta would resurrect
    // the group with stale members; the full we are asking for re-creates
    // it from scratch instead.
    if (it != groups_.end()) it->second.last_report = sim_.now();
    ack.need_full = true;
    reply(ack);
    return;
  }

  // Initial-topology stability means no *news* for gsc_stable_wait. A
  // periodic lease refresh re-states the view and member set we already
  // hold and must not push stability out, or a farm with report_refresh <
  // gsc_stable_wait would never stabilize.
  bool news = it == groups_.end() || report.view != it->second.view;
  if (!news && report.full) {
    std::set<util::IpAddress> incoming;
    for (const MemberInfo& m : report.added) incoming.insert(m.ip);
    news = incoming != it->second.members;
  } else if (!news) {
    news = !report.added.empty() || !report.removed.empty();
  }
  if (news) arm_stability_timer();

  Group& group = groups_[report.leader.ip];
  group.leader = report.leader;
  group.view = report.view;
  group.last_seq = report.seq;
  group.last_report = sim_.now();
  // Every report is first-hand evidence that its sending leader is alive,
  // overriding any stale death claim a third party may have lodged.
  attest_leader(report.leader);

  if (report.full) {
    const std::set<util::IpAddress> old_members = group.members;
    // Groups led by adapters this snapshot removes, as they stood before
    // the claims below move their survivors out: the majority rule for a
    // leader's death counts the absorbed members against these.
    std::map<util::IpAddress, std::set<util::IpAddress>> led_before;
    for (const RemovedMember& rm : report.removed) {
      auto led = groups_.find(rm.ip);
      if (led != groups_.end()) led_before.emplace(rm.ip, led->second.members);
    }
    group.members.clear();
    for (const MemberInfo& m : report.added) {
      if (!claim_member(m, report.leader.ip, report.view)) continue;
      mark_alive(m, report.leader.ip);
    }
    // Members silently absent from the snapshot departed without a death
    // notice (e.g. merged away while we were failing over): unassign only.
    for (util::IpAddress ip : old_members) {
      if (group.members.count(ip)) continue;
      auto rec = adapters_.find(ip);
      if (rec != adapters_.end() && rec->second.group_leader == report.leader.ip)
        unassign(ip);
    }
    // A full snapshot can still carry deaths — notably the old leader a
    // takeover removed, which no delta will ever mention.
    auto judge_removed = [&](const RemovedMember& rm) {
      if (rm.ip == report.leader.ip) return;  // a leader never removes itself
      if (group.members.count(rm.ip)) return;  // re-added since
      auto rec = adapters_.find(rm.ip);
      if (rec == adapters_.end()) {
        // A death claim for an adapter this instance never learned of —
        // the victim was removed before our full-snapshot rebuild (GSC
        // failover or a healed partition island). Consuming the claim
        // here means no commit will ever follow; say so on the trace bus.
        if (rm.reason == RemoveReason::kFailed)
          trace(obs::TraceKind::kGscDeathUnknown, rm.ip);
        return;
      }
      const util::IpAddress holder = rec->second.group_leader;
      // Skip if some third group claims the adapter (its reports win).
      if (!holder.is_unspecified() && holder != report.leader.ip &&
          holder != rm.ip)
        return;
      if (holder == rm.ip && holder != report.leader.ip) {
        // The removed adapter leads a group of its own per our records.
        // Accept the death claim only if the reporter's group absorbed a
        // strict majority of that group's other members, the reporter
        // included — the legitimate-takeover signature. A single adapter
        // (or any half or less) that was moved or partitioned away (§3.1)
        // also believes its old leader died, but carries no such majority,
        // and must not be allowed to kill a live leader here.
        auto old_group = led_before.find(rm.ip);
        if (old_group != led_before.end()) {
          std::size_t peers = 0, absorbed = 0;
          for (util::IpAddress ip : old_group->second) {
            if (ip == rm.ip) continue;
            ++peers;
            if (group.members.count(ip)) ++absorbed;
          }
          if (peers > 0 && absorbed * 2 <= peers) return;
        }
      }
      if (rm.reason == RemoveReason::kFailed)
        mark_failed(rm.ip);
      else
        unassign(rm.ip);
    };
    // Removed leaders first: a takeover also removes every member ranked
    // above the successor, and until the old leader's death retires its
    // group those members count as claimed by that third group.
    for (const RemovedMember& rm : report.removed)
      if (led_before.count(rm.ip)) judge_removed(rm);
    for (const RemovedMember& rm : report.removed)
      if (!led_before.count(rm.ip)) judge_removed(rm);
  } else {
    for (const MemberInfo& m : report.added) {
      if (!claim_member(m, report.leader.ip, report.view)) continue;
      mark_alive(m, report.leader.ip);
    }
    for (const RemovedMember& rm : report.removed) {
      auto rec = adapters_.find(rm.ip);
      if (rec == adapters_.end()) {
        // Same dead-end as the full-snapshot path: the claim is consumed
        // by an instance with no record to commit against.
        if (rm.reason == RemoveReason::kFailed)
          trace(obs::TraceKind::kGscDeathUnknown, rm.ip);
        continue;
      }
      if (rec->second.group_leader != report.leader.ip)
        continue;  // already claimed elsewhere (merge won the race)
      groups_[report.leader.ip].members.erase(rm.ip);
      if (rm.reason == RemoveReason::kFailed)
        mark_failed(rm.ip);
      else
        unassign(rm.ip);
    }
  }
  // Records left with no members — every claim fenced as stale, the leader
  // itself held by a fresher view, or a lone member unassigned away — carry
  // no information; drop them now rather than letting them sit until their
  // lease expires. This sweep is the ONLY place empty records are erased:
  // unassign() must not erase mid-report, because handle_report holds a
  // reference into groups_ across the reconciliation loops above.
  std::erase_if(groups_,
                [](const auto& entry) { return entry.second.members.empty(); });
  obs::emit_trace(params_.trace, obs::TraceKind::kGscReportApplied, sim_.now(),
                  self_ip_, report.leader.ip, report.seq, report.view);
  reply(ack);
}

void Central::arm_lease_sweep() {
  // Lease expiry only makes sense while leaders renew: with report_refresh
  // disabled a healthy-but-unchanged group never re-reports, and sweeping
  // would declare its whole membership dead on schedule.
  if (params_.group_lease <= 0 || params_.report_refresh <= 0) return;
  const sim::SimDuration period =
      std::max<sim::SimDuration>(params_.group_lease / 4, sim::kSecond);
  lease_timer_ = sim_.after(period, [this] { lease_sweep(); });
}

void Central::lease_sweep() {
  lease_timer_ = sim::Timer();
  if (!active_) return;
  // A group whose leader has been silent past its lease died wholesale:
  // there was no survivor left to send the death notice (§3's partition
  // corner — the last node of an isolated segment half going down). Leaders
  // refresh every report_refresh, so a live group never goes this quiet.
  std::vector<util::IpAddress> expired;
  for (const auto& [leader_ip, group] : groups_)
    if (sim_.now() - group.last_report > params_.group_lease)
      expired.push_back(leader_ip);
  for (util::IpAddress leader_ip : expired) {
    auto it = groups_.find(leader_ip);
    if (it == groups_.end()) continue;  // retired by an earlier expiry
    GS_LOG(kDebug, "gsc") << "group lease expired for leader " << leader_ip;
    const std::set<util::IpAddress> members = it->second.members;
    for (util::IpAddress ip : members) {
      if (ip == leader_ip) continue;
      auto rec = adapters_.find(ip);
      // Only members the expired group still owns: anyone a fresher group
      // has claimed since is accounted for by that group's lease.
      if (rec != adapters_.end() && rec->second.group_leader == leader_ip)
        mark_failed(ip);
    }
    auto leader_rec = adapters_.find(leader_ip);
    if (leader_rec != adapters_.end() &&
        leader_rec->second.group_leader == leader_ip)
      mark_failed(leader_ip);
    retire_group(leader_ip);  // mark_failed no-ops if already recorded dead
  }
  arm_lease_sweep();
}

void Central::attest_leader(const MemberInfo& leader) {
  auto it = adapters_.find(leader.ip);
  if (it == adapters_.end()) return;
  if (it->second.alive && !held_failures_.count(leader.ip)) return;
  // The adapter is talking while recorded dead (or dying): mark_alive sorts
  // out which story this is — a held failure becomes an unexpected move
  // (the §3.1 signature: the "new group" here is the mover's own
  // singleton), an expected move progresses, a committed death becomes a
  // recovery.
  mark_alive(leader, leader.ip);
}

bool Central::claim_member(const MemberInfo& m, util::IpAddress leader,
                           std::uint64_t view) {
  AdapterRec& rec = adapters_[m.ip];
  const util::IpAddress previous = rec.group_leader;
  if (!previous.is_unspecified() && previous != leader) {
    auto prev_group = groups_.find(previous);
    if (prev_group != groups_.end() && prev_group->second.members.count(m.ip) &&
        prev_group->second.view > view) {
      // View fence: a report must not steal a member a fresher view holds.
      // The race: a deposed leader's last report (sent before it learned of
      // the takeover) arrives after the new leader's snapshot — applying it
      // would resurrect the dead group with the members inside, and nothing
      // in the new leader's delta stream would ever claim them back.
      return false;
    }
    if (prev_group != groups_.end()) prev_group->second.members.erase(m.ip);
  }
  rec.group_leader = leader;
  groups_[leader].members.insert(m.ip);
  notify_changed(m.ip);

  // If this member used to lead a group of its own, that group has been
  // absorbed: retire it and release any members it still held.
  if (m.ip != leader) {
    auto absorbed = groups_.find(m.ip);
    if (absorbed != groups_.end()) {
      const std::set<util::IpAddress> orphans = absorbed->second.members;
      groups_.erase(absorbed);
      for (util::IpAddress ip : orphans) {
        if (ip == m.ip) continue;
        auto orphan_rec = adapters_.find(ip);
        if (orphan_rec != adapters_.end() &&
            orphan_rec->second.group_leader == m.ip)
          unassign(ip);
      }
    }
  }
  return true;
}

void Central::unassign(util::IpAddress ip) {
  auto it = adapters_.find(ip);
  if (it == adapters_.end()) return;
  auto group = groups_.find(it->second.group_leader);
  // Do not erase the record here even if it just became empty: handle_report
  // calls unassign() while holding a reference into groups_, and erasing the
  // referenced record would leave it dangling. The sweep at the end of
  // handle_report retires empty records instead.
  if (group != groups_.end()) group->second.members.erase(ip);
  it->second.group_leader = util::IpAddress();
  notify_changed(ip);
}

void Central::mark_alive(const MemberInfo& m, util::IpAddress leader) {
  AdapterRec& rec = adapters_[m.ip];
  const bool was_dead = !rec.alive && rec.last_change != 0;
  rec.info = m;
  rec.alive = true;
  rec.group_leader = leader;
  rec.last_change = sim_.now();
  notify_changed(m.ip);
  // Whatever story this turns out to be (held-failure move, expected move,
  // or plain recovery), the recorded verdict just flipped back to alive.
  if (was_dead) trace(obs::TraceKind::kGscAdapterAlive, m.ip);

  // A join while a failure notice is being held for the move window is the
  // §3.1 signature of a domain move GulfStream did not initiate.
  auto held = held_failures_.find(m.ip);
  if (held != held_failures_.end()) {
    held->second.cancel();
    held_failures_.erase(held);
    std::ostringstream detail;
    detail << m.ip << " reappeared under leader " << leader
           << " — inferred unexpected domain move";
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kUnexpectedMove;
    event.ip = m.ip;
    event.node = m.node;
    event.detail = detail.str();
    emit(std::move(event));
    return;
  }

  auto move = expected_moves_.find(m.ip);
  if (move != expected_moves_.end()) {
    move->second.seen_join = true;
    maybe_complete_move(m.ip);
    return;
  }

  if (was_dead) {
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kAdapterRecovered;
    event.ip = m.ip;
    event.node = m.node;
    emit(std::move(event));
    correlate_recovery(m.ip);
  }
}

void Central::retire_group(util::IpAddress leader_ip) {
  // A dead adapter leads nothing: drop any group still recorded under it.
  // Its surviving members were claimed by the successor's full report;
  // whoever remains goes unassigned until some leader claims them.
  auto led = groups_.find(leader_ip);
  if (led == groups_.end()) return;
  const std::set<util::IpAddress> orphans = led->second.members;
  groups_.erase(led);
  for (util::IpAddress orphan : orphans) {
    if (orphan == leader_ip) continue;
    auto rec = adapters_.find(orphan);
    if (rec != adapters_.end() && rec->second.group_leader == leader_ip) {
      rec->second.group_leader = util::IpAddress();
      notify_changed(orphan);
    }
  }
}

void Central::mark_failed(util::IpAddress ip) {
  auto it = adapters_.find(ip);
  if (it == adapters_.end() || !it->second.alive) return;
  it->second.alive = false;
  it->second.last_change = sim_.now();
  notify_changed(ip);

  retire_group(ip);
  if (it->second.group_leader == ip) it->second.group_leader = util::IpAddress();

  auto move = expected_moves_.find(ip);
  if (move != expected_moves_.end()) {
    // Expected: GSC performed this reconfiguration itself — "external
    // failure notifications are suppressed" (§3.1).
    move->second.seen_fail = true;
    maybe_complete_move(ip);
    return;
  }

  // Hold the external notification for the move window so a prompt rejoin
  // elsewhere can be recognized as a move rather than a death.
  trace(obs::TraceKind::kFailureHeld, ip);
  auto& timer = held_failures_[ip];
  timer.cancel();
  timer = sim_.after(params_.move_window, [this, ip] { commit_failure(ip); });
}

void Central::commit_failure(util::IpAddress ip) {
  held_failures_.erase(ip);
  auto it = adapters_.find(ip);
  if (it == adapters_.end() || it->second.alive) return;
  trace(obs::TraceKind::kFailureCommitted, ip);
  FarmEvent event{};
  event.kind = FarmEvent::Kind::kAdapterFailed;
  event.ip = ip;
  event.node = it->second.info.node;
  emit(std::move(event));
  correlate_failure(ip);
}

void Central::maybe_complete_move(util::IpAddress ip) {
  auto it = expected_moves_.find(ip);
  if (it == expected_moves_.end()) return;
  if (!(it->second.seen_fail && it->second.seen_join)) return;
  it->second.deadline.cancel();
  const util::VlanId target = it->second.target;
  expected_moves_.erase(it);
  FarmEvent event{};
  event.kind = FarmEvent::Kind::kMoveCompleted;
  event.ip = ip;
  event.vlan = target;
  emit(std::move(event));
}

// --- Correlation (§3) ---------------------------------------------------------

void Central::correlate_failure(util::IpAddress ip) {
  auto it = adapters_.find(ip);
  if (it == adapters_.end()) return;
  const util::NodeId node = it->second.info.node;

  // Node inference: "if all of the adapters connected to a server are
  // reported as failed, then we infer that the server itself has failed."
  if (node.valid() && !nodes_down_.count(node)) {
    std::size_t seen = 0;
    bool any_alive = false;
    for (const auto& [aip, rec] : adapters_) {
      if (rec.info.node != node) continue;
      ++seen;
      if (rec.alive) any_alive = true;
    }
    std::size_t expected = seen;
    if (db_) expected = db_->adapters_of_node(node).size();
    if (seen > 0 && !any_alive && seen >= expected) {
      nodes_down_.insert(node);
      obs::emit_trace(params_.trace, obs::TraceKind::kNodeDown, sim_.now(),
                      self_ip_, ip, 0, 0, {}, node);
      FarmEvent event{};
      event.kind = FarmEvent::Kind::kNodeFailed;
      event.node = node;
      emit(std::move(event));
    }
  }

  // Switch inference needs wiring knowledge — from the configuration
  // database ("At present, GulfStream Central relies on a configuration
  // database to identify how nodes are connected to routers and switches")
  // or from a prior SNMP walk of the switches (discover_wiring, the §3
  // future-work path).
  const auto wired = wired_switch_of(ip);
  if (wired && !switches_down_.count(*wired)) {
    // The switch is down when every IP wired to it, per the database or
    // the SNMP walk, is known and dead. An IP both sources list is counted
    // twice in both tallies, so the verdict needs no deduplication.
    std::size_t wired_ips = 0, known_dead = 0;
    const auto tally = [&](util::IpAddress peer) {
      ++wired_ips;
      const auto status = adapters_.find(peer);
      if (status != adapters_.end() && !status->second.alive) ++known_dead;
    };
    if (db_) {
      for (const config::AdapterRecord& rec : db_->adapters_on_switch(*wired))
        tally(rec.ip);
    }
    for (const auto& [peer, wiring] : snmp_wiring_)
      if (wiring.wired_switch == *wired) tally(peer);
    if (wired_ips > 0 && known_dead == wired_ips) {
      switches_down_.insert(*wired);
      FarmEvent event{};
      event.kind = FarmEvent::Kind::kSwitchFailed;
      event.switch_id = *wired;
      emit(std::move(event));
    }
  }
}

std::optional<util::SwitchId> Central::wired_switch_of(
    util::IpAddress ip) const {
  if (db_) {
    const auto rec = db_->adapter_by_ip(ip);
    if (rec && rec->wired_switch.valid()) return rec->wired_switch;
  }
  auto it = snmp_wiring_.find(ip);
  if (it != snmp_wiring_.end()) return it->second.wired_switch;
  return std::nullopt;
}

void Central::correlate_recovery(util::IpAddress ip) {
  auto it = adapters_.find(ip);
  if (it == adapters_.end()) return;
  const util::NodeId node = it->second.info.node;
  // "As soon as one of these adapters recovers, we infer that the
  // correlated node/router/switch has recovered."
  if (node.valid() && nodes_down_.count(node)) {
    nodes_down_.erase(node);
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kNodeRecovered;
    event.node = node;
    emit(std::move(event));
  }
  const auto wired = wired_switch_of(ip);
  if (wired && switches_down_.count(*wired)) {
    switches_down_.erase(*wired);
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kSwitchRecovered;
    event.switch_id = *wired;
    emit(std::move(event));
  }
}

// --- Introspection ---------------------------------------------------------------

std::vector<Central::GroupInfo> Central::groups() const {
  std::vector<GroupInfo> out;
  out.reserve(groups_.size());
  for (const auto& [leader_ip, group] : groups_) {
    GroupInfo info;
    info.leader = group.leader;
    info.view = group.view;
    info.members.assign(group.members.begin(), group.members.end());
    out.push_back(std::move(info));
  }
  return out;
}

std::optional<Central::AdapterStatus> Central::adapter_status(
    util::IpAddress ip) const {
  auto it = adapters_.find(ip);
  if (it == adapters_.end()) return std::nullopt;
  AdapterStatus status;
  status.info = it->second.info;
  status.alive = it->second.alive;
  status.group_leader = it->second.group_leader;
  status.last_change = it->second.last_change;
  auto group = groups_.find(it->second.group_leader);
  if (group != groups_.end()) status.view = group->second.view;
  return status;
}

std::vector<Central::AdapterStatus> Central::adapter_table() const {
  std::vector<AdapterStatus> out;
  out.reserve(adapters_.size());
  for (const auto& [ip, rec] : adapters_) {
    AdapterStatus status;
    status.info = rec.info;
    status.alive = rec.alive;
    status.group_leader = rec.group_leader;
    status.last_change = rec.last_change;
    auto group = groups_.find(rec.group_leader);
    if (group != groups_.end()) status.view = group->second.view;
    out.push_back(status);
  }
  return out;
}

std::size_t Central::alive_adapter_count() const {
  std::size_t n = 0;
  for (const auto& [ip, rec] : adapters_)
    if (rec.alive) ++n;
  return n;
}

// --- Verification -----------------------------------------------------------------

std::vector<config::Inconsistency> Central::verify_now() {
  if (!db_) return {};

  // Map each discovered group to a VLAN by majority vote over the expected
  // VLANs of its database-known members; adapters the database does not
  // know inherit the group VLAN (the verifier flags them as unknown).
  std::vector<config::DiscoveredAdapter> discovered;
  for (const auto& [leader_ip, group] : groups_) {
    std::map<util::VlanId, std::size_t> votes;
    for (util::IpAddress ip : group.members) {
      const auto rec = db_->adapter_by_ip(ip);
      if (rec) ++votes[rec->expected_vlan];
    }
    util::VlanId group_vlan;
    std::size_t best = 0;
    for (const auto& [vlan, count] : votes) {
      if (count > best) {
        best = count;
        group_vlan = vlan;
      }
    }
    for (util::IpAddress ip : group.members) {
      auto status = adapters_.find(ip);
      if (status == adapters_.end() || !status->second.alive) continue;
      discovered.push_back(config::DiscoveredAdapter{ip, group_vlan});
    }
  }

  config::Verifier verifier(*db_);
  auto findings = verifier.verify(discovered);
  // Adapters already disabled onto the quarantine VLAN are a handled,
  // known inconsistency: do not re-flag them every pass.
  std::erase_if(findings, [this](const config::Inconsistency& f) {
    return quarantined_.count(f.ip) > 0;
  });
  trace(obs::TraceKind::kVerifyDecision, {}, findings.size());
  for (const config::Inconsistency& finding : findings) {
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kInconsistencyFound;
    event.ip = finding.ip;
    event.vlan = finding.discovered_vlan;
    event.detail = finding.detail;
    emit(std::move(event));
  }

  // §2.2: "Inconsistencies can be flagged and the affected adapters
  // disabled, for security reasons, until conflicts are resolved."
  if (quarantine_vlan_.valid() && console_ != nullptr) {
    for (const config::Inconsistency& finding : findings) {
      if (finding.kind == config::InconsistencyKind::kWrongVlan) {
        const auto rec = db_->adapter_by_ip(finding.ip);
        if (rec)
          quarantine(finding.ip, rec->wired_switch, rec->wired_port,
                     finding.discovered_vlan);
      } else if (finding.kind == config::InconsistencyKind::kUnknownAdapter) {
        // No database record — but SNMP discovery may have located it.
        const auto wiring = discovered_wiring(finding.ip);
        if (wiring)
          quarantine(finding.ip, wiring->wired_switch, wiring->wired_port,
                     finding.discovered_vlan);
      }
    }
  }
  return findings;
}

// --- SNMP wiring discovery and audit (§3 future work) ---------------------------

std::size_t Central::discover_wiring(
    const std::vector<util::SwitchId>& switches) {
  if (!active_ || console_ == nullptr) return 0;

  // Resolve bridge-table MACs against the identities the AMG leaders have
  // reported: the reports carry each member's MAC alongside its IP.
  std::map<util::MacAddress, util::IpAddress> by_mac;
  for (const auto& [ip, rec] : adapters_) by_mac[rec.info.mac] = ip;

  std::size_t resolved = 0;
  for (util::SwitchId sw : switches) {
    const auto ports = console_->walk_ports(sw);
    if (!ports) continue;  // switch down or console unreachable
    for (const net::SwitchConsole::PortInfo& info : *ports) {
      if (!info.adapter.valid()) continue;
      auto it = by_mac.find(info.mac);
      if (it == by_mac.end()) continue;  // station never reported
      snmp_wiring_[it->second] =
          WiringRecord{sw, info.port, info.vlan};
      ++resolved;
    }
  }
  return resolved;
}

std::optional<Central::WiringRecord> Central::discovered_wiring(
    util::IpAddress ip) const {
  auto it = snmp_wiring_.find(ip);
  if (it == snmp_wiring_.end()) return std::nullopt;
  return it->second;
}

std::vector<Central::WiringMismatch> Central::audit_wiring() {
  std::vector<WiringMismatch> mismatches;
  if (db_ == nullptr) return mismatches;
  for (const auto& [ip, actual] : snmp_wiring_) {
    const auto expected = db_->adapter_by_ip(ip);
    if (!expected) continue;  // the verifier flags unknown adapters
    if (expected->wired_switch == actual.wired_switch &&
        expected->wired_port == actual.wired_port)
      continue;
    WiringMismatch mismatch;
    mismatch.ip = ip;
    mismatch.db_switch = expected->wired_switch;
    mismatch.db_port = expected->wired_port;
    mismatch.actual_switch = actual.wired_switch;
    mismatch.actual_port = actual.wired_port;
    mismatches.push_back(mismatch);

    std::ostringstream detail;
    detail << ip << " wired to " << actual.wired_switch << "/"
           << actual.wired_port << " but the database says "
           << expected->wired_switch << "/" << expected->wired_port;
    FarmEvent event{};
    event.kind = FarmEvent::Kind::kInconsistencyFound;
    event.ip = ip;
    event.detail = detail.str();
    emit(std::move(event));
  }
  return mismatches;
}

// --- Quarantine (§2.2) -----------------------------------------------------------

void Central::quarantine(util::IpAddress ip, util::SwitchId sw,
                         util::PortId port, util::VlanId discovered_on) {
  if (console_ == nullptr || quarantined_.count(ip)) return;
  // Suppress the failure notifications the disablement is about to cause.
  MoveState state;
  state.target = quarantine_vlan_;
  state.deadline = sim_.after(2 * params_.move_window, [this, ip] {
    expected_moves_.erase(ip);
  });
  expected_moves_[ip] = std::move(state);
  if (!console_->set_port_vlan(sw, port, quarantine_vlan_)) {
    auto it = expected_moves_.find(ip);
    if (it != expected_moves_.end()) {
      it->second.deadline.cancel();
      expected_moves_.erase(it);
    }
    return;
  }
  quarantined_.insert(ip);

  std::ostringstream detail;
  detail << ip << " found on " << discovered_on
         << "; port disabled onto quarantine " << quarantine_vlan_;
  FarmEvent event{};
  event.kind = FarmEvent::Kind::kAdapterQuarantined;
  event.ip = ip;
  event.vlan = quarantine_vlan_;
  event.detail = detail.str();
  emit(std::move(event));
}

bool Central::release_quarantine(util::IpAddress ip) {
  if (!quarantined_.count(ip) || db_ == nullptr || console_ == nullptr)
    return false;
  const auto rec = db_->adapter_by_ip(ip);
  if (!rec) return false;
  quarantined_.erase(ip);
  return move_adapter(rec->adapter, rec->expected_vlan);
}

// --- Reconfiguration ---------------------------------------------------------------

bool Central::move_adapter(util::AdapterId adapter, util::VlanId target) {
  if (!active_ || db_ == nullptr || console_ == nullptr) return false;
  const auto rec = db_->adapter(adapter);
  if (!rec) return false;

  MoveState state;
  state.target = target;
  state.deadline = sim_.after(2 * params_.move_window, [this, ip = rec->ip] {
    // Window over: stop suppressing whatever did not materialize.
    auto it = expected_moves_.find(ip);
    if (it == expected_moves_.end()) return;
    const bool joined = it->second.seen_join;
    const util::VlanId vlan = it->second.target;
    expected_moves_.erase(it);
    FarmEvent event{};
    event.kind = joined ? FarmEvent::Kind::kMoveCompleted
                        : FarmEvent::Kind::kUnexpectedMove;
    event.ip = ip;
    event.vlan = vlan;
    event.detail = joined ? "move window closed after join"
                          : "move never completed within the window";
    emit(std::move(event));
  });
  expected_moves_[rec->ip] = std::move(state);

  db_->set_expected_vlan(adapter, target);
  if (!console_->set_port_vlan(rec->wired_switch, rec->wired_port, target)) {
    auto it = expected_moves_.find(rec->ip);
    if (it != expected_moves_.end()) {
      it->second.deadline.cancel();
      expected_moves_.erase(it);
    }
    return false;
  }

  FarmEvent event{};
  event.kind = FarmEvent::Kind::kMoveInitiated;
  event.ip = rec->ip;
  event.vlan = target;
  emit(std::move(event));
  return true;
}

bool Central::move_node(
    util::NodeId node,
    const std::vector<std::pair<util::AdapterId, util::VlanId>>&
        adapter_vlans) {
  bool ok = true;
  for (const auto& [adapter, vlan] : adapter_vlans) {
    const auto rec = db_ ? db_->adapter(adapter) : std::nullopt;
    if (!rec || rec->node != node) {
      ok = false;
      continue;
    }
    ok = move_adapter(adapter, vlan) && ok;
  }
  return ok;
}

}  // namespace gs::proto
