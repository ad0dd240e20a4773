#include "obs/spans.h"

#include <string>

namespace gs::obs {

namespace {

constexpr std::size_t idx(SpanKind kind) {
  return static_cast<std::size_t>(kind);
}
constexpr std::size_t idx(AbandonCause cause) {
  return static_cast<std::size_t>(cause);
}

// Every trace kind that is a span edge. Subscribing to exactly this set
// keeps the bus mask tight: kinds nobody else watches stay unpublished.
constexpr std::uint64_t kSpanEdgeMask = trace_mask(
    {TraceKind::kFaultInjected, TraceKind::kFaultCleared,
     TraceKind::kBeaconSent, TraceKind::kViewInstalled,
     TraceKind::kTwoPcPrepare, TraceKind::kTwoPcAbort, TraceKind::kReset,
     TraceKind::kReportSent, TraceKind::kGscReportApplied,
     TraceKind::kGscReportDup, TraceKind::kReportNeedFull,
     TraceKind::kDeathDeclared, TraceKind::kTakeover,
     TraceKind::kFailureCommitted, TraceKind::kNodeDown,
     TraceKind::kGscActivated, TraceKind::kGscDeactivated,
     TraceKind::kGscAdapterAlive, TraceKind::kGscDeathUnknown,
     TraceKind::kDomainReportSent, TraceKind::kDomainReportNeedFull,
     TraceKind::kDomainReportDropped,
     TraceKind::kRootReportApplied, TraceKind::kRootReportDup,
     TraceKind::kRootActivated, TraceKind::kRootDeactivated});

}  // namespace

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDetection: return "detection";
    case SpanKind::kViewChange: return "view_change";
    case SpanKind::kJoin: return "join";
    case SpanKind::kReport: return "report";
    case SpanKind::kFailover: return "failover";
    case SpanKind::kDomainReport: return "domain_report";
    case SpanKind::kCount_: break;
  }
  return "?";
}

std::string_view to_string(AbandonCause cause) {
  switch (cause) {
    case AbandonCause::kRecovered: return "recovered";
    case AbandonCause::kAlreadyDead: return "already_dead";
    case AbandonCause::kGscFailover: return "gsc_failover";
    case AbandonCause::kDied: return "died";
    case AbandonCause::kAborted2Pc: return "aborted_2pc";
    case AbandonCause::kDemoted: return "demoted";
    case AbandonCause::kSuperseded: return "superseded";
    case AbandonCause::kDuplicate: return "duplicate";
    case AbandonCause::kNeedFull: return "need_full";
    case AbandonCause::kReset: return "reset";
    case AbandonCause::kUnknownToGsc: return "unknown_to_gsc";
    case AbandonCause::kCount_: break;
  }
  return "?";
}

std::string_view SpanTracker::histogram_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDetection: return "span.detection_us";
    case SpanKind::kViewChange: return "span.view_change_us";
    case SpanKind::kJoin: return "span.join_us";
    case SpanKind::kReport: return "span.report_us";
    case SpanKind::kFailover: return "span.failover_us";
    case SpanKind::kDomainReport: return "span.domain_report_us";
    case SpanKind::kCount_: break;
  }
  return "?";
}

SpanTracker::SpanTracker(TraceBus& bus, util::StatsRegistry* registry)
    : registry_(registry != nullptr ? registry : &own_registry_) {
  subscription_ = bus.subscribe(
      kSpanEdgeMask, [this](const TraceRecord& record) { on_record(record); });
}

util::Counter& SpanTracker::span_counter(SpanKind kind,
                                         std::size_t outcome) {
  util::Counter*& counter = counters_[idx(kind)][outcome];
  if (counter == nullptr) {
    std::string name = "span.";
    name += to_string(kind);
    switch (outcome) {
      case kOpened: name += ".opened"; break;
      case kClosed: name += ".closed"; break;
      case kUnmatchedClose: name += ".unmatched_close"; break;
      default:
        name += ".abandoned.";
        name += to_string(static_cast<AbandonCause>(outcome - kAbandoned));
    }
    counter = &registry_->counter(name);
  }
  return *counter;
}

util::Histogram& SpanTracker::span_histogram(SpanKind kind) {
  util::Histogram*& histogram = histograms_[idx(kind)];
  if (histogram == nullptr)
    histogram = &registry_->histogram(histogram_name(kind));
  return *histogram;
}

void SpanTracker::open(SpanKind kind) {
  ++opened_[idx(kind)];
  ++open_now_[idx(kind)];
  watermark_ = std::max(watermark_, open_total());
  span_counter(kind, kOpened).add();
}

void SpanTracker::close(SpanKind kind, sim::SimTime opened_at,
                        sim::SimTime now) {
  ++closed_[idx(kind)];
  --open_now_[idx(kind)];
  span_counter(kind, kClosed).add();
  span_histogram(kind).record(now - opened_at);
}

void SpanTracker::abandon(SpanKind kind, AbandonCause cause) {
  ++abandoned_[idx(kind)][idx(cause)];
  --open_now_[idx(kind)];
  span_counter(kind, kAbandoned + idx(cause)).add();
}

void SpanTracker::unmatched(SpanKind kind) {
  ++unmatched_[idx(kind)];
  span_counter(kind, kUnmatchedClose).add();
}

std::uint64_t SpanTracker::open_count(SpanKind kind) const {
  return open_now_[idx(kind)];
}

std::uint64_t SpanTracker::open_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : open_now_) total += n;
  return total;
}

std::uint64_t SpanTracker::opened(SpanKind kind) const {
  return opened_[idx(kind)];
}

std::uint64_t SpanTracker::closed(SpanKind kind) const {
  return closed_[idx(kind)];
}

std::uint64_t SpanTracker::abandoned(SpanKind kind) const {
  std::uint64_t total = 0;
  for (std::uint64_t n : abandoned_[idx(kind)]) total += n;
  return total;
}

std::uint64_t SpanTracker::abandoned(SpanKind kind, AbandonCause cause) const {
  return abandoned_[idx(kind)][idx(cause)];
}

std::uint64_t SpanTracker::unmatched_closes(SpanKind kind) const {
  return unmatched_[idx(kind)];
}

std::vector<SpanTracker::OpenSpan> SpanTracker::open_spans() const {
  std::vector<OpenSpan> out;
  for (const auto& [ip, t] : targets_) {
    if (t.fault_at >= 0)
      out.push_back({SpanKind::kDetection, ip, t.fault_at});
    if (t.join_open >= 0) out.push_back({SpanKind::kJoin, ip, t.join_open});
  }
  for (const auto& [ip, p] : open_proposals_)
    out.push_back({SpanKind::kViewChange, ip, p.opened_at});
  for (const auto& [ip, r] : open_reports_)
    out.push_back({SpanKind::kReport, ip, r.opened_at});
  for (const auto& [ip, r] : open_domain_reports_)
    out.push_back({SpanKind::kDomainReport, ip, r.opened_at});
  if (failover_open_)
    out.push_back({SpanKind::kFailover, failed_gsc_, failover_opened_at_});
  return out;
}

void SpanTracker::on_record(const TraceRecord& record) {
  const sim::SimTime now = record.time;
  switch (record.kind) {
    case TraceKind::kFaultInjected: {
      Target& t = targets_[record.source];
      // A fault tears down whatever the adapter was mid-way through.
      if (t.join_open >= 0) {
        abandon(SpanKind::kJoin, AbandonCause::kDied);
        t.join_open = -1;
      }
      // Only a full NIC death (HealthState::kDown == 1, the `a` payload)
      // forces the protocol back to discovery. The partial §3 modes keep
      // the instance running — a recv-dead leader stays committed and
      // keeps beaconing, so clearing `installed` here would open a join
      // span no view install ever closes. Partial-mode victims that do
      // get evicted re-enter discovery through kReset, which clears the
      // flag at the right moment.
      if (record.a == 1) t.installed = false;
      t.faulted = true;
      if (auto it = open_reports_.find(record.source);
          it != open_reports_.end()) {
        abandon(SpanKind::kReport, AbandonCause::kDied);
        open_reports_.erase(it);
      }
      if (auto it = open_domain_reports_.find(record.source);
          it != open_domain_reports_.end()) {
        abandon(SpanKind::kDomainReport, AbandonCause::kDied);
        open_domain_reports_.erase(it);
      }
      if (t.fault_at >= 0) {
        // Back-to-back fault without an intervening clear (health moved
        // between two non-kUp states through kUp edges is the only way
        // fabric re-emits; treat as a fresh episode).
        abandon(SpanKind::kDetection, AbandonCause::kSuperseded);
        t.fault_at = -1;
        t.leader_declared = false;
      }
      if (t.central_dead) {
        // Central already holds the victim dead: committing this fault
        // would be a no-op there, so there is nothing to time.
        ++opened_[idx(SpanKind::kDetection)];
        span_counter(SpanKind::kDetection, kOpened).add();
        ++abandoned_[idx(SpanKind::kDetection)]
                    [idx(AbandonCause::kAlreadyDead)];
        span_counter(SpanKind::kDetection,
                     kAbandoned + idx(AbandonCause::kAlreadyDead))
            .add();
      } else {
        open(SpanKind::kDetection);
        t.fault_at = now;
        t.leader_declared = false;
      }
      if (record.node.valid()) {
        NodeFaults& nf = node_faults_[record.node];
        if (nf.down == 0) {
          nf.first_fault = now;
          nf.declared = false;
        }
        ++nf.down;
      }
      break;
    }
    case TraceKind::kFaultCleared: {
      Target& t = targets_[record.source];
      t.faulted = false;
      if (t.fault_at >= 0) {
        abandon(SpanKind::kDetection, AbandonCause::kRecovered);
        t.fault_at = -1;
        t.leader_declared = false;
      }
      if (record.node.valid()) {
        auto it = node_faults_.find(record.node);
        if (it != node_faults_.end() && --it->second.down == 0)
          node_faults_.erase(it);
      }
      break;
    }
    case TraceKind::kBeaconSent: {
      Target& t = targets_[record.source];
      if (!t.installed && !t.faulted && t.join_open < 0) {
        open(SpanKind::kJoin);
        t.join_open = now;
      }
      break;
    }
    case TraceKind::kViewInstalled: {
      Target& t = targets_[record.source];
      t.installed = true;
      if (t.join_open >= 0) {
        close(SpanKind::kJoin, t.join_open, now);
        t.join_open = -1;
      }
      if (record.peer == record.source) {
        // Installed as leader: this is the commit of its own proposal.
        auto it = open_proposals_.find(record.source);
        if (it != open_proposals_.end() && it->second.id == record.a) {
          close(SpanKind::kViewChange, it->second.opened_at, now);
          open_proposals_.erase(it);
        }
      } else {
        // Installed as a member of someone else's view: any in-flight
        // report of its former leadership is moot — the new leader
        // reports for the merged group. (The coordinator-side proposal,
        // if one was open, is aborted by the kTwoPcAbort that
        // clear_leader_duty_state emits right after this record.)
        if (auto it = open_reports_.find(record.source);
            it != open_reports_.end()) {
          abandon(SpanKind::kReport, AbandonCause::kDemoted);
          open_reports_.erase(it);
        }
      }
      break;
    }
    case TraceKind::kTwoPcPrepare: {
      auto [it, inserted] =
          open_proposals_.try_emplace(record.source, OpenKeyed{record.a, now});
      if (!inserted) {
        if (it->second.id == record.a) break;  // retry of the same round
        abandon(SpanKind::kViewChange, AbandonCause::kSuperseded);
        it->second = OpenKeyed{record.a, now};
      }
      open(SpanKind::kViewChange);
      break;
    }
    case TraceKind::kTwoPcAbort: {
      auto it = open_proposals_.find(record.source);
      if (it != open_proposals_.end() && it->second.id == record.a) {
        abandon(SpanKind::kViewChange, record.b == 1
                                           ? AbandonCause::kAborted2Pc
                                           : AbandonCause::kDemoted);
        open_proposals_.erase(it);
      }
      break;
    }
    case TraceKind::kReset: {
      Target& t = targets_[record.source];
      t.installed = false;
      if (t.join_open >= 0) {
        abandon(SpanKind::kJoin, AbandonCause::kReset);
        t.join_open = -1;
      }
      // GsDaemon::Hooks::on_reset drops the outstanding report on the
      // floor, so its span can never close.
      if (auto it = open_reports_.find(record.source);
          it != open_reports_.end()) {
        abandon(SpanKind::kReport, AbandonCause::kReset);
        open_reports_.erase(it);
      }
      break;
    }
    case TraceKind::kReportSent: {
      auto [it, inserted] =
          open_reports_.try_emplace(record.source, OpenKeyed{record.a, now});
      if (!inserted) {
        if (it->second.id == record.a) break;  // retry of the same seq
        abandon(SpanKind::kReport, AbandonCause::kSuperseded);
        it->second = OpenKeyed{record.a, now};
      }
      open(SpanKind::kReport);
      break;
    }
    case TraceKind::kDomainReportSent: {
      auto [it, inserted] = open_domain_reports_.try_emplace(
          record.source, OpenKeyed{record.a, now});
      if (!inserted) {
        if (it->second.id == record.a) break;  // retry of the same seq
        abandon(SpanKind::kDomainReport, AbandonCause::kSuperseded);
        it->second = OpenKeyed{record.a, now};
      }
      open(SpanKind::kDomainReport);
      break;
    }
    case TraceKind::kDomainReportDropped: {
      // The uplink's domain Central deactivated with this digest in flight:
      // the retry timer is gone and a demoted standby never sends again, so
      // no later record can close or supersede the span. (On a node death
      // this edge precedes the adapter's kFaultInjected — the daemon halts
      // before the fabric faults its NICs — so the abandon reads kDemoted,
      // which is still the truth: the Central went away under the digest.)
      auto it = open_domain_reports_.find(record.source);
      if (it != open_domain_reports_.end() && it->second.id == record.a) {
        abandon(SpanKind::kDomainReport, AbandonCause::kDemoted);
        open_domain_reports_.erase(it);
      }
      break;
    }
    case TraceKind::kDomainReportNeedFull: {
      auto it = open_domain_reports_.find(record.source);
      if (it != open_domain_reports_.end() && it->second.id == record.a) {
        abandon(SpanKind::kDomainReport, AbandonCause::kNeedFull);
        open_domain_reports_.erase(it);
      }
      break;
    }
    case TraceKind::kRootReportApplied: {
      auto it = open_domain_reports_.find(record.peer);
      if (it != open_domain_reports_.end() && it->second.id == record.a) {
        close(SpanKind::kDomainReport, it->second.opened_at, now);
        open_domain_reports_.erase(it);
      } else {
        unmatched(SpanKind::kDomainReport);
      }
      break;
    }
    case TraceKind::kRootReportDup: {
      auto it = open_domain_reports_.find(record.peer);
      if (it != open_domain_reports_.end() && it->second.id == record.a) {
        abandon(SpanKind::kDomainReport, AbandonCause::kDuplicate);
        open_domain_reports_.erase(it);
      }
      break;
    }
    case TraceKind::kRootActivated:
    case TraceKind::kRootDeactivated: {
      // The root's tables (re)start empty either way: in-flight digests can
      // no longer close against the instance that opened them.
      while (!open_domain_reports_.empty()) {
        abandon(SpanKind::kDomainReport, AbandonCause::kGscFailover);
        open_domain_reports_.erase(open_domain_reports_.begin());
      }
      break;
    }
    case TraceKind::kGscReportApplied: {
      auto it = open_reports_.find(record.peer);
      if (it != open_reports_.end() && it->second.id == record.a) {
        close(SpanKind::kReport, it->second.opened_at, now);
        open_reports_.erase(it);
      } else {
        unmatched(SpanKind::kReport);
      }
      if (failover_open_) {
        // First report landing in any active Central after a GSC loss:
        // the reporting hierarchy is flowing again.
        close(SpanKind::kFailover, failover_opened_at_, now);
        failover_open_ = false;
      }
      break;
    }
    case TraceKind::kGscReportDup: {
      auto it = open_reports_.find(record.peer);
      if (it != open_reports_.end() && it->second.id == record.a) {
        abandon(SpanKind::kReport, AbandonCause::kDuplicate);
        open_reports_.erase(it);
      }
      break;
    }
    case TraceKind::kReportNeedFull: {
      auto it = open_reports_.find(record.source);
      if (it != open_reports_.end() && it->second.id == record.a) {
        abandon(SpanKind::kReport, AbandonCause::kNeedFull);
        open_reports_.erase(it);
      }
      break;
    }
    case TraceKind::kDeathDeclared:
    case TraceKind::kTakeover: {
      // Leader-side detection: the group removed the victim. Central's
      // commit (the span close) still has the move window ahead of it.
      Target& t = targets_[record.peer];
      if (t.fault_at >= 0 && !t.leader_declared) {
        registry_->histogram("span.detection_leader_us")
            .record(now - t.fault_at);
        t.leader_declared = true;
      }
      break;
    }
    case TraceKind::kFailureCommitted: {
      Target& t = targets_[record.peer];
      if (t.fault_at >= 0) {
        close(SpanKind::kDetection, t.fault_at, now);
        t.fault_at = -1;
        t.leader_declared = false;
      } else {
        // Central can legitimately commit failures with no injected
        // adapter fault behind them: switch deaths, partitions, and
        // lease expiries all leave the adapter hardware healthy.
        unmatched(SpanKind::kDetection);
      }
      t.central_dead = true;
      break;
    }
    case TraceKind::kNodeDown: {
      auto it = node_faults_.find(record.node);
      if (it != node_faults_.end() && !it->second.declared &&
          it->second.down > 0) {
        registry_->histogram("span.node_detection_us")
            .record(now - it->second.first_fault);
        registry_->counter("span.node_detection.observed").add();
        it->second.declared = true;
      }
      break;
    }
    case TraceKind::kGscAdapterAlive: {
      targets_[record.peer].central_dead = false;
      break;
    }
    case TraceKind::kGscDeathUnknown: {
      // The death notice reached a Central with no record of the victim
      // and was consumed there — the leader got its ack and will never
      // resend, so no Central can commit this failure.
      Target& t = targets_[record.peer];
      if (t.fault_at >= 0) {
        abandon(SpanKind::kDetection, AbandonCause::kUnknownToGsc);
        t.fault_at = -1;
        t.leader_declared = false;
      }
      break;
    }
    case TraceKind::kGscActivated: {
      // Central::activate always starts from empty tables, so every
      // verdict the tracker mirrored is void — including failure commits
      // the previous Central was still holding for the move window, which
      // died with it. A victim's removal can also race the full-snapshot
      // rebuild (snapshots skip removals of unknown adapters), in which
      // case no Central will ever commit it. Either way a detection span
      // that straddles a GSC handover would measure failover disruption,
      // not detection; abandon them all. A close the new Central does
      // produce for such a victim lands as an unmatched_close.
      for (auto& [ip, t] : targets_) {
        t.central_dead = false;
        if (t.fault_at >= 0) {
          abandon(SpanKind::kDetection, AbandonCause::kGscFailover);
          t.fault_at = -1;
          t.leader_declared = false;
        }
      }
      active_gsc_ = record.source;
      break;
    }
    case TraceKind::kGscDeactivated: {
      // Deactivation cancels the failure commits that Central was still
      // holding for the move window, and during a dual-Central overlap
      // (stale partition-island GSC beside the real one) a victim's death
      // notice may have reached only the dying instance — the survivor
      // will never commit it. Abandon all open detections: a commit some
      // Central still produces lands as an unmatched_close.
      for (auto& [ip, t] : targets_) {
        if (t.fault_at >= 0) {
          abandon(SpanKind::kDetection, AbandonCause::kGscFailover);
          t.fault_at = -1;
          t.leader_declared = false;
        }
      }
      if (record.source == active_gsc_) {
        if (failover_open_)
          abandon(SpanKind::kFailover, AbandonCause::kSuperseded);
        open(SpanKind::kFailover);
        failover_open_ = true;
        failover_opened_at_ = now;
        failed_gsc_ = record.source;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace gs::obs
