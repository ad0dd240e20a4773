// Causal span correlation over the trace bus — the latency observatory.
//
// The paper's headline numbers are latencies: Eq. 1's stabilization terms,
// §3's detection time delta, and the report-propagation delay up to
// GulfStream Central. SpanTracker turns the raw TraceRecord stream into
// those quantities directly: it pairs each causally-linked open/close
// record couple into a named latency histogram, and — because a span that
// silently never closes is a lie — every way a span can fail to close is
// accounted under an explicit AbandonCause, so `opened == closed +
// abandoned + open` holds at all times and the soak harness can assert no
// span leaks across a whole randomized fault schedule.
//
// Span taxonomy (see DESIGN.md "Latency observatory" for the full table):
//   detection   kFaultInjected(ip)     -> kFailureCommitted(ip) at Central
//   view_change kTwoPcPrepare(C,view)  -> kViewInstalled(C,view) as leader
//   join        first kBeaconSent(ip)  -> kViewInstalled(ip) while uninstalled
//   report      kReportSent(L,seq)     -> kGscReportApplied(L,seq)
//   failover    kGscDeactivated(G)     -> first kGscReportApplied afterward
// Two derived histograms ride along without open-span accounting:
//   span.detection_leader_us  kFaultInjected -> kDeathDeclared/kTakeover
//                             (the leader-side Eq. 1 delta, what
//                             bench/detection_tradeoff's model predicts)
//   span.node_detection_us    first adapter fault of a node -> kNodeDown
//
// The tracker is an ordinary bus subscriber: when it is not attached the
// new trace kinds stay unsubscribed and emitters pay one branch, preserving
// PR 1's "unobserved records cost nothing" contract. Attach it before
// injecting faults or the books will not balance.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"
#include "util/ids.h"
#include "util/ip.h"
#include "util/stats.h"

namespace gs::obs {

enum class SpanKind : std::uint8_t {
  kDetection = 0,  // adapter fault to Central committing the failure
  kViewChange,     // 2PC Prepare to the coordinator installing the view
  kJoin,           // first beacon of an uninstalled adapter to its install
  kReport,         // leader delta/snapshot sent to Central applying it
  kFailover,       // GSC down to the successor's first applied report
  kDomainReport,   // domain digest sent to the root Central applying it
  kCount_,
};

enum class AbandonCause : std::uint8_t {
  kRecovered = 0,  // fault cleared before the farm finished reacting
  kAlreadyDead,    // Central already recorded the victim dead; no new fact
  kGscFailover,    // Central's tables reset; the close can no longer happen
  kDied,           // the adapter carrying the span went down
  kAborted2Pc,     // coordinator dropped the proposal (nacked by higher view)
  kDemoted,        // coordinator/leader lost leadership mid-span
  kSuperseded,     // replaced by a newer span for the same key
  kDuplicate,      // report acked as duplicate instead of applied
  kNeedFull,       // report rejected, full snapshot requested
  kReset,          // the protocol fell back to discovery mid-span
  kUnknownToGsc,   // death claim consumed by a Central that never knew the
                   //   victim (kGscDeathUnknown); no commit can follow
  kCount_,
};

[[nodiscard]] std::string_view to_string(SpanKind kind);
[[nodiscard]] std::string_view to_string(AbandonCause cause);

class SpanTracker {
 public:
  // Latencies and outcome counters land in `registry` (histograms named
  // span.<kind>_us, counters span.<kind>.{opened,closed,abandoned.<cause>,
  // unmatched_close}); when null the tracker owns a private registry,
  // reachable through stats(). The tracker keeps pointers to the series it
  // has touched, so `registry` must not be reset() while it is attached.
  explicit SpanTracker(TraceBus& bus, util::StatsRegistry* registry = nullptr);

  struct OpenSpan {
    SpanKind kind = SpanKind::kDetection;
    util::IpAddress key;  // victim / coordinator / joiner / leader / old GSC
    sim::SimTime opened_at = 0;
  };

  [[nodiscard]] std::vector<OpenSpan> open_spans() const;
  [[nodiscard]] std::uint64_t open_count(SpanKind kind) const;
  [[nodiscard]] std::uint64_t open_total() const;
  // High-water mark of concurrently open spans (all kinds).
  [[nodiscard]] std::uint64_t open_watermark() const { return watermark_; }

  [[nodiscard]] std::uint64_t opened(SpanKind kind) const;
  [[nodiscard]] std::uint64_t closed(SpanKind kind) const;
  [[nodiscard]] std::uint64_t abandoned(SpanKind kind) const;
  [[nodiscard]] std::uint64_t abandoned(SpanKind kind,
                                        AbandonCause cause) const;
  // Closes with no matching open span (e.g. a failure Central commits for a
  // switch-severed but healthy adapter). Counted, never recorded as latency.
  [[nodiscard]] std::uint64_t unmatched_closes(SpanKind kind) const;

  [[nodiscard]] const util::StatsRegistry& stats() const { return *registry_; }
  [[nodiscard]] util::StatsRegistry& stats() { return *registry_; }

  [[nodiscard]] static std::string_view histogram_name(SpanKind kind);

 private:
  struct Target {
    bool faulted = false;         // health currently != kUp
    bool installed = false;       // has emitted kViewInstalled since reset
    bool central_dead = false;    // Central's last committed verdict
    bool leader_declared = false; // leader-side death seen for open fault
    sim::SimTime fault_at = -1;   // open detection span, -1 if none
    sim::SimTime join_open = -1;  // open join span, -1 if none
  };
  struct OpenKeyed {
    std::uint64_t id = 0;  // view (proposals) or seq (reports)
    sim::SimTime opened_at = 0;
  };
  struct NodeFaults {
    std::uint64_t down = 0;         // adapters currently faulted
    sim::SimTime first_fault = 0;   // when the first of them went down
    bool declared = false;          // Central already inferred node death
  };

  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(SpanKind::kCount_);
  static constexpr std::size_t kCauses =
      static_cast<std::size_t>(AbandonCause::kCount_);
  // One kind's outcome counters: span.<kind>.{opened,closed,
  // unmatched_close}, then span.<kind>.abandoned.<cause> at kAbandoned +
  // the cause.
  enum Outcome : std::size_t { kOpened, kClosed, kUnmatchedClose, kAbandoned };
  static constexpr std::size_t kOutcomes = kAbandoned + kCauses;

  void on_record(const TraceRecord& record);
  void open(SpanKind kind);
  void close(SpanKind kind, sim::SimTime opened_at, sim::SimTime now);
  void abandon(SpanKind kind, AbandonCause cause);
  void unmatched(SpanKind kind);
  // The series behind each edge, looked up by name on first use only: the
  // registry gains a series exactly when a by-name lookup on every edge
  // would have added it. The registry's maps keep the addresses stable.
  util::Counter& span_counter(SpanKind kind, std::size_t outcome);
  util::Histogram& span_histogram(SpanKind kind);

  util::StatsRegistry own_registry_;
  util::StatsRegistry* registry_;

  std::map<util::IpAddress, Target> targets_;
  std::map<util::NodeId, NodeFaults> node_faults_;
  std::map<util::IpAddress, OpenKeyed> open_proposals_;
  std::map<util::IpAddress, OpenKeyed> open_reports_;
  std::map<util::IpAddress, OpenKeyed> open_domain_reports_;
  bool failover_open_ = false;
  sim::SimTime failover_opened_at_ = 0;
  util::IpAddress failed_gsc_;
  util::IpAddress active_gsc_;

  std::uint64_t opened_[kKinds] = {};
  std::uint64_t closed_[kKinds] = {};
  std::uint64_t unmatched_[kKinds] = {};
  std::uint64_t open_now_[kKinds] = {};
  std::uint64_t abandoned_[kKinds][kCauses] = {};
  util::Counter* counters_[kKinds][kOutcomes] = {};
  util::Histogram* histograms_[kKinds] = {};
  std::uint64_t watermark_ = 0;

  Subscription subscription_;
};

}  // namespace gs::obs
