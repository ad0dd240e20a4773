// farm_bench — one deployment of the end-to-end farm benchmark.
//
//   farm_bench --workload=<name> --seed=<n> [--traced] [--smoke] [--settle]
//
// Builds a real farm::Farm (or, for real_udp, a farm::RealFarm on loopback
// UDP) and drives it through four phases: discovery, a steady window, an
// open-loop fault schedule, and recovery. The benchmark times its own calls
// into the layers' public functions, reads the counters the layers already
// expose, checks the farm's correctness, and prints one JSON object of raw
// measurements on stdout. farm_e2e/run.py repeats this per workload,
// aggregates the deployments and prints the metrics BENCHMARK.json names;
// farm_e2e/README.md explains the workloads and every metric.
//
// Phase deadlines are absolute simulated times, so the --traced pass, which
// drives the simulator one Simulator::step() at a time and attributes each
// step's wall time to a layer bucket, executes exactly the same events.
// Convergence polls, health snapshots and invariant checks are harness cost:
// they run outside the phase clocks and are reported as farm.converged_s.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "farm/farm.h"
#include "farm/realnet.h"
#include "gs/central_hier.h"
#include "obs/spans.h"
#include "soak/invariants.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

namespace farm = gs::farm;
namespace obs = gs::obs;
namespace proto = gs::proto;
namespace sim = gs::sim;
namespace util = gs::util;
using obs::TraceKind;
using obs::TraceRecord;

// --- Clocks ------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// User + system CPU of the whole (single-threaded) process.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Wall and CPU time accumulated over the timed calls of one phase.
struct Meter {
  double wall_s = 0.0;
  double cpu_s = 0.0;

  void add(const Meter& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
  }

  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    struct Stop {
      Meter& meter;
      SteadyClock::time_point t0 = SteadyClock::now();
      double c0 = process_cpu_s();
      ~Stop() {
        meter.wall_s += seconds_between(t0, SteadyClock::now());
        meter.cpu_s += process_cpu_s() - c0;
      }
    } stop{*this};
    return fn();
  }
};

// --- JSON output -------------------------------------------------------------

class Json {
 public:
  void num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void num(std::string_view key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void list(std::string_view key, const std::vector<std::int64_t>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(values[i]);
    }
    field(key, out + "]");
  }
  void list(std::string_view key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", values[i]);
      if (i > 0) out += ',';
      out += buf;
    }
    field(key, out + "]");
  }
  void list(std::string_view key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += quoted(values[i]);
    }
    field(key, out + "]");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quoted(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  void field(std::string_view key, const std::string& rendered) {
    if (!body_.empty()) body_ += ", ";
    body_ += quoted(key) + ": " + rendered;
  }

  std::string body_;
};

// --- Exact span latencies ----------------------------------------------------

// The farm's SpanTracker keeps bucketed histograms (about 3% resolution),
// so the benchmark pairs the same open/close trace records itself and keeps
// every sample. It subscribes only to kinds the tracker already subscribes
// to, so it adds no record construction to an untraced run.
//   detection     kFaultInjected(ip)     -> kFailureCommitted(ip)
//   report        kReportSent(L, seq)    -> kGscReportApplied(L, seq)
//   view_change   kTwoPcPrepare(C, view) -> kViewInstalled(C, view) as leader
//   join          first kBeaconSent(ip)  -> kViewInstalled(ip), uninstalled
//   domain_report kDomainReportSent(D, seq) -> kRootReportApplied(D, seq)
class LatencyProbe {
 public:
  explicit LatencyProbe(obs::TraceBus& bus) {
    subscription_ = bus.subscribe(
        obs::trace_mask({TraceKind::kFaultInjected, TraceKind::kFaultCleared,
                         TraceKind::kFailureCommitted, TraceKind::kReportSent,
                         TraceKind::kGscReportApplied, TraceKind::kGscReportDup,
                         TraceKind::kReportNeedFull, TraceKind::kTwoPcPrepare,
                         TraceKind::kTwoPcAbort, TraceKind::kViewInstalled,
                         TraceKind::kBeaconSent, TraceKind::kReset,
                         TraceKind::kDomainReportSent,
                         TraceKind::kRootReportApplied}),
        [this](const TraceRecord& r) { on_record(r); });
  }

  std::vector<std::int64_t> detection_us;
  std::vector<std::int64_t> report_us;
  std::vector<std::int64_t> view_change_us;
  std::vector<std::int64_t> join_us;
  std::vector<std::int64_t> domain_report_us;

  std::uint64_t faults_opened = 0;
  std::uint64_t view_installs = 0;
  sim::SimTime last_install = -1;

  [[nodiscard]] std::size_t faults_open() const { return faults_.size(); }

 private:
  struct Keyed {
    std::uint64_t id = 0;
    sim::SimTime at = 0;
  };
  struct Adapter {
    bool installed = false;
    bool faulted = false;
    sim::SimTime join_open = -1;
  };

  static void open_keyed(std::map<util::IpAddress, Keyed>& spans,
                         util::IpAddress key, std::uint64_t id,
                         sim::SimTime at) {
    auto [it, inserted] = spans.try_emplace(key, Keyed{id, at});
    if (!inserted && it->second.id != id) it->second = Keyed{id, at};
  }
  static void close_keyed(std::map<util::IpAddress, Keyed>& spans,
                          util::IpAddress key, std::uint64_t id,
                          sim::SimTime at, std::vector<std::int64_t>* out) {
    auto it = spans.find(key);
    if (it == spans.end() || it->second.id != id) return;
    if (out != nullptr) out->push_back(at - it->second.at);
    spans.erase(it);
  }

  void on_record(const TraceRecord& r) {
    switch (r.kind) {
      case TraceKind::kFaultInjected: {
        Adapter& a = adapters_[r.source];
        if (r.a == 1) a.installed = false;  // HealthState::kDown
        a.faulted = true;
        a.join_open = -1;
        reports_.erase(r.source);
        if (faults_.try_emplace(r.source, r.time).second) ++faults_opened;
        break;
      }
      case TraceKind::kFaultCleared:
        adapters_[r.source].faulted = false;
        faults_.erase(r.source);  // recovered before Central committed
        break;
      case TraceKind::kFailureCommitted:
        if (auto it = faults_.find(r.peer); it != faults_.end()) {
          detection_us.push_back(r.time - it->second);
          faults_.erase(it);
        }
        break;
      case TraceKind::kReportSent:
        open_keyed(reports_, r.source, r.a, r.time);
        break;
      case TraceKind::kGscReportApplied:
        close_keyed(reports_, r.peer, r.a, r.time, &report_us);
        break;
      case TraceKind::kGscReportDup:
        close_keyed(reports_, r.peer, r.a, r.time, nullptr);
        break;
      case TraceKind::kReportNeedFull:
        close_keyed(reports_, r.source, r.a, r.time, nullptr);
        break;
      case TraceKind::kTwoPcPrepare:
        open_keyed(proposals_, r.source, r.a, r.time);
        break;
      case TraceKind::kTwoPcAbort:
        close_keyed(proposals_, r.source, r.a, r.time, nullptr);
        break;
      case TraceKind::kViewInstalled: {
        ++view_installs;
        last_install = r.time;
        Adapter& a = adapters_[r.source];
        a.installed = true;
        if (a.join_open >= 0) join_us.push_back(r.time - a.join_open);
        a.join_open = -1;
        if (r.peer == r.source)
          close_keyed(proposals_, r.source, r.a, r.time, &view_change_us);
        else
          reports_.erase(r.source);  // demoted: the new leader reports
        break;
      }
      case TraceKind::kBeaconSent: {
        Adapter& a = adapters_[r.source];
        if (!a.installed && !a.faulted && a.join_open < 0) a.join_open = r.time;
        break;
      }
      case TraceKind::kReset:
        adapters_[r.source].installed = false;
        break;
      case TraceKind::kDomainReportSent:
        open_keyed(domain_reports_, r.source, r.a, r.time);
        break;
      case TraceKind::kRootReportApplied:
        close_keyed(domain_reports_, r.peer, r.a, r.time, &domain_report_us);
        break;
      default:
        break;
    }
  }

  std::map<util::IpAddress, sim::SimTime> faults_;
  std::map<util::IpAddress, Keyed> reports_;
  std::map<util::IpAddress, Keyed> proposals_;
  std::map<util::IpAddress, Keyed> domain_reports_;
  std::map<util::IpAddress, Adapter> adapters_;
  obs::Subscription subscription_;
};

// --- Traced-run step attribution ---------------------------------------------

enum class Bucket : std::uint8_t {
  kDiscovery = 0,  // beacon, election, join (traced)
  kAmg,            // 2PC and view installs (traced)
  kFd,             // heartbeat misses, suspicion, probes, deaths (traced)
  kReport,         // leader -> Central report traffic (traced)
  kCentral,        // Central decisions and ingest (traced)
  kCentralHier,    // domain uplink -> RootCentral (traced)
  kNetFault,       // fabric fault edges and wire samples (traced)
  kSend,           // untraced step that sent a frame: a timer that sent
  kDeliver,        // untraced, live events did not shrink: fabric delivery
  kDispatch,       // untraced otherwise: verify, decode, handle, re-arm
  kCount_,
};
constexpr std::size_t kBuckets = static_cast<std::size_t>(Bucket::kCount_);
constexpr std::array<std::string_view, kBuckets> kBucketNames = {
    "gs.discovery", "gs.amg",    "gs.fd",      "gs.report",  "gs.central",
    "gs.central_hier", "net.fault", "gs.send", "net.deliver", "gs.dispatch"};

// Every TraceKind lands in exactly one bucket; -Wswitch flags a new kind.
Bucket bucket_of(TraceKind kind) {
  switch (kind) {
    case TraceKind::kBeaconSent:
    case TraceKind::kBeaconHeard:
    case TraceKind::kElectionDeferred:
    case TraceKind::kElectionWon:
    case TraceKind::kJoinRequested:
      return Bucket::kDiscovery;
    case TraceKind::kTwoPcPrepare:
    case TraceKind::kTwoPcCommit:
    case TraceKind::kViewInstalled:
    case TraceKind::kTwoPcAbort:
      return Bucket::kAmg;
    case TraceKind::kHeartbeatMiss:
    case TraceKind::kSuspicionRaised:
    case TraceKind::kSuspectSent:
    case TraceKind::kProbeSent:
    case TraceKind::kProbeRefuted:
    case TraceKind::kDeathDeclared:
    case TraceKind::kTakeover:
    case TraceKind::kReset:
      return Bucket::kFd;
    case TraceKind::kReportSent:
    case TraceKind::kReportRetry:
    case TraceKind::kReportAcked:
    case TraceKind::kReportNeedFull:
      return Bucket::kReport;
    case TraceKind::kFailureHeld:
    case TraceKind::kFailureCommitted:
    case TraceKind::kVerifyDecision:
    case TraceKind::kGscReportApplied:
    case TraceKind::kGscReportDup:
    case TraceKind::kNodeDown:
    case TraceKind::kGscActivated:
    case TraceKind::kGscDeactivated:
    case TraceKind::kGscAdapterAlive:
    case TraceKind::kGscDeathUnknown:
    case TraceKind::kHealthSample:
      return Bucket::kCentral;
    case TraceKind::kDomainReportSent:
    case TraceKind::kDomainReportRetry:
    case TraceKind::kDomainReportAcked:
    case TraceKind::kDomainReportNeedFull:
    case TraceKind::kRootReportApplied:
    case TraceKind::kRootReportDup:
    case TraceKind::kRootActivated:
    case TraceKind::kRootDeactivated:
    case TraceKind::kRootDomainExpired:
    case TraceKind::kDomainReportDropped:
      return Bucket::kCentralHier;
    case TraceKind::kWireSample:
    case TraceKind::kFaultInjected:
    case TraceKind::kFaultCleared:
      return Bucket::kNetFault;
    case TraceKind::kCount_:
      break;
  }
  return Bucket::kNetFault;
}

// Counts every trace record by kind and remembers the first kind published
// since the last reset — the traced run's per-step layer attribution.
class KindCounter {
 public:
  explicit KindCounter(obs::TraceBus& bus) {
    subscription_ = bus.subscribe([this](const TraceRecord& r) {
      if (!have_first_) {
        first_ = r.kind;
        have_first_ = true;
      }
      ++counts_[static_cast<std::size_t>(r.kind)];
    });
  }
  void reset_first() { have_first_ = false; }
  [[nodiscard]] std::optional<TraceKind> first() const {
    return have_first_ ? std::optional<TraceKind>(first_) : std::nullopt;
  }
  [[nodiscard]] std::uint64_t count(TraceKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(TraceKind::kCount_)>
      counts_{};
  TraceKind first_ = TraceKind::kBeaconSent;
  bool have_first_ = false;
  obs::Subscription subscription_;
};

// --- Shared helpers ----------------------------------------------------------

constexpr std::array<std::string_view, 3> kPhaseNames = {"discovery", "steady",
                                                         "fault"};
enum PhaseIndex : std::size_t {
  kDiscoveryPhase = 0,
  kSteadyPhase,
  kFaultPhase
};

// A phase's clock. Simulated phases also keep their time per chunk of
// simulated time: a deployment repeats exactly for its seed, so run.py can
// take each chunk's fastest repetition across deployments, which filters
// bursts of host noise that hit one deployment.
struct Phase {
  Meter meter;
  std::map<std::int64_t, Meter> chunks;  // simulated-time chunk -> time
  std::uint64_t events = 0;
  std::uint64_t frames = 0;

  template <typename Fn>
  void time(std::int64_t chunk, Fn&& fn) {
    Meter part;
    part.time(std::forward<Fn>(fn));
    meter.add(part);
    chunks[chunk].add(part);
  }
};

// The message types whose volume the per-layer metrics follow.
constexpr std::array<std::pair<std::string_view, proto::MsgType>, 6>
    kTrackedTypes = {{{"beacon", proto::MsgType::kBeacon},
                      {"heartbeat", proto::MsgType::kHeartbeat},
                      {"prepare", proto::MsgType::kPrepare},
                      {"commit", proto::MsgType::kCommit},
                      {"membership_report", proto::MsgType::kMembershipReport},
                      {"domain_report", proto::MsgType::kDomainReport}}};

std::size_t type_slot(proto::MsgType type) {
  return static_cast<std::size_t>(type);
}

// Sums codec counters over a set of daemons.
struct Codec {
  std::array<std::uint64_t, proto::WireStats::kTypeSlots> decoded{};
  std::uint64_t dropped = 0;

  void add(const proto::WireStats& stats) {
    for (std::size_t t = 0; t < decoded.size(); ++t)
      decoded[t] += stats.decoded[t];
    dropped += stats.total_dropped();
  }
};

double median_ms(std::vector<std::int64_t> us) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const std::size_t n = us.size();
  const double mid = n % 2 == 1
                         ? static_cast<double>(us[n / 2])
                         : 0.5 * static_cast<double>(us[n / 2 - 1] + us[n / 2]);
  return mid / 1000.0;
}

// Records the common output of one run: phase clocks and counts, harness
// cost, latency samples, the operation tally and failure messages.
struct Outcome {
  std::array<Phase, 3> phases;
  Meter harness;  // convergence polls, snapshots, invariant checks
  std::vector<double> setup_s;
  double discovery_sim_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one message per kind of failure

  void fail(std::uint64_t n, std::string what) {
    failed += n;
    failures.push_back(std::move(what));
  }
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(1, what);
  }
  // Each injected adapter fault is one operation: it fails when its
  // detection span never closed.
  void faults(std::uint64_t injected, std::uint64_t detected) {
    attempted += injected;
    if (detected < injected)
      fail(injected - detected, std::to_string(injected - detected) + " of " +
                                    std::to_string(injected) +
                                    " adapter faults were never detected");
  }

  void write(Json& out, const LatencyProbe& probe) const {
    out.list("setup_s", setup_s);
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const std::string name(kPhaseNames[p]);
      out.num(name + "_wall_s", phases[p].meter.wall_s);
      out.num("phase.cpu_s." + name, phases[p].meter.cpu_s);
      std::vector<double> chunks;  // flattened (chunk, wall_s, cpu_s)
      for (const auto& [chunk, m] : phases[p].chunks)
        chunks.insert(chunks.end(),
                      {static_cast<double>(chunk), m.wall_s, m.cpu_s});
      out.list(name + ".chunks", chunks);
      out.num("sim.events." + name, phases[p].events);
      out.num("net.frames_sent." + name, phases[p].frames);
    }
    out.num("cpu_s", phases[0].meter.cpu_s + phases[1].meter.cpu_s +
                         phases[2].meter.cpu_s);
    out.num("peak_rss_mib", peak_rss_mib());
    out.num("discovery_sim_s", discovery_sim_s);
    out.num("farm.converged_s", harness.wall_s);
    out.list("detection_us", probe.detection_us);
    out.list("report_us", probe.report_us);
    out.num("span.view_change_p50_ms", median_ms(probe.view_change_us));
    out.num("span.join_p50_ms", median_ms(probe.join_us));
    out.num("span.domain_report_p50_ms", median_ms(probe.domain_report_us));
    out.num("attempted", attempted);
    out.num("failed", failed);
    out.list("failures", failures);
  }
};

// The span books must balance for every kind: opened == closed + abandoned
// + open.
bool span_books_balance(const obs::SpanTracker& spans, std::string* detail) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(obs::SpanKind::kCount_);
       ++k) {
    const auto kind = static_cast<obs::SpanKind>(k);
    const std::uint64_t opened = spans.opened(kind);
    const std::uint64_t accounted =
        spans.closed(kind) + spans.abandoned(kind) + spans.open_count(kind);
    if (opened != accounted) {
      *detail = "span books unbalanced for " + std::string(to_string(kind)) +
                ": opened " + std::to_string(opened) + " != " +
                std::to_string(accounted);
      return false;
    }
  }
  return true;
}

std::uint64_t abandoned_total(const obs::SpanTracker& spans) {
  std::uint64_t n = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(obs::SpanKind::kCount_);
       ++k)
    n += spans.abandoned(static_cast<obs::SpanKind>(k));
  return n;
}

void write_kind_counts(Json& out, const KindCounter* kinds) {
  auto count = [kinds](TraceKind kind) -> std::uint64_t {
    return kinds != nullptr ? kinds->count(kind) : 0;
  };
  out.num("gs.beacons_heard", count(TraceKind::kBeaconHeard));
  out.num("gs.views_installed", count(TraceKind::kViewInstalled));
  out.num("gs.twopc_aborts", count(TraceKind::kTwoPcAbort));
  out.num("gs.hb_misses", count(TraceKind::kHeartbeatMiss));
  out.num("gs.probes", count(TraceKind::kProbeSent));
  out.num("gs.deaths_declared", count(TraceKind::kDeathDeclared));
  out.num("gs.reports_sent", count(TraceKind::kReportSent));
  out.num("gs.report_retries", count(TraceKind::kReportRetry));
  out.num("central.reports_applied", count(TraceKind::kGscReportApplied));
  out.num("central.report_dups", count(TraceKind::kGscReportDup));
  out.num("central.need_full", count(TraceKind::kReportNeedFull));
  out.num("central.failures_committed", count(TraceKind::kFailureCommitted));
  out.num("root.reports_applied", count(TraceKind::kRootReportApplied));
  out.num("uplink.reports_sent", count(TraceKind::kDomainReportSent));
  out.num("uplink.retries", count(TraceKind::kDomainReportRetry));
}

void write_codec(Json& out, const Codec& codec) {
  for (const auto& [name, type] : kTrackedTypes)
    out.num("wire.decoded." + std::string(name),
            codec.decoded[type_slot(type)]);
  out.num("wire.dropped", codec.dropped);
}

// --- Simulated workloads -----------------------------------------------------

// Open-loop fault schedule in simulated time, relative to the start of the
// fault phase: `waves` waves `wave_gap` apart, each failing up to
// `victims_per_wave` nodes of the given roles and recovering each after
// `hold`. A recovered node is not failed again for `rest`, so Central has
// seen it rejoin before its next fault (else the fault is no new fact).
// With `spare_leaders`, nodes holding the highest IP of any of their VLANs
// are never failed, so no AMG leader dies: under churn a leader that dies
// between declaring a member dead and reporting it loses that death, and
// Central never commits it (README.md, "Known protocol gap").
struct FaultPlan {
  int waves = 1;
  sim::SimDuration wave_gap = 0;
  int victims_per_wave = 0;
  sim::SimDuration hold = 0;
  sim::SimDuration rest = 0;
  bool spare_leaders = false;
  std::vector<farm::NodeRole> roles;
};

struct SimWorkload {
  farm::FarmSpec spec;
  sim::SimDuration steady = 0;
  FaultPlan faults;
};

std::optional<SimWorkload> sim_workload(std::string_view name, bool smoke) {
  using farm::FarmSpec;
  using farm::NodeRole;
  // A fault is held until Central has committed it: detection takes the
  // 10 s move window plus, in a burst's tail, a 25 s group-lease expiry.
  constexpr sim::SimDuration kHold = sim::seconds(60);
  SimWorkload w;
  if (name == "oceano_discovery") {
    // Flat Oceano: the admin AMG holds every node, so discovery is the
    // O(n^2) beacon exchange; one burst of back-end failures follows.
    w.spec = smoke ? FarmSpec::oceano(3, 2, 3) : FarmSpec::oceano(16, 10, 18);
    w.steady = sim::seconds(smoke ? 5 : 40);
    w.faults = {1, 0, smoke ? 3 : 50, kHold, 0, true, {NodeRole::kBackEnd}};
  } else if (name == "hier_steady") {
    // Two-level hierarchy: cheap discovery, a long heartbeat-dominated
    // steady window, then a worker burst whose deaths cross the uplinks.
    w.spec = smoke ? FarmSpec::hierarchical(4, 4)
                   : FarmSpec::hierarchical(32, 24);
    w.steady = sim::seconds(smoke ? 5 : 60);
    w.faults = {1, 0, smoke ? 4 : 128, sim::seconds(45), 0, true,
                {NodeRole::kGeneric}};
  } else if (name == "oceano_churn") {
    // Membership churn: every 4 s about 2% of the workers fail, each held
    // past the move window and then recovered. (A 5 s period resonates with
    // the 5 s T_AMG and splits seeds into two detection-latency regimes.)
    w.spec = smoke ? FarmSpec::oceano(3, 2, 3) : FarmSpec::oceano(12, 8, 16);
    w.steady = sim::seconds(smoke ? 5 : 60);
    w.faults = {smoke ? 4 : 55,   sim::seconds(4),
                smoke ? 1 : 8,     sim::seconds(35),
                sim::seconds(20),  true,
                {NodeRole::kFrontEnd, NodeRole::kBackEnd}};
  } else {
    return std::nullopt;
  }
  return w;
}

struct Action {
  sim::SimDuration at = 0;
  bool fail = false;
  std::size_t node = 0;
};

std::vector<Action> plan_faults(const FaultPlan& plan,
                                const std::vector<std::size_t>& candidates,
                                std::uint64_t seed) {
  util::Rng rng = util::Rng(seed).fork(0xFA17);
  std::map<std::size_t, sim::SimDuration> busy_until;  // node -> recovery
  std::vector<Action> actions;
  for (int w = 0; w < plan.waves; ++w) {
    const sim::SimDuration t = w * plan.wave_gap;
    std::vector<std::size_t> pool;
    for (std::size_t n : candidates) {
      auto it = busy_until.find(n);
      if (it == busy_until.end() || it->second < t) pool.push_back(n);
    }
    const std::size_t k =
        std::min(pool.size(), static_cast<std::size_t>(plan.victims_per_wave));
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
      actions.push_back({t, true, pool[i]});
      actions.push_back({t + plan.hold, false, pool[i]});
      busy_until[pool[i]] = t + plan.hold + plan.rest;
    }
  }
  // Recoveries first at equal times; node order fixes the rest.
  std::sort(actions.begin(), actions.end(),
            [](const Action& a, const Action& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.fail != b.fail) return !a.fail;
              return a.node < b.node;
            });
  return actions;
}

// One simulated deployment, driven either with Simulator::run_until (the
// measured pass) or one Simulator::step() at a time (the traced pass).
class SimBench {
 public:
  SimBench(const SimWorkload& workload, std::uint64_t seed, bool traced,
           bool settle)
      : workload_(workload), seed_(seed), traced_(traced), settle_(settle) {}

  void run(Json& out) {
    setup();
    farm::Farm& f = *farm_;
    obs::SpanTracker& spans = f.enable_span_tracking();
    probe_ = std::make_unique<LatencyProbe>(f.trace_bus());
    if (traced_) kinds_ = std::make_unique<KindCounter>(f.trace_bus());

    std::vector<std::size_t> candidates;
    for (farm::NodeRole role : workload_.faults.roles)
      for (std::size_t n : f.nodes_with_role(role)) candidates.push_back(n);
    if (workload_.faults.spare_leaders) {
      const std::set<std::size_t> leaders = vlan_leaders();
      std::erase_if(candidates,
                    [&](std::size_t n) { return leaders.count(n) > 0; });
    }
    std::sort(candidates.begin(), candidates.end());
    const std::vector<Action> actions =
        plan_faults(workload_.faults, candidates, seed_);

    // Discovery: start() until ground-truth convergence.
    begin();
    phase(kDiscoveryPhase).time(chunk_now(), [&] { f.start(); });
    const bool discovered =
        converge(sim().now() + kConvergeDeadline, kDiscoveryPhase);
    out_.discovery_sim_s = sim::to_seconds(probe_->last_install);
    out_.op(discovered, "discovery did not converge by its deadline");
    end(kDiscoveryPhase);

    // Steady: a fixed window of simulated time.
    begin();
    const sim::SimTime steady_end = sim().now() + workload_.steady;
    drive_to(steady_end, kSteadyPhase);
    end(kSteadyPhase);

    // Faults: the open-loop schedule, then reconvergence.
    begin();
    std::uint64_t injected = 0;
    for (const Action& action : actions) {
      drive_to(steady_end + action.at, kFaultPhase);
      phase(kFaultPhase).time(chunk_now(), [&] {
        if (action.fail) {
          f.fail_node(action.node);
        } else {
          f.recover_node(action.node);
        }
      });
      if (action.fail) injected += f.node_adapters(action.node).size();
    }
    const bool reconverged =
        converge(sim().now() + kConvergeDeadline, kFaultPhase);
    out_.op(reconverged, "farm did not reconverge after the fault schedule");
    end(kFaultPhase);

    write_layer_counters(out);

    // Final settle, off every clock, then the farm invariants. A repeat of
    // an already checked deployment skips both: run.py verifies that it
    // executed the same events and detections.
    if (settle_) {
      sim().run_until(sim().now() + settle_window());
      // One operation; every violation it finds counts as a failure.
      ++out_.attempted;
      out_.harness.time([&] {
        for (const gs::soak::Violation& v : gs::soak::check_farm_invariants(f))
          out_.fail(1, "invariant " + std::string(to_string(v.kind)) + ": " +
                           v.detail);
      });
    }
    std::string detail;
    out_.op(span_books_balance(spans, &detail), detail);
    out_.op(probe_->faults_opened == injected,
            "injected " + std::to_string(injected) + " adapter faults but " +
                std::to_string(probe_->faults_opened) +
                " detection spans opened");
    out_.faults(injected, probe_->detection_us.size());
    out.num("span.abandoned", abandoned_total(spans));
    out.num("span.open_at_end", spans.open_total());
    out.num("adapters", static_cast<std::uint64_t>(f.fabric().adapter_count()));
    out_.write(out, *probe_);
  }

 private:
  // Generous protocol-time deadline for every convergence checkpoint; Eq. 1
  // puts discovery near T_b + T_AMG plus skew.
  static constexpr sim::SimDuration kConvergeDeadline = sim::seconds(120);
  // Convergence is polled on this grid of simulated time, and only once
  // view installs have paused (or at least every kForcedPoll).
  static constexpr sim::SimDuration kSlice = sim::milliseconds(20);
  static constexpr sim::SimDuration kForcedPoll = sim::seconds(1);
  // Granularity of the per-chunk phase clocks.
  static constexpr sim::SimDuration kChunk = sim::milliseconds(100);
  static constexpr int kSetups = 15;

  sim::Simulator& sim() { return *sim_; }
  Phase& phase(std::size_t p) { return out_.phases[p]; }

  // Builds the deployment kSetups times (the median is setup_s) and keeps
  // the last one.
  void setup() {
    for (int i = 0; i < kSetups; ++i) {
      farm_.reset();
      sim_ = std::make_unique<sim::Simulator>();
      const auto t0 = SteadyClock::now();
      farm_ = std::make_unique<farm::Farm>(*sim_, workload_.spec,
                                           proto::Params{}, seed_);
      out_.setup_s.push_back(seconds_between(t0, SteadyClock::now()));
    }
  }

  void begin() {
    events0_ = sim().executed_events();
    frames0_ = farm_->fabric().total_frames_sent();
  }
  void end(std::size_t p) {
    phase(p).events = sim().executed_events() - events0_;
    phase(p).frames = farm_->fabric().total_frames_sent() - frames0_;
  }

  std::int64_t chunk_now() { return sim().now() / kChunk; }

  // Advances to an absolute deadline, one chunk of simulated time per
  // timed call.
  void drive_to(sim::SimTime deadline, std::size_t p) {
    while (sim().now() < deadline) {
      const std::int64_t chunk = chunk_now();
      const sim::SimTime until = std::min(deadline, (chunk + 1) * kChunk);
      phase(p).time(chunk, [&] {
        if (traced_) {
          step_to(until);
        } else {
          sim().run_until(until);
        }
      });
    }
  }

  // The traced pass: one Simulator::step() at a time, each attributed to a
  // bucket. The final run_until executes nothing and only moves the clock,
  // exactly as the measured pass's run_until leaves it.
  void step_to(sim::SimTime deadline) {
    const gs::net::Fabric& fabric = farm_->fabric();
    while (!sim().idle() && sim().next_event_time() <= deadline) {
      const std::uint64_t frames = fabric.total_frames_sent();
      const std::size_t live = sim().pending_events();
      kinds_->reset_first();
      const auto t0 = SteadyClock::now();
      sim().step();
      const auto t1 = SteadyClock::now();
      Bucket b = Bucket::kDispatch;
      if (const auto kind = kinds_->first()) {
        b = bucket_of(*kind);
      } else if (fabric.total_frames_sent() != frames) {
        b = Bucket::kSend;
      } else if (sim().pending_events() >= live) {
        b = Bucket::kDeliver;
      }
      auto& acc = buckets_[static_cast<std::size_t>(b)];
      ++acc.steps;
      acc.self_s += seconds_between(t0, t1);
    }
    sim().run_until(deadline);
  }

  // Drives in kSlice steps until Farm::converged() holds or the deadline
  // passes. Polls run on the harness clock, never on the phase clock.
  bool converge(sim::SimTime deadline, std::size_t p) {
    std::uint64_t polled_installs = probe_->view_installs;
    sim::SimTime last_poll = sim().now();
    while (sim().now() < deadline) {
      const std::uint64_t before = probe_->view_installs;
      drive_to(std::min(deadline, sim().now() + kSlice), p);
      const bool paused = probe_->view_installs == before &&
                          probe_->view_installs != polled_installs;
      if (!paused && sim().now() - last_poll < kForcedPoll) continue;
      polled_installs = probe_->view_installs;
      last_poll = sim().now();
      if (out_.harness.time([&] { return farm_->converged(); })) return true;
    }
    return out_.harness.time([&] { return farm_->converged(); });
  }

  // Nodes holding the highest IP on some VLAN: its AMG leader while up.
  std::set<std::size_t> vlan_leaders() {
    const gs::net::Fabric& fabric = farm_->fabric();
    std::set<std::size_t> nodes;
    for (util::VlanId vlan : farm_->vlans()) {
      const std::vector<util::AdapterId> members =
          farm_->healthy_adapters_in_vlan(vlan);
      const auto top = std::max_element(
          members.begin(), members.end(),
          [&](util::AdapterId a, util::AdapterId b) {
            return fabric.adapter(a).ip() < fabric.adapter(b).ip();
          });
      if (top != members.end())
        nodes.insert(fabric.adapter(*top).node().value());
    }
    return nodes;
  }

  // The soak runner's settle: report debounce, retries, the move-window
  // hold and a full group-lease cycle.
  sim::SimDuration settle_window() const {
    const proto::Params& p = farm_->params();
    return p.group_lease + p.move_window + p.amg_stable_wait +
           2 * p.report_retry + sim::seconds(3);
  }

  // Counters read at the end of the fault phase (before the settle).
  void write_layer_counters(Json& out) {
    farm::Farm& f = *farm_;
    gs::net::Fabric& fabric = f.fabric();
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    for (util::VlanId vlan : f.vlans()) {
      const gs::net::SegmentLoad& load = fabric.load(vlan);
      delivered += load.frames_delivered;
      lost += load.frames_lost;
    }
    out.num("net.frames_delivered", delivered);
    out.num("net.frames_lost", lost);
    out.num("net.bytes_sent", fabric.total_bytes_sent());
    for (const auto& [name, type] : kTrackedTypes) {
      const auto& by_type = fabric.frames_by_type();
      const auto it = by_type.find(static_cast<std::uint16_t>(type));
      out.num("net.frames_sent." + std::string(name),
              it == by_type.end() ? std::uint64_t{0} : it->second);
    }
    std::uint64_t events = 0;
    for (const Phase& ph : out_.phases) events += ph.events;
    out.num("net.events_per_delivery",
            delivered > 0 ? static_cast<double>(events) /
                                static_cast<double>(delivered)
                          : 0.0);
    out.num("sim.queue_high_water",
            static_cast<std::uint64_t>(sim().queue_high_water()));

    Codec codec;
    std::uint64_t reports_received = 0;
    std::uint64_t nodes_down = 0;
    std::uint64_t root_need_fulls = 0;
    out_.harness.time([&] {
      const obs::FarmHealthSampler::Snapshot snap = f.health_snapshot();
      if (snap.gsc) nodes_down = snap.gsc->nodes_down;
      if (snap.root) root_need_fulls = snap.root->need_fulls;
      for (std::size_t n = 0; n < f.node_count(); ++n)
        codec.add(f.daemon(n).wire_stats());
      // Every active Central: the flat one, or the root tier's and each
      // domain's in a hierarchy.
      std::vector<proto::Central*> centrals;
      if (f.spec().is_hierarchical()) {
        centrals.push_back(f.active_root_tier_central());
        for (int d = 0; d < f.spec().hier_domains; ++d)
          centrals.push_back(
              f.active_domain_central(static_cast<std::uint32_t>(d)));
      } else {
        centrals.push_back(f.active_central());
      }
      for (proto::Central* c : centrals) {
        if (c == nullptr) continue;
        reports_received += c->reports_received();
        if (f.spec().is_hierarchical()) nodes_down += c->nodes_down_count();
      }
    });
    write_codec(out, codec);
    out.num("central.reports_received", reports_received);
    out.num("central.nodes_down", nodes_down);
    out.num("root.need_fulls", root_need_fulls);
    write_kind_counts(out, kinds_.get());
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::string name = "step." + std::string(kBucketNames[b]);
      out.num(name + ".steps", buckets_[b].steps);
      out.num(name + ".self_s", buckets_[b].self_s);
    }
  }

  struct BucketAcc {
    std::uint64_t steps = 0;
    double self_s = 0.0;
  };

  const SimWorkload& workload_;
  const std::uint64_t seed_;
  const bool traced_;
  const bool settle_;
  Outcome out_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<farm::Farm> farm_;
  std::unique_ptr<LatencyProbe> probe_;
  std::unique_ptr<KindCounter> kinds_;
  std::array<BucketAcc, kBuckets> buckets_{};
  std::uint64_t events0_ = 0;
  std::uint64_t frames0_ = 0;
};

// --- real_udp ----------------------------------------------------------------

// RealFarm on loopback: `nodes` daemons, each with an admin adapter on VLAN
// 1 and a data adapter on one of `data_vlans` VLANs. The `eligible`
// highest-IP nodes host Centrals; `victims` of the others are killed at
// once after the steady stretch. Ports start at kBasePort, below the
// kernel's ephemeral range and apart from the tests' (48100+) and
// examples' (47000+) ranges.
struct RealWorkload {
  int nodes = 64;
  int data_vlans = 4;
  int eligible = 2;
  int victims = 12;
  sim::SimDuration steady = sim::milliseconds(500);
};

constexpr std::uint16_t kBasePort = 29000;
constexpr std::uint16_t kVlanStride = 128;

// Wall-clock timers at half the quickstart's already shortened ones (the
// paper's ratios, about 10-20x faster): a deployment takes about 4 s, so a
// run holds enough of them to average over the protocol's timing paths.
proto::Params real_params() {
  proto::Params p;
  p.beacon_phase = sim::milliseconds(500);
  p.beacon_interval = sim::milliseconds(125);
  p.defer_timeout = sim::milliseconds(400);
  p.join_retry = sim::milliseconds(200);
  p.change_debounce = sim::milliseconds(50);
  p.twopc_timeout = sim::milliseconds(200);
  p.hb_period = sim::milliseconds(100);
  p.probe_timeout = sim::milliseconds(100);
  p.suspect_retry = sim::milliseconds(125);
  p.amg_stable_wait = sim::milliseconds(400);
  p.gsc_stable_wait = sim::seconds(1);
  p.report_retry = sim::milliseconds(250);
  p.report_refresh = sim::seconds(1);
  p.group_lease = sim::milliseconds(2500);
  p.move_window = sim::seconds(1);
  p.start_skew_max = sim::milliseconds(100);
  p.beacon_setup_min = sim::milliseconds(50);
  p.beacon_setup_max = sim::milliseconds(100);
  p.proc_delay_mean = 0;  // the host provides real scheduling delay
  return p;
}

class RealBench {
 public:
  RealBench(const RealWorkload& workload, std::uint64_t seed, bool traced)
      : workload_(workload), seed_(seed), traced_(traced) {}

  void run(Json& out) {
    setup();
    farm::RealFarm& f = *farm_;
    obs::SpanTracker spans(f.trace_bus());
    LatencyProbe probe(f.trace_bus());
    std::unique_ptr<KindCounter> kinds;
    if (traced_) kinds = std::make_unique<KindCounter>(f.trace_bus());

    const std::size_t adapters = 2 * static_cast<std::size_t>(workload_.nodes);
    auto formed = [&](std::size_t live_adapters) {
      return out_.harness.time([&] {
        proto::Central* central = f.active_central();
        return f.converged() && central != nullptr &&
               central->alive_adapter_count() == live_adapters;
      });
    };

    // Discovery. The predicate runs after every event-loop pass; its cost
    // is harness time and is taken off the phase clock.
    Phase& disc = out_.phases[kDiscoveryPhase];
    const sim::SimTime t_start = f.clock().now();
    Meter polls0 = out_.harness;
    bool discovered = false;
    disc.meter.time([&] {
      f.start();
      discovered =
          f.run_until(sim::seconds(30), [&] { return formed(adapters); });
    });
    take_off_clock(disc.meter, polls0);
    out_.discovery_sim_s = sim::to_seconds(f.clock().now() - t_start);
    out_.op(discovered, "real farm did not converge within 30 s");

    // Steady: a fixed wall-time stretch.
    out_.phases[kSteadyPhase].meter.time([&] { f.run_for(workload_.steady); });

    // Faults: kill a burst, wait for every detection span to close and the
    // survivors to reconverge with Central agreeing.
    util::Rng rng = util::Rng(seed_).fork(0xFA17);
    std::vector<std::size_t> pool;
    for (int n = 0; n < workload_.nodes - workload_.eligible; ++n)
      pool.push_back(static_cast<std::size_t>(n));
    const std::size_t k =
        std::min(pool.size(), static_cast<std::size_t>(workload_.victims));
    Phase& fault = out_.phases[kFaultPhase];
    polls0 = out_.harness;
    bool recovered = false;
    fault.meter.time([&] {
      for (std::size_t i = 0; i < k; ++i) {
        std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
        f.kill_node(pool[i]);
      }
      const std::size_t live = adapters - 2 * k;
      recovered = f.run_until(sim::seconds(30), [&] {
        return probe.faults_open() == 0 && formed(live);
      });
    });
    take_off_clock(fault.meter, polls0);
    out_.op(recovered, "killed daemons were not all detected within 30 s");

    std::string detail;
    out_.op(span_books_balance(spans, &detail), detail);
    out_.faults(2 * k, probe.detection_us.size());

    Codec codec;
    gs::net::UdpTransport::Stats udp;
    for (std::size_t n = 0; n < f.node_count(); ++n) {
      codec.add(f.daemon(n).wire_stats());
      if (const gs::net::UdpTransport* t = f.udp_transport(n)) {
        udp.frames_sent += t->stats().frames_sent;
        udp.frames_received += t->stats().frames_received;
        udp.bytes_sent += t->stats().bytes_sent;
        udp.send_errors += t->stats().send_errors;
        udp.recv_unknown += t->stats().recv_unknown;
      }
    }
    write_codec(out, codec);
    out.num("udp.frames_sent", udp.frames_sent);
    out.num("udp.frames_received", udp.frames_received);
    out.num("udp.bytes_sent", udp.bytes_sent);
    out.num("udp.send_errors", udp.send_errors);
    out.num("udp.recv_unknown", udp.recv_unknown);
    proto::Central* central = f.active_central();
    out.num("central.reports_received",
            central != nullptr ? central->reports_received() : 0);
    out.num("central.nodes_down",
            central != nullptr
                ? static_cast<std::uint64_t>(central->nodes_down_count())
                : 0);
    write_kind_counts(out, kinds.get());
    out.num("span.abandoned", abandoned_total(spans));
    out.num("span.open_at_end", spans.open_total());
    out.num("adapters", static_cast<std::uint64_t>(adapters));
    out_.write(out, probe);
  }

 private:
  static constexpr int kSetups = 15;

  // The convergence predicate runs inside the drive call; subtract what it
  // cost since `before` from the phase clock.
  void take_off_clock(Meter& phase, const Meter& before) const {
    phase.wall_s -= out_.harness.wall_s - before.wall_s;
    phase.cpu_s -= out_.harness.cpu_s - before.cpu_s;
  }

  // Builds the deployment (every add_node binds its sockets) kSetups times
  // and keeps the last one.
  void setup() {
    for (int i = 0; i < kSetups; ++i) {
      farm_.reset();
      const auto t0 = SteadyClock::now();
      farm::RealFarm::Options opts;
      opts.params = real_params();
      opts.base_port = kBasePort;
      opts.vlan_stride = kVlanStride;
      opts.seed = seed_;
      farm_ = std::make_unique<farm::RealFarm>(std::move(opts));
      for (int n = 0; n < workload_.nodes; ++n) farm_->add_node(node_spec(n));
      out_.setup_s.push_back(seconds_between(t0, SteadyClock::now()));
    }
  }

  farm::RealFarm::NodeSpec node_spec(int n) const {
    const int data_vlans = workload_.data_vlans;
    farm::RealFarm::NodeSpec spec;
    spec.name = "node-" + std::to_string(n);
    // IPs ascend with n, so the last `eligible` nodes lead the admin AMG.
    spec.central_eligible = n >= workload_.nodes - workload_.eligible;
    gs::net::UdpTransport::PortSpec admin;
    admin.ip = util::IpAddress(10, 1, static_cast<std::uint8_t>(n / 200),
                               static_cast<std::uint8_t>(10 + n % 200));
    admin.mac = util::MacAddress(static_cast<std::uint64_t>(2 * n + 1));
    admin.vlan = util::VlanId(1);
    gs::net::UdpTransport::PortSpec data;
    const int vlan = n % data_vlans;
    data.ip = util::IpAddress(10, static_cast<std::uint8_t>(2 + vlan),
                              static_cast<std::uint8_t>(n / 200),
                              static_cast<std::uint8_t>(10 + n % 200));
    data.mac = util::MacAddress(static_cast<std::uint64_t>(2 * n + 2));
    data.vlan = util::VlanId(static_cast<std::uint32_t>(10 + vlan));
    spec.ports = {admin, data};
    return spec;
  }

  const RealWorkload workload_;
  const std::uint64_t seed_;
  const bool traced_;
  Outcome out_;
  std::unique_ptr<farm::RealFarm> farm_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  if (!flags.parse(argc, argv)) return 2;
  const std::string workload = flags.get_string(
      "workload", "",
      "oceano_discovery | hier_steady | oceano_churn | real_udp");
  const auto seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 2001, "seed for the farm and the fault schedule"));
  const bool traced = flags.get_bool(
      "traced", false, "step the simulator one event at a time and attribute "
                       "wall time to layer buckets");
  const bool smoke = flags.get_bool("smoke", false, "tiny sizes");
  const bool settle = flags.get_bool(
      "settle", true, "settle and check the farm invariants at the end "
                      "(simulated workloads)");
  if (flags.help_requested()) {
    flags.print_usage();
    return 0;
  }
  if (!flags.unknown_flags().empty()) {
    std::fprintf(stderr, "unknown flag --%s\n",
                 flags.unknown_flags().front().c_str());
    return 2;
  }
  util::Logger::instance().set_level(util::LogLevel::kError);

  Json out;
  if (workload == "real_udp") {
    RealWorkload w;
    if (smoke) w = RealWorkload{12, 2, 2, 2, sim::milliseconds(500)};
    RealBench(w, seed, traced).run(out);
  } else if (const auto w = sim_workload(workload, smoke)) {
    SimBench(*w, seed, traced, settle).run(out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
