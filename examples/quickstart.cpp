// Quickstart: build a small multi-domain farm, run GulfStream discovery,
// and print what GulfStream Central learned about the topology.
//
//   ./quickstart [--nodes=...] [--domains=...] [--verbose]
//                [--trace=out.jsonl] [--metrics=out.prom]
//   ./quickstart --real [--real-nodes=8]
//
// With --trace=PATH every protocol trace record (beacon, election, 2PC,
// reports, ...) is streamed to PATH as JSON Lines while the run progresses.
// With --metrics=PATH the latency observatory is attached (span tracking +
// periodic health sampling), one adapter failure is injected after the farm
// stabilizes so a detection span closes end to end, and the final metrics
// registry is written as Prometheus text to PATH and as JSON to PATH.json.
//
// With --real the same unmodified daemons run over the real-transport
// backend instead of the simulator: N real UDP endpoints on loopback
// (wall-clock timers, epoll event loop), converging membership for real,
// then one daemon is killed and the span-measured detection latency
// printed.
#include <cstdio>

#include "farm/farm.h"
#include "farm/realnet.h"
#include "farm/scenario.h"
#include "obs/expo.h"
#include "obs/jsonl_sink.h"
#include "obs/spans.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

// Wall-clock timescale for the real backend: the paper's multi-second
// timers make a demo (and the CI smoke job) crawl, so everything shrinks
// ~5-10x while keeping the same ratios. Equation 1 still holds, just in
// faster units.
gs::proto::Params real_params() {
  gs::proto::Params p;
  p.beacon_phase = gs::sim::seconds(1);
  p.beacon_interval = gs::sim::milliseconds(250);
  p.defer_timeout = gs::sim::milliseconds(800);
  p.join_retry = gs::sim::milliseconds(400);
  p.change_debounce = gs::sim::milliseconds(100);
  p.twopc_timeout = gs::sim::milliseconds(400);
  p.hb_period = gs::sim::milliseconds(200);
  p.probe_timeout = gs::sim::milliseconds(200);
  p.suspect_retry = gs::sim::milliseconds(250);
  p.amg_stable_wait = gs::sim::milliseconds(800);
  p.gsc_stable_wait = gs::sim::seconds(2);
  p.report_retry = gs::sim::milliseconds(500);
  p.report_refresh = gs::sim::seconds(2);
  p.group_lease = gs::sim::seconds(5);
  p.move_window = gs::sim::seconds(2);
  p.start_skew_max = gs::sim::milliseconds(200);
  p.beacon_setup_min = gs::sim::milliseconds(100);
  p.beacon_setup_max = gs::sim::milliseconds(200);
  return p;
}

// Node n's gs IP: host numbers from 10.1.0.101 upward, carried into the
// third octet and skipping the .0 network and .255 broadcast addresses, so
// every node gets a distinct, ordinary address and a lower n keeps a lower
// IP.
gs::util::IpAddress real_node_ip(int n) {
  const int host = 100 + n;
  return gs::util::IpAddress(10, 1, static_cast<std::uint8_t>(host / 254),
                             static_cast<std::uint8_t>(1 + host % 254));
}

int run_real(int nodes) {
  std::printf("Booting %d real GulfStream daemons over loopback UDP...\n",
              nodes);
  gs::farm::RealFarm::Options opts;
  opts.params = real_params();
  gs::farm::RealFarm farm(std::move(opts));
  farm.clock().install_log_clock();

  gs::util::StatsRegistry metrics;
  gs::obs::SpanTracker spans(farm.trace_bus(), &metrics);

  const gs::util::VlanId vlan(1);
  for (int n = 0; n < nodes; ++n) {
    gs::farm::RealFarm::NodeSpec spec;
    spec.name = "real-" + std::to_string(n);
    spec.central_eligible = true;
    gs::net::UdpTransport::PortSpec port;
    port.ip = real_node_ip(n);
    port.mac = gs::util::MacAddress(static_cast<std::uint64_t>(1 + n));
    port.vlan = vlan;
    spec.ports.push_back(port);
    const std::size_t index = farm.add_node(std::move(spec));
    std::printf("  %-8s gs-ip %-12s -> udp 127.0.0.1:%u\n",
                farm.daemon(index).config().name.c_str(),
                port.ip.to_string().c_str(),
                farm.udp_transport(index)->udp_port(0));
  }

  farm.start();
  const bool formed = farm.run_until(gs::sim::seconds(30), [&] {
    gs::proto::Central* central = farm.active_central();
    return farm.converged() && central != nullptr &&
           central->known_adapter_count() == static_cast<std::size_t>(nodes);
  });
  if (!formed) {
    std::printf("membership never converged over UDP!\n");
    return 1;
  }
  gs::proto::Central* central = farm.active_central();
  std::printf("\nconverged at t=%.2fs (wall): %zu adapters in %zu group(s), "
              "GSC at %s\n",
              gs::sim::to_seconds(farm.clock().now()),
              central->known_adapter_count(), central->groups().size(),
              central->self_ip().to_string().c_str());

  // Kill the lowest-IP daemon: never the leader/GSC, so detection flows
  // member -> leader -> Central like a real mid-farm crash.
  const std::size_t victim = 0;
  std::printf("\nkilling %s (closing its sockets)...\n",
              farm.daemon(victim).config().name.c_str());
  farm.kill_node(victim);

  const bool detected = farm.run_until(gs::sim::seconds(30), [&] {
    const gs::util::Histogram* h = metrics.find_histogram("span.detection_us");
    return h != nullptr && h->count() >= 1 && farm.converged();
  });
  const gs::util::Histogram* h = metrics.find_histogram("span.detection_us");
  if (!detected || h == nullptr || h->count() < 1) {
    std::printf("detection span never closed!\n");
    return 1;
  }
  std::printf("survivors reconverged; detection span count=%llu: socket "
              "close -> Central commit in %.3fs (includes the %.1fs "
              "move-inference hold)\n",
              static_cast<unsigned long long>(h->count()), h->mean() / 1e6,
              gs::sim::to_seconds(farm.params().move_window));
  std::printf("real-transport run OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const int domains = static_cast<int>(flags.get_int("domains", 2,
                                                     "customer domains"));
  const int fronts = static_cast<int>(flags.get_int("fronts", 2,
                                                    "front ends per domain"));
  const int backs = static_cast<int>(flags.get_int("backs", 2,
                                                   "back ends per domain"));
  const bool verbose = flags.get_bool("verbose", false, "protocol trace");
  const std::string trace_path =
      flags.get_string("trace", "", "stream protocol trace records to this "
                                    "JSONL file");
  const std::string metrics_path = flags.get_string(
      "metrics", "", "write final metrics as Prometheus text to this file "
                     "(and JSON to <file>.json); injects one adapter failure "
                     "so a detection span completes");
  const bool real = flags.get_bool(
      "real", false, "run over the real UDP transport on loopback instead "
                     "of the simulator: converge, kill one daemon, measure "
                     "the detection span on the wall clock");
  const int real_nodes = static_cast<int>(
      flags.get_int("real-nodes", 8, "daemons to boot with --real"));
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::util::Logger::instance().set_level(verbose ? gs::util::LogLevel::kDebug
                                                 : gs::util::LogLevel::kWarn);
  if (real) return run_real(real_nodes);

  gs::sim::Simulator sim;
  sim.install_log_clock();
  gs::util::Logger::instance().set_level(verbose ? gs::util::LogLevel::kDebug
                                                 : gs::util::LogLevel::kWarn);

  // The paper's defaults: T_b=5s, T_AMG=5s, T_GSC=15s.
  gs::proto::Params params;

  std::printf("Building an Oceano-style farm: %d domains x (%d front + %d "
              "back), 2 dispatchers, 2 management nodes...\n",
              domains, fronts, backs);
  gs::farm::Farm farm(sim, gs::farm::FarmSpec::oceano(domains, fronts, backs),
                      params, /*seed=*/2001);

  // Subscribe to the farm-wide telemetry buses: a chronological event log,
  // a phase-transition summary, and (optionally) a streaming JSONL sink.
  gs::proto::EventLog events(farm.event_bus());
  gs::obs::Recorder<gs::obs::TraceRecord> phases(farm.trace_bus(),
                                                 gs::obs::kPhaseMask);
  gs::obs::JsonlSink sink;
  gs::obs::Subscription tap;
  if (!trace_path.empty()) {
    if (!sink.open(trace_path)) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   trace_path.c_str());
      return 1;
    }
    tap = sink.tap(farm.trace_bus());
    farm.fabric().enable_load_sampling(gs::sim::seconds(5));
  }
  gs::obs::SpanTracker* spans = nullptr;
  if (!metrics_path.empty()) {
    spans = &farm.enable_span_tracking();
    farm.enable_health_sampling(gs::sim::seconds(5));
  }

  std::printf("\n-- farm events --------------------------------------\n");
  farm.start();

  auto stable = gs::farm::run_until_gsc_stable(farm, gs::sim::seconds(300));
  for (const gs::proto::FarmEvent& event : events)
    std::printf("  t=%6.2fs  %s\n", gs::sim::to_seconds(event.time),
                std::string(to_string(event.kind)).c_str());

  if (!stable) {
    std::printf("GulfStream Central never declared stability!\n");
    return 1;
  }
  std::printf("\nInitial topology stable at t=%.2fs "
              "(T_b + T_AMG + T_GSC + delta, Equation 1)\n",
              gs::sim::to_seconds(*stable));

  // The protocol storyline that led there: beacon -> election -> 2PC
  // commit -> views installed -> stable.
  std::printf("\n-- protocol phases (from the trace bus) ---------------\n");
  using gs::obs::TraceKind;
  const TraceKind story[] = {TraceKind::kBeaconSent, TraceKind::kBeaconHeard,
                             TraceKind::kElectionDeferred,
                             TraceKind::kElectionWon, TraceKind::kTwoPcPrepare,
                             TraceKind::kTwoPcCommit,
                             TraceKind::kViewInstalled};
  for (TraceKind kind : story) {
    gs::sim::SimTime first = -1;
    for (const gs::obs::TraceRecord& r : phases) {
      if (r.kind == kind) {
        first = r.time;
        break;
      }
    }
    if (first < 0) continue;
    std::printf("  %-18s x%-5zu first at t=%6.2fs\n",
                std::string(to_string(kind)).c_str(), phases.count(kind),
                gs::sim::to_seconds(first));
  }

  gs::proto::Central* central = farm.active_central();
  if (central == nullptr) {
    std::printf("no active GulfStream Central (admin AMG has no leader with "
                "an eligible node) — cannot print the discovered topology\n");
    return 1;
  }
  std::printf("\n-- discovered topology (GulfStream Central's view) ----\n");
  std::printf("GSC: %s  |  %zu adapters across %zu adapter membership "
              "groups\n\n",
              central->self_ip().to_string().c_str(),
              central->known_adapter_count(), central->groups().size());
  for (const auto& group : central->groups()) {
    std::printf("  AMG led by %-14s (view %llu, %zu members):\n",
                group.leader.ip.to_string().c_str(),
                static_cast<unsigned long long>(group.view),
                group.members.size());
    for (gs::util::IpAddress ip : group.members) {
      const auto rec = farm.db().adapter_by_ip(ip);
      std::printf("    %-14s %s\n", ip.to_string().c_str(),
                  rec ? farm.db().node(rec->node)->name.c_str() : "?");
    }
  }

  const auto findings = central->verify_now();
  std::printf("\nConfiguration-database verification: %zu inconsistencies\n",
              findings.size());
  for (const auto& finding : findings)
    std::printf("  [%s] %s\n", std::string(to_string(finding.kind)).c_str(),
                finding.detail.c_str());

  if (spans != nullptr) {
    // Give the observatory one complete detection span to measure: fail a
    // non-leader, non-admin member and wait for Central to commit it (the
    // move-inference hold of params.move_window delays the commit).
    gs::util::IpAddress victim_ip;
    for (const auto& group : central->groups()) {
      for (gs::util::IpAddress ip : group.members) {
        const auto rec = farm.db().adapter_by_ip(ip);
        if (!rec || rec->admin || ip == group.leader.ip) continue;
        victim_ip = ip;
        break;
      }
      if (!victim_ip.is_unspecified()) break;
    }
    std::printf("\n-- latency observatory --------------------------------\n");
    if (victim_ip.is_unspecified()) {
      std::printf("no non-leader member to fail; skipping span demo\n");
    } else {
      const auto victim = farm.db().adapter_by_ip(victim_ip);
      std::printf("failing %s to exercise the detection pipeline...\n",
                  victim_ip.to_string().c_str());
      farm.fabric().set_adapter_health(victim->adapter,
                                       gs::net::HealthState::kDown);
      const auto committed = gs::farm::run_until(
          sim, sim.now() + params.move_window + gs::sim::seconds(60), [&] {
            const gs::util::Histogram* h =
                farm.metrics().find_histogram("span.detection_us");
            return h != nullptr && h->count() >= 1;
          });
      const gs::util::Histogram* h =
          farm.metrics().find_histogram("span.detection_us");
      if (committed && h != nullptr && h->count() >= 1)
        std::printf("detection span: fault -> Central commit in %.3fs "
                    "(includes the %.0fs move-inference hold)\n",
                    h->mean() / 1e6,
                    gs::sim::to_seconds(params.move_window));
      else
        std::printf("detection span never closed within the deadline!\n");
    }
    farm.health_sampler()->sample_now();
    if (gs::obs::expo::write_metrics_files(farm.metrics(), metrics_path))
      std::printf("metrics -> %s (Prometheus text) and %s.json\n",
                  metrics_path.c_str(), metrics_path.c_str());
    else
      return 1;
  }

  if (sink.is_open())
    std::printf("\nWrote %llu trace records to %s\n",
                static_cast<unsigned long long>(sink.lines_written()),
                trace_path.c_str());
  return 0;
}
