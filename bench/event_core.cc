// Event-core micro-benchmark: the timing-wheel EventQueue against the
// reference binary heap (tests/heap_queue.h) on the two patterns the farm
// actually exercises:
//
//   re-arm   — the heartbeat steady state as the event queue sees it. Each
//              beacon arrival re-arms the sender's suspicion deadline 2 s
//              out (the sim::Timer::rearm fast path), schedules the next
//              beacon one period out, and fans out that round's frame
//              deliveries ~150 us ahead — one event per receiver, the way
//              the pre-batching fabric scheduled a multicast (--fan
//              defaults to 78 receivers per VLAN, --monitors to 5000
//              monitored adapters). The deadline mix is what splits the
//              implementations: near-term delivery pushes sift through the
//              heap's suspicion-laden top on the way in *and* on the way
//              out, while the wheel links them into a bucket list in O(1)
//              and pops them off its head; a re-arm unlinks and relinks
//              one node.
//   push-pop — the bare scheduling funnel: push a batch of staggered
//              deadlines, drain it, repeat. No cancellation, no re-arm.
//
// Both implementations are driven with the *identical* operation stream and
// the popped (when) sequence is checksummed; a checksum mismatch means the
// wheel broke the (when, seq) total order and the bench aborts. Each
// pattern runs --repeats times and the fastest run counts (standard
// micro-bench practice: the minimum is the least contaminated by machine
// noise). The headline ratio (heap ns/op / wheel ns/op) on the re-arm
// pattern is gated by --min_speedup so a queue regression fails loudly in
// CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "bench/bench_common.h"
#include "sim/event_queue.h"
#include "tests/heap_queue.h"
#include "util/flags.h"

namespace {

using gs::sim::SimTime;

constexpr SimTime kSuspect = 2'000'000;  // suspicion deadline: 2 s
constexpr SimTime kPeriod = 250'000;     // heartbeat period: 250 ms
constexpr SimTime kLatency = 150;        // delivery latency: 150 us
constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

struct MicroResult {
  double ns_per_op = 0;
  std::uint64_t checksum = 0;
};

// One beacon cycle = pop + reschedule(+2 s) + push next beacon + fan
// delivery pushes; the deliveries pop between beacons. Identical streams
// for both queue types: the only difference is the container under test.
template <typename Queue>
MicroResult run_rearm(std::size_t monitors, std::size_t ops, std::size_t fan) {
  Queue q;
  std::vector<gs::sim::EventId> suspicion(monitors);
  std::uint64_t delivered = 0;
  std::uint64_t fired = 0;
  constexpr std::uint32_t kNoPeer = 0xFFFF'FFFF;
  std::uint32_t cur = kNoPeer;
  // Beacon callbacks identify their peer ({&cur, j} fits the std::function
  // small-buffer, so pushes don't allocate); suspicion callbacks never run.
  for (std::uint32_t j = 0; j < monitors; ++j) {
    const auto t0 = static_cast<SimTime>(j) * kPeriod /
                    static_cast<SimTime>(monitors);
    q.push(t0, [&cur, j] { cur = j; });
    suspicion[j] = q.push(t0 + kSuspect, [&fired] { ++fired; });
  }

  std::uint64_t checksum = 0;
  // One pop_due per event, as every library consumer drives the queue
  // (Simulator::run_until and WallClock::run_due pass their deadline as
  // the cutoff).
  auto spin = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      cur = kNoPeer;
      auto [when, fn] = *q.pop_due(kForever);
      fn();
      checksum = checksum * 31 + static_cast<std::uint64_t>(when);
      if (cur == kNoPeer) continue;  // a frame delivery, not a beacon
      suspicion[cur] = q.reschedule(suspicion[cur], when + kSuspect);
      q.push(when + kPeriod, [&cur, j = cur] { cur = j; });
      for (std::size_t k = 0; k < fan; ++k)
        q.push(when + kLatency, [&delivered] { ++delivered; });
    }
  };
  spin(ops / 4);  // warm up pools, wheel capacities, branch predictors
  checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  spin(ops);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  MicroResult out;
  out.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      static_cast<double>(ops);
  out.checksum = checksum * 31 + fired + delivered;  // fired should stay 0
  return out;
}

// Push a batch of staggered deadlines, drain it dry, repeat.
template <typename Queue>
MicroResult run_push_pop(std::size_t batch, std::size_t rounds) {
  Queue q;
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0;
  SimTime base = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < batch; ++i) {
      // Deadlines land out of order and span several wheel levels.
      const auto scatter =
          static_cast<SimTime>((i * 2654435761u) % (16 * kPeriod));
      q.push(base + scatter, [&fired] { ++fired; });
    }
    while (auto ev = q.pop_due(kForever)) {
      auto& [when, fn] = *ev;
      fn();
      checksum = checksum * 31 + static_cast<std::uint64_t>(when);
      base = when;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  MicroResult out;
  out.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      static_cast<double>(batch * rounds);
  out.checksum = checksum * 31 + fired;
  return out;
}

// Fastest of n runs; checksums must agree across runs (same stream).
template <typename Fn>
MicroResult best_of(std::size_t n, Fn run) {
  MicroResult best = run();
  for (std::size_t i = 1; i < n; ++i) {
    const MicroResult r = run();
    if (r.checksum != best.checksum) {
      std::fprintf(stderr, "FAIL: nondeterministic pop stream across runs\n");
      std::exit(1);
    }
    best.ns_per_op = std::min(best.ns_per_op, r.ns_per_op);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const bool smoke =
      flags.get_bool("smoke", false, "quick iteration (CI regression gate)");
  // Default shape: 5000 monitored adapters, each beacon fanning out to a
  // 78-member VLAN (5000 adapters over 64 VLANs).
  const auto monitors = static_cast<std::size_t>(
      flags.get_int("monitors", 5000, "concurrently monitored peers"));
  const auto fan = static_cast<std::size_t>(flags.get_int(
      "fan", 78, "frame deliveries fanned out per beacon arrival"));
  const auto ops = static_cast<std::size_t>(flags.get_int(
      "ops", smoke ? 500000 : 4000000, "re-arm pattern queue ops to measure"));
  const auto rounds = static_cast<std::size_t>(
      flags.get_int("rounds", smoke ? 50 : 500, "push-pop drain rounds"));
  const auto repeats = static_cast<std::size_t>(flags.get_int(
      "repeats", smoke ? 5 : 3, "timed runs per pattern; fastest counts"));
  const double min_speedup = flags.get_double(
      "min_speedup", 3.0,
      "fail if wheel/heap re-arm speedup drops below this factor");
  if (const auto exit_code = flags.finish()) return *exit_code;

  gs::bench::print_header("event core: timing wheel vs reference heap");
  std::printf("monitors=%zu  fan=%zu  re-arm ops=%zu  push-pop rounds=%zu  "
              "repeats=%zu\n",
              monitors, fan, ops, rounds, repeats);

  const auto wheel_rearm = best_of(repeats, [&] {
    return run_rearm<gs::sim::EventQueue>(monitors, ops, fan);
  });
  const auto heap_rearm = best_of(repeats, [&] {
    return run_rearm<gs::sim::HeapEventQueue>(monitors, ops, fan);
  });
  if (wheel_rearm.checksum != heap_rearm.checksum) {
    std::fprintf(stderr,
                 "FAIL: wheel and heap popped different (when) sequences on "
                 "the re-arm stream — order regression\n");
    return 1;
  }
  const auto wheel_pp = best_of(repeats, [&] {
    return run_push_pop<gs::sim::EventQueue>(monitors, rounds);
  });
  const auto heap_pp = best_of(repeats, [&] {
    return run_push_pop<gs::sim::HeapEventQueue>(monitors, rounds);
  });
  if (wheel_pp.checksum != heap_pp.checksum) {
    std::fprintf(stderr,
                 "FAIL: wheel and heap popped different (when) sequences on "
                 "the push-pop stream — order regression\n");
    return 1;
  }

  const double rearm_speedup =
      wheel_rearm.ns_per_op > 0 ? heap_rearm.ns_per_op / wheel_rearm.ns_per_op
                                : 0;
  const double pp_speedup =
      wheel_pp.ns_per_op > 0 ? heap_pp.ns_per_op / wheel_pp.ns_per_op : 0;

  gs::bench::print_rule();
  std::printf("%-28s %12s %12s %9s\n", "pattern", "wheel ns/op", "heap ns/op",
              "speedup");
  gs::bench::print_rule();
  std::printf("%-28s %12.1f %12.1f %8.2fx\n", "re-arm + delivery fan",
              wheel_rearm.ns_per_op, heap_rearm.ns_per_op, rearm_speedup);
  std::printf("%-28s %12.1f %12.1f %8.2fx\n", "push-pop drain",
              wheel_pp.ns_per_op, heap_pp.ns_per_op, pp_speedup);

  gs::bench::BenchJson json("event_core");
  json.set("smoke", smoke);
  json.set("monitors", static_cast<std::uint64_t>(monitors));
  json.set("fan", static_cast<std::uint64_t>(fan));
  json.set("rearm_ops", static_cast<std::uint64_t>(ops));
  json.set("wheel_rearm_ns_per_op", wheel_rearm.ns_per_op);
  json.set("heap_rearm_ns_per_op", heap_rearm.ns_per_op);
  json.set("rearm_speedup", rearm_speedup);
  json.set("wheel_push_pop_ns_per_op", wheel_pp.ns_per_op);
  json.set("heap_push_pop_ns_per_op", heap_pp.ns_per_op);
  json.set("push_pop_speedup", pp_speedup);
  json.write();

  if (rearm_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: re-arm speedup %.2fx below floor %.2fx — the wheel "
                 "fast path regressed against the reference heap\n",
                 rearm_speedup, min_speedup);
    return 1;
  }
  return 0;
}
