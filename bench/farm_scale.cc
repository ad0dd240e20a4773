// Farm-scale stress of the simulator core (ROADMAP: "as fast as the
// hardware allows"). Two phases over a 5 000-adapter / 64-VLAN farm:
//
//  steady state  every adapter beacons its VLAN twice a second while an
//                FD-style suspicion timer is cancelled and re-armed on
//                every delivery; a mid-run fault burst fails switches and
//                nodes, then recovers them. Reported: simulator events/s,
//                frames sent+delivered/s (wall clock), peak RSS.
//
//  steady event path  (PR 10) the steady state's event-core cost raced as a
//                pre-PR replica vs the shipped shape: binary heap + one
//                event per receiver + cancel/re-push re-arms, against the
//                timing wheel + one event per (frame, deadline) batch +
//                in-place reschedule re-arms, over an identical schedule.
//                --min_steady_speedup gates the ratio in CI.
//
//  multicast path  the cost of putting one multicast on the wire, measured
//                two ways: the indexed implementation (per-VLAN membership
//                index, refcounted payload) vs an in-bench replica of the
//                pre-index algorithm (whole-farm scan per frame, payload
//                cloned per receiver). Delivery execution is identical in
//                both, so only enqueue time is on the clock. The ratio is
//                the speedup the index buys; --min_speedup turns a scaling
//                regression into a nonzero exit, which CI treats as a
//                failure.
//
// Results additionally go to BENCH_farm_scale.json (see bench_common.h).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#ifdef __unix__
#include <sys/resource.h>
#endif

#include "bench/bench_common.h"
#include "net/fabric.h"
#include "sim/event_queue.h"
#include "sim/heap_queue.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/rng.h"
#include "wire/frame.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mib() {
#ifdef __unix__
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0)
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
  return -1.0;
}

struct Topology {
  std::vector<gs::util::AdapterId> adapters;
  std::vector<gs::util::SwitchId> switches;
  std::vector<gs::util::AdapterId> vlan_leaders;  // first adapter per VLAN
};

constexpr std::size_t kPortsPerSwitch = 128;

gs::util::VlanId vlan_for(std::size_t i, std::size_t vlans) {
  return gs::util::VlanId(static_cast<std::uint32_t>(1 + i % vlans));
}

Topology build(gs::net::Fabric& fabric, std::size_t adapters,
               std::size_t vlans) {
  Topology topo;
  gs::net::ChannelModel model;
  model.loss_probability = 0.001;
  fabric.set_default_channel(model);
  const std::size_t switches = (adapters + kPortsPerSwitch - 1) / kPortsPerSwitch;
  for (std::size_t s = 0; s < switches; ++s)
    topo.switches.push_back(fabric.add_switch(kPortsPerSwitch));
  topo.vlan_leaders.resize(vlans, gs::util::AdapterId::invalid());
  for (std::size_t i = 0; i < adapters; ++i) {
    const auto id =
        fabric.add_adapter(gs::util::NodeId(static_cast<std::uint32_t>(i)));
    fabric.attach(id, topo.switches[i / kPortsPerSwitch], vlan_for(i, vlans));
    fabric.set_adapter_ip(
        id, gs::util::IpAddress(10, static_cast<std::uint8_t>(i >> 16),
                                static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i)));
    if (!topo.vlan_leaders[i % vlans].valid()) topo.vlan_leaders[i % vlans] = id;
    topo.adapters.push_back(id);
  }
  return topo;
}

std::vector<std::uint8_t> beacon_frame(std::size_t payload_bytes) {
  // A full-view beacon for a ~78-member AMG runs to about a KiB on the wire.
  std::vector<std::uint8_t> payload(payload_bytes, 0x5A);
  return gs::wire::encode_frame(1, payload);
}

struct SteadyResult {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t suspicion_fires = 0;
};

SteadyResult run_steady_state(std::size_t adapters, std::size_t vlans,
                              double window_s, std::size_t payload_bytes) {
  gs::sim::Simulator sim;
  gs::net::Fabric fabric(sim, gs::util::Rng(0xFA12));
  Topology topo = build(fabric, adapters, vlans);
  const auto frame = beacon_frame(payload_bytes);
  const gs::sim::SimTime window = gs::sim::seconds(window_s);
  const gs::sim::SimDuration beacon_period = gs::sim::milliseconds(500);

  SteadyResult out;
  // Per-adapter FD churn: every delivery cancels and re-arms a suspicion
  // timer — the event-queue pattern the slot pool and compaction exist for.
  std::vector<gs::sim::Timer> suspicion(adapters);
  for (std::size_t i = 0; i < adapters; ++i) {
    const auto id = topo.adapters[i];
    fabric.adapter(id).set_receive_handler(
        [&, i](const gs::net::Datagram&) {
          // In-place deadline move, like HeartbeatFd::arm_monitor: the
          // callback survives, so the steady state allocates nothing.
          if (!suspicion[i].rearm_after(gs::sim::seconds(2)))
            suspicion[i] = sim.after(gs::sim::seconds(2),
                                     [&out] { ++out.suspicion_fires; });
        });
  }
  // Every adapter beacons, phase-staggered across the period.
  std::function<void(std::size_t)> beacon = [&](std::size_t i) {
    fabric.multicast(topo.adapters[i], gs::net::kBeaconGroup, frame);
    if (sim.now() + beacon_period < window)
      sim.after(beacon_period, [&beacon, i] { beacon(i); });
  };
  for (std::size_t i = 0; i < adapters; ++i) {
    const auto phase = static_cast<gs::sim::SimDuration>(
        (i * beacon_period) / (adapters == 0 ? 1 : adapters));
    sim.after(phase, [&beacon, i] { beacon(i); });
  }
  // Fault burst at the half-way mark, recovery at three quarters.
  sim.at(window / 2, [&] {
    for (std::size_t s = 0; s < topo.switches.size(); s += 16)
      fabric.fail_switch(topo.switches[s]);
    for (std::size_t n = 0; n < adapters; n += 100)
      fabric.fail_node(gs::util::NodeId(static_cast<std::uint32_t>(n)));
  });
  sim.at((window / 4) * 3, [&] {
    for (std::size_t s = 0; s < topo.switches.size(); s += 16)
      fabric.recover_switch(topo.switches[s]);
    for (std::size_t n = 0; n < adapters; n += 100)
      fabric.recover_node(gs::util::NodeId(static_cast<std::uint32_t>(n)));
  });

  const auto start = Clock::now();
  sim.run_until(window + gs::sim::seconds(3));  // +3s drains the last timers
  out.wall_s = seconds_since(start);
  out.events = sim.executed_events();
  out.frames_sent = fabric.total_frames_sent();
  for (std::size_t v = 0; v < vlans; ++v)
    out.frames_delivered += fabric.load(vlan_for(v, vlans)).frames_delivered;
  return out;
}

// Faithful replica of the pre-index multicast send path: walk every adapter
// in the farm per frame, clone the payload into each receiver's in-flight
// closure. Kept here (not in the library) purely as the bench baseline.
void legacy_multicast(gs::net::Fabric& fabric, gs::sim::Simulator& sim,
                      gs::util::AdapterId from,
                      const std::vector<gs::util::AdapterId>& all,
                      std::vector<std::uint8_t> bytes) {
  const gs::util::VlanId vlan = fabric.vlan_of(from);
  if (!fabric.adapter(from).can_send() || !vlan.valid()) return;
  gs::net::Segment& seg = fabric.segment(vlan);
  for (gs::util::AdapterId id : all) {
    if (id == from) continue;
    if (fabric.vlan_of(id) != vlan) continue;  // the O(farm) scan
    if (!seg.connected(from, id)) continue;
    const gs::net::Adapter& dst = fabric.adapter(id);
    if (!dst.can_recv()) continue;
    const auto latency = seg.sample_delivery();
    if (!latency) continue;
    std::vector<std::uint8_t> clone = bytes;  // per-receiver payload copy
    sim.after(*latency, [&dst, clone = std::move(clone)] {
      (void)dst;
      (void)clone;
    });
  }
}

struct MicroResult {
  double indexed_frames_per_s = 0;
  double legacy_frames_per_s = 0;
  double speedup = 0;
};

// Times `frames` sends in drained batches and reports the median batch
// rate; the median (not the mean) keeps a noisy-neighbour stall in one
// batch from skewing the measurement on shared CI machines. `send` is
// called as send(fabric, sim, leader, topo).
template <typename SendFn>
double median_batch_rate(std::size_t adapters, std::size_t vlans,
                         std::size_t frames, std::size_t payload_bytes,
                         const SendFn& send) {
  gs::sim::Simulator sim;
  gs::net::Fabric fabric(sim, gs::util::Rng(0xFA13));
  Topology topo = build(fabric, adapters, vlans);
  const auto frame = beacon_frame(payload_bytes);
  const std::size_t batch = 128;  // drain between batches, off the clock
  // One untimed batch warms pools/page tables for both implementations.
  for (std::size_t j = 0; j < batch; ++j)
    send(fabric, sim, topo.vlan_leaders[j % vlans], topo, frame);
  sim.run();
  std::vector<double> rates;
  for (std::size_t k = 0; k < frames;) {
    const std::size_t n = std::min(batch, frames - k);
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < n; ++j, ++k)
      send(fabric, sim, topo.vlan_leaders[k % vlans], topo, frame);
    const double dt = seconds_since(t0);
    sim.run();
    if (dt > 0) rates.push_back(static_cast<double>(n) / dt);
  }
  std::sort(rates.begin(), rates.end());
  return rates.empty() ? 0.0 : rates[rates.size() / 2];
}

MicroResult run_multicast_micro(std::size_t adapters, std::size_t vlans,
                                std::size_t frames, std::size_t payload_bytes) {
  MicroResult out;
  out.indexed_frames_per_s = median_batch_rate(
      adapters, vlans, frames, payload_bytes,
      [](gs::net::Fabric& fabric, gs::sim::Simulator&, gs::util::AdapterId from,
         const Topology&, const std::vector<std::uint8_t>& frame) {
        fabric.multicast(from, gs::net::kBeaconGroup, frame);
      });
  out.legacy_frames_per_s = median_batch_rate(
      adapters, vlans, frames, payload_bytes,
      [](gs::net::Fabric& fabric, gs::sim::Simulator& sim,
         gs::util::AdapterId from, const Topology& topo,
         const std::vector<std::uint8_t>& frame) {
        legacy_multicast(fabric, sim, from, topo.adapters, frame);
      });
  out.speedup = out.indexed_frames_per_s / out.legacy_frames_per_s;
  return out;
}

// --- Steady-state event-path replica ---------------------------------------
//
// The PR-10 steady-state speedup came from two changes to the hot loop —
// the heap became a timing wheel, and multicast deliveries became one event
// per (frame, distinct deadline) instead of one per receiver. Neither the
// old queue nor the unbatched fabric path exists in the library any more,
// so (like legacy_multicast above) the pre-PR shape is replicated here and
// raced against the shipped shape over the *identical* schedule:
//
//   legacy    sim/heap_queue.h, one event per (frame, receiver); every
//             delivery resolves its VLAN accounting row with a map find
//             (the old complete_delivery) and re-arms that receiver's
//             suspicion deadline the pre-wheel way (cancel + fresh push).
//   shipped   the timing wheel, receivers grouped by sampled deadline into
//             one event per batch; the accounting row is resolved once per
//             frame (PendingFrame::load) and re-arm is the in-place
//             reschedule().
//
// Both passes must deliver exactly the same count and fire the same number
// of suspicion timeouts — the schedule is deterministic — so the wall-time
// ratio isolates what the wheel + batching bought the steady state.
// --min_steady_speedup turns a regression into a nonzero exit.
struct SteadyReplicaResult {
  double legacy_wall_s = 0;
  double batched_wall_s = 0;
  double speedup = 0;
  std::uint64_t delivered = 0;
};

struct ReplicaCounts {
  std::uint64_t delivered = 0;
  std::uint64_t fires = 0;
};

constexpr gs::sim::SimDuration kReplicaGap = 82;  // us between frames, as in
                                                  // the 5000-adapter steady
                                                  // state (~12k frames/sim-s)
constexpr gs::sim::SimDuration kReplicaBase = 200;    // channel base latency
constexpr gs::sim::SimDuration kReplicaJitter = 100;  // uniform [0, 100] us
constexpr gs::sim::SimDuration kReplicaSusp = gs::sim::seconds(2);
// The default farm shape: 64 VLANs x 78 members. The live set (one
// suspicion timer per receiver) is what gives the pre-wheel heap its depth,
// and a beacon fans out to its sender's whole VLAN.
constexpr std::size_t kReplicaVlans = 64;
constexpr std::size_t kReplicaMembers = 78;
constexpr std::size_t kReplicaReceivers = kReplicaVlans * kReplicaMembers;
constexpr int kReplicaRecvBits = 13;

template <typename Queue, bool kBatched>
ReplicaCounts replica_pass(std::size_t frames, std::size_t fan) {
  // Both the shipped Fabric and its pre-PR shape keep per-event closures in
  // the std::function small buffer and pool their per-frame state, so the
  // replica does too: delivery closures capture (state*, 8-byte payload)
  // and batch receiver vectors are recycled through a free list — neither
  // side heap-allocates in steady state beyond what its queue does.
  struct Batch {
    gs::sim::SimTime due = 0;
    std::uint64_t* load = nullptr;  // the frame's accounting row, like
                                    // PendingFrame::load
    std::vector<std::uint32_t> receivers;
  };
  struct St {
    Queue q;
    std::vector<gs::sim::EventId> susp;
    ReplicaCounts out;
    // The per-VLAN accounting rows. Pre-PR, complete_delivery resolved its
    // row with a map find on every delivery; shipped, the row is resolved
    // once per frame and carried as a pointer.
    std::map<std::uint32_t, std::uint64_t> loads;
    std::vector<Batch*> free_batches;
    std::vector<std::unique_ptr<Batch>> batch_storage;
    // The shipped grouping machinery, shape for shape: a direct-mapped
    // epoch-tagged index resolving the open batch for a deadline in ~one
    // probe (Fabric::append_delivery), flushed after the member loop.
    struct LutSlot {
      std::uint32_t tag = 0;
      gs::sim::SimTime due = 0;
      Batch* batch = nullptr;
    };
    std::array<LutSlot, 256> lut{};
    std::uint32_t lut_tag = 0;
    std::vector<Batch*> open;

    void rearm(std::size_t r, gs::sim::SimTime due) {
      if constexpr (kBatched) {
        // The shipped path: in-place deadline move, closure untouched.
        if (susp[r] != 0) {
          const gs::sim::EventId moved = q.reschedule(susp[r], due);
          if (moved != 0) {
            susp[r] = moved;
            return;
          }
        }
      } else {
        // The pre-wheel path: lazy cancel plus a fresh push.
        if (susp[r] != 0) q.cancel(susp[r]);
      }
      susp[r] = q.push(due, [this] { ++out.fires; });
    }
    void deliver_one(std::uint64_t packed) {
      const auto r = static_cast<std::size_t>(
          packed & ((std::uint64_t{1} << kReplicaRecvBits) - 1));
      const auto due =
          static_cast<gs::sim::SimTime>(packed >> kReplicaRecvBits);
      ++loads.find(static_cast<std::uint32_t>(1 + r % kReplicaVlans))->second;
      ++out.delivered;
      rearm(r, due + kReplicaSusp);
    }
    void deliver_batch(Batch* b) {
      for (const std::uint32_t r : b->receivers) {
        ++*b->load;
        ++out.delivered;
        rearm(r, b->due + kReplicaSusp);
      }
      b->receivers.clear();
      free_batches.push_back(b);
    }
    Batch* get_batch() {
      if (free_batches.empty()) {
        batch_storage.push_back(std::make_unique<Batch>());
        return batch_storage.back().get();
      }
      Batch* b = free_batches.back();
      free_batches.pop_back();
      return b;
    }
  };
  static_assert(kReplicaReceivers < (std::size_t{1} << kReplicaRecvBits),
                "deliver_one packs the receiver into the low bits");

  St st;
  st.susp.assign(kReplicaReceivers, 0);
  for (std::size_t v = 0; v < kReplicaVlans; ++v)
    st.loads.emplace(static_cast<std::uint32_t>(1 + v), 0);
  gs::util::Rng rng(0xBEEF);
  const std::size_t members = std::min(fan, kReplicaMembers);

  for (std::size_t f = 0; f < frames; ++f) {
    const gs::sim::SimTime now =
        static_cast<gs::sim::SimTime>(f) * kReplicaGap;
    while (!st.q.empty() && st.q.next_time() <= now) {
      auto [when, fn] = st.q.pop();
      (void)when;
      fn();
    }
    // Frame f is a beacon on VLAN v fanning out to the VLAN's members —
    // receiver r lives on VLAN r % kReplicaVlans.
    const std::size_t v = f % kReplicaVlans;
    if constexpr (kBatched) {
      if (++st.lut_tag == 0) {
        st.lut.fill(typename St::LutSlot{});
        st.lut_tag = 1;
      }
      st.open.clear();
      std::uint64_t* load =
          &st.loads.find(static_cast<std::uint32_t>(1 + v))->second;
      for (std::size_t k = 0; k < members; ++k) {
        const auto r = static_cast<std::uint32_t>(v + kReplicaVlans * k);
        const gs::sim::SimTime due =
            now + kReplicaBase +
            static_cast<gs::sim::SimDuration>(rng.below(kReplicaJitter + 1));
        Batch* b = nullptr;
        std::size_t i = static_cast<std::size_t>(due) & 255;
        for (std::size_t probe = 0; probe < 16; ++probe, i = (i + 1) & 255) {
          typename St::LutSlot& s = st.lut[i];
          if (s.tag != st.lut_tag) {
            b = st.get_batch();
            b->due = due;
            b->load = load;
            st.open.push_back(b);
            s = {st.lut_tag, due, b};
            break;
          }
          if (s.due == due) {
            b = s.batch;
            break;
          }
        }
        if (b == nullptr) {  // probe cap: fall back to the open list
          for (Batch* cand : st.open) {
            if (cand->due == due) {
              b = cand;
              break;
            }
          }
          if (b == nullptr) {
            b = st.get_batch();
            b->due = due;
            b->load = load;
            st.open.push_back(b);
          }
        }
        b->receivers.push_back(r);
      }
      for (Batch* b : st.open)
        st.q.push(b->due, [stp = &st, b] { stp->deliver_batch(b); });
    } else {
      for (std::size_t k = 0; k < members; ++k) {
        const std::size_t r = v + kReplicaVlans * k;
        const gs::sim::SimTime due =
            now + kReplicaBase +
            static_cast<gs::sim::SimDuration>(rng.below(kReplicaJitter + 1));
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(due) << kReplicaRecvBits) | r;
        st.q.push(due, [stp = &st, packed] { stp->deliver_one(packed); });
      }
    }
  }
  while (!st.q.empty()) {
    auto [when, fn] = st.q.pop();
    (void)when;
    fn();
  }
  return st.out;
}

template <typename Queue, bool kBatched>
double replica_best_of(std::size_t frames, std::size_t fan,
                       ReplicaCounts* counts) {
  double best = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const ReplicaCounts got = replica_pass<Queue, kBatched>(frames, fan);
    const double dt = seconds_since(t0);
    if (best < 0 || dt < best) best = dt;
    *counts = got;
  }
  return best;
}

SteadyReplicaResult run_steady_replica(std::size_t frames, std::size_t fan) {
  SteadyReplicaResult out;
  ReplicaCounts legacy{}, batched{};
  out.legacy_wall_s =
      replica_best_of<gs::sim::HeapEventQueue, false>(frames, fan, &legacy);
  out.batched_wall_s =
      replica_best_of<gs::sim::EventQueue, true>(frames, fan, &batched);
  // The schedule is deterministic, so any count divergence means one side
  // dropped or double-ran an event — fail loudly rather than report a bogus
  // ratio.
  GS_CHECK(legacy.delivered == batched.delivered);
  GS_CHECK(legacy.fires == batched.fires);
  out.delivered = legacy.delivered;
  out.speedup = out.legacy_wall_s / out.batched_wall_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  const bool smoke = flags.get_bool(
      "smoke", false, "one quick iteration (CI scaling regression gate)");
  const auto adapters = static_cast<std::size_t>(
      flags.get_int("adapters", 5000, "adapters in the farm"));
  const auto vlans =
      static_cast<std::size_t>(flags.get_int("vlans", 64, "broadcast domains"));
  const double window =
      flags.get_double("seconds", smoke ? 0.5 : 5.0,
                       "steady-state window (simulated seconds)");
  const auto frames = static_cast<std::size_t>(flags.get_int(
      "frames", smoke ? 512 : 4096, "frames per multicast-path measurement"));
  const auto payload = static_cast<std::size_t>(
      flags.get_int("payload", 1000, "beacon payload bytes"));
  const double min_speedup = flags.get_double(
      "min_speedup", 3.0, "exit nonzero if indexed/legacy falls below this");
  const auto replica_frames = static_cast<std::size_t>(flags.get_int(
      "replica_frames", smoke ? 4096 : 16384,
      "frames per steady event-path replica pass"));
  const double min_steady_speedup = flags.get_double(
      "min_steady_speedup", 1.5,
      "exit nonzero if the wheel+batching replica speedup over the "
      "heap+per-receiver replica falls below this");
  if (flags.help_requested()) {
    flags.print_usage();
    return 0;
  }

  gs::bench::print_header("Farm-scale simulator throughput");
  std::printf("%zu adapters, %zu VLANs (~%zu members each), %zu-byte beacons\n",
              adapters, vlans, adapters / vlans, payload);

  const SteadyResult steady =
      run_steady_state(adapters, vlans, window, payload);
  const double events_per_s = static_cast<double>(steady.events) / steady.wall_s;
  const double sent_per_s =
      static_cast<double>(steady.frames_sent) / steady.wall_s;
  const double delivered_per_s =
      static_cast<double>(steady.frames_delivered) / steady.wall_s;
  const double rss = peak_rss_mib();
  std::printf("\nsteady state (%.1fs simulated, fault burst at midpoint):\n",
              window);
  std::printf("  wall time        %10.2f s\n", steady.wall_s);
  std::printf("  events/s         %10.0f\n", events_per_s);
  std::printf("  frames sent/s    %10.0f\n", sent_per_s);
  std::printf("  frames delivd/s  %10.0f\n", delivered_per_s);
  std::printf("  peak RSS         %10.1f MiB\n", rss);

  const MicroResult micro =
      run_multicast_micro(adapters, vlans, frames, payload);
  std::printf("\nmulticast send path (%zu frames, enqueue cost only):\n",
              frames);
  std::printf("  indexed          %10.0f frames/s\n",
              micro.indexed_frames_per_s);
  std::printf("  legacy scan      %10.0f frames/s   (pre-index replica)\n",
              micro.legacy_frames_per_s);
  std::printf("  speedup          %10.1fx\n", micro.speedup);

  const std::size_t replica_fan = std::max<std::size_t>(
      vlans == 0 ? 1 : adapters / vlans, 1);
  const SteadyReplicaResult replica =
      run_steady_replica(replica_frames, replica_fan);
  std::printf(
      "\nsteady event path (%zu frames x fan %zu, %llu deliveries):\n",
      replica_frames, replica_fan,
      static_cast<unsigned long long>(replica.delivered));
  std::printf("  heap, per-receiver %8.3f s   (pre-wheel replica)\n",
              replica.legacy_wall_s);
  std::printf("  wheel, batched     %8.3f s\n", replica.batched_wall_s);
  std::printf("  speedup            %8.2fx\n", replica.speedup);

  gs::bench::BenchJson json("farm_scale");
  json.set("adapters", static_cast<std::int64_t>(adapters));
  json.set("vlans", static_cast<std::int64_t>(vlans));
  json.set("payload_bytes", static_cast<std::int64_t>(payload));
  json.set("steady_window_sim_s", window);
  json.set("steady_wall_s", steady.wall_s);
  json.set("events_per_s", events_per_s);
  json.set("frames_sent_per_s", sent_per_s);
  json.set("frames_delivered_per_s", delivered_per_s);
  json.set("suspicion_fires", steady.suspicion_fires);
  json.set("peak_rss_mib", rss);
  json.set("multicast_frames_per_s", micro.indexed_frames_per_s);
  json.set("legacy_multicast_frames_per_s", micro.legacy_frames_per_s);
  json.set("multicast_speedup", micro.speedup);
  json.set("steady_replica_frames", static_cast<std::int64_t>(replica_frames));
  json.set("steady_replica_legacy_wall_s", replica.legacy_wall_s);
  json.set("steady_replica_batched_wall_s", replica.batched_wall_s);
  json.set("steady_replica_speedup", replica.speedup);
  json.write();

  if (micro.speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: multicast speedup %.2fx below floor %.2fx — the "
                 "per-VLAN index is not paying for itself\n",
                 micro.speedup, min_speedup);
    return 1;
  }
  if (replica.speedup < min_steady_speedup) {
    std::fprintf(stderr,
                 "FAIL: steady event-path speedup %.2fx below floor %.2fx — "
                 "the wheel + delivery batching is not paying for itself\n",
                 replica.speedup, min_steady_speedup);
    return 1;
  }
  return 0;
}
