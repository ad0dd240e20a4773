// Decode-once codec path coverage: the shared verify/decode cache on
// net::Payload, fault-injected corruption staying isolated from the shared
// cache, the cache on/off determinism pin (byte-identical traces), the soak
// codec invariant, and the zero-allocation contract for steady-state
// heartbeat encode+decode.
//
// This binary overrides global operator new/delete with counting shims so
// the allocation test can assert "zero heap traffic" directly; the counters
// are armed only inside the measured window, so the rest of the suite is
// unaffected.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "gs/fd.h"
#include "gs/messages.h"
#include "net/fabric.h"
#include "net/payload.h"
#include "obs/jsonl_sink.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "soak/invariants.h"
#include "wire/frame.h"

namespace {
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
}  // namespace

// The shims below intentionally pair `new` with std::free (they forward to
// malloc); GCC's whole-program new/delete matcher cannot see that.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, they would hand the shims above memory they did not
// allocate, which AddressSanitizer reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs) ++g_allocs;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gs {
namespace {

proto::Heartbeat test_heartbeat() {
  proto::Heartbeat hb;
  hb.view = 7;
  return hb;
}

// --- shared decode cache -----------------------------------------------------

TEST(PayloadCache, VerifyAndDecodeAreSharedAcrossHandles) {
  const net::Payload p = net::Payload::wrap(proto::to_frame(test_heartbeat()));
  const net::Payload q = p;  // a second receiver's handle to the same frame
  ASSERT_EQ(p.identity(), q.identity());

  ASSERT_TRUE(p.verified().ok());
  EXPECT_EQ(p.verified().type,
            static_cast<std::uint16_t>(proto::MsgType::kHeartbeat));

  const proto::FrameRef ref_p(p.frame_payload(), &p);
  const proto::FrameRef ref_q(q.frame_payload(), &q);
  std::optional<proto::Heartbeat> scratch_p, scratch_q;
  const proto::Heartbeat* a = ref_p.get<proto::Heartbeat>(scratch_p);
  const proto::Heartbeat* b = ref_q.get<proto::Heartbeat>(scratch_q);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Both receivers read the one cached decode, not private scratch copies.
  EXPECT_EQ(a, b);
  EXPECT_FALSE(scratch_p.has_value());
  EXPECT_FALSE(scratch_q.has_value());
  EXPECT_EQ(a->view, 7u);
}

TEST(PayloadCache, CorruptedCopyNeitherReusesNorPoisonsSharedCache) {
  const std::vector<std::uint8_t> clean_bytes =
      proto::to_frame(test_heartbeat());
  const net::Payload clean = net::Payload::copy_of(clean_bytes);

  // The fault-injection contract: a corrupted delivery is a *fresh* payload.
  std::vector<std::uint8_t> flipped = clean_bytes;
  flipped[wire::kFrameHeaderSize] ^= 0xFF;  // first body byte
  const net::Payload corrupt = net::Payload::wrap(std::move(flipped));
  ASSERT_NE(clean.identity(), corrupt.identity());

  // Corrupted copy fails verification in its own cache slot...
  EXPECT_FALSE(corrupt.verified().ok());
  EXPECT_EQ(corrupt.verified().error, wire::FrameError::kBadChecksum);
  // ...while the shared original still verifies and decodes.
  ASSERT_TRUE(clean.verified().ok());
  const proto::FrameRef ref(clean.frame_payload(), &clean);
  std::optional<proto::Heartbeat> scratch;
  const proto::Heartbeat* msg = ref.get<proto::Heartbeat>(scratch);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->view, 7u);
  EXPECT_EQ(clean.decode_slot()->state(), net::DecodeSlot::State::kDecoded);
  EXPECT_EQ(corrupt.decode_slot()->state(), net::DecodeSlot::State::kEmpty);
}

TEST(PayloadCache, DisabledCacheLeavesRepUntouched) {
  const net::Payload p = net::Payload::wrap(proto::to_frame(test_heartbeat()));
  net::Payload::set_cache_enabled(false);
  EXPECT_TRUE(p.verified().ok());
  const proto::FrameRef ref(p.frame_payload(), &p);
  std::optional<proto::Heartbeat> scratch;
  const proto::Heartbeat* msg = ref.get<proto::Heartbeat>(scratch);
  ASSERT_NE(msg, nullptr);
  // Uncached mode decodes into the caller's scratch and never warms the rep.
  EXPECT_TRUE(scratch.has_value());
  EXPECT_EQ(msg, &*scratch);
  EXPECT_EQ(p.decode_slot()->state(), net::DecodeSlot::State::kEmpty);
  net::Payload::set_cache_enabled(true);
  // Re-enabling finds the rep cold and fills it normally.
  ASSERT_TRUE(p.verified().ok());
  std::optional<proto::Heartbeat> scratch2;
  EXPECT_NE(ref.get<proto::Heartbeat>(scratch2), nullptr);
  EXPECT_FALSE(scratch2.has_value());
  EXPECT_EQ(p.decode_slot()->state(), net::DecodeSlot::State::kDecoded);
}

TEST(PayloadCache, FailedDecodeIsCachedPerPayloadNotPerType) {
  // A frame whose envelope is fine but whose heartbeat body is truncated:
  // typed decode fails, and the failure itself is cached for that type.
  const std::vector<std::uint8_t> body{1, 2, 3};
  const net::Payload p = net::Payload::wrap(wire::encode_frame(
      static_cast<std::uint16_t>(proto::MsgType::kHeartbeat), body));
  ASSERT_TRUE(p.verified().ok());
  const proto::FrameRef ref(p.frame_payload(), &p);
  std::optional<proto::Heartbeat> scratch;
  EXPECT_EQ(ref.get<proto::Heartbeat>(scratch), nullptr);
  EXPECT_EQ(p.decode_slot()->state(), net::DecodeSlot::State::kFailed);
  // Second receiver of the same payload hits the cached failure.
  std::optional<proto::Heartbeat> scratch2;
  EXPECT_EQ(ref.get<proto::Heartbeat>(scratch2), nullptr);
  EXPECT_FALSE(scratch2.has_value());
}

// --- fabric corruption injection ---------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  CorruptionTest() : fabric_(sim_, util::Rng(1)) {
    net::ChannelModel model;
    model.base_latency = sim::microseconds(100);
    model.jitter = 0;
    fabric_.set_default_channel(model);
    sw_ = fabric_.add_switch(16);
  }

  util::AdapterId make(std::uint8_t host) {
    const util::AdapterId id =
        fabric_.add_adapter(util::NodeId(host));
    fabric_.attach(id, sw_, util::VlanId(1));
    fabric_.set_adapter_ip(id, util::IpAddress(10, 0, 0, host));
    return id;
  }

  void set_corruption(double probability) {
    net::ChannelModel model = fabric_.segment(util::VlanId(1)).model();
    model.corrupt_probability = probability;
    fabric_.segment(util::VlanId(1)).set_model(model);
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  util::SwitchId sw_;
};

TEST_F(CorruptionTest, UnicastCorruptionFlipsExactlyOneByte) {
  auto a = make(1);
  auto b = make(2);
  (void)b;
  set_corruption(1.0);
  const std::vector<std::uint8_t> sent = proto::to_frame(test_heartbeat());
  std::optional<net::Payload> seen;
  fabric_.adapter(make(3)).set_receive_handler([](const net::Datagram&) {});
  fabric_.adapter(b).set_receive_handler(
      [&](const net::Datagram& d) { seen = d.payload; });
  ASSERT_TRUE(fabric_.send(a, util::IpAddress(10, 0, 0, 2), sent));
  sim_.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_corrupted, 1u);
  ASSERT_EQ(seen->size(), sent.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < sent.size(); ++i)
    if (seen->data()[i] != sent[i]) ++diffs;
  EXPECT_EQ(diffs, 1u);
  EXPECT_FALSE(seen->verified().ok());
}

TEST_F(CorruptionTest, MulticastCorruptionIsolatesVictimsFromSharedPayload) {
  auto sender = make(1);
  std::vector<net::Payload> seen;
  for (std::uint8_t host = 2; host <= 9; ++host) {
    fabric_.adapter(make(host)).set_receive_handler(
        [&](const net::Datagram& d) { seen.push_back(d.payload); });
  }
  set_corruption(0.5);
  // With p=0.5 over 8 receivers a few multicasts are guaranteed (for this
  // seed, and overwhelmingly for any) to produce both clean and corrupted
  // deliveries.
  std::uint64_t clean = 0, corrupt = 0;
  for (int round = 0; round < 4; ++round) {
    seen.clear();
    fabric_.multicast(sender, net::kBeaconGroup,
                      proto::to_frame(test_heartbeat()));
    sim_.run();
    ASSERT_EQ(seen.size(), 8u);
    const void* shared_identity = nullptr;
    for (const net::Payload& p : seen) {
      if (p.verified().ok()) {
        ++clean;
        // Every clean receiver shares the one parked payload (and its cache).
        if (shared_identity == nullptr) shared_identity = p.identity();
        EXPECT_EQ(p.identity(), shared_identity);
        const proto::FrameRef ref(p.frame_payload(), &p);
        std::optional<proto::Heartbeat> scratch;
        EXPECT_NE(ref.get<proto::Heartbeat>(scratch), nullptr);
      } else {
        ++corrupt;
        // Corrupted deliveries ride fresh payloads: distinct identity, own
        // (failed) verification, shared cache untouched.
        for (const net::Payload& other : seen) {
          if (other.verified().ok()) {
            EXPECT_NE(p.identity(), other.identity());
          }
        }
      }
    }
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(corrupt, 0u);
  EXPECT_EQ(fabric_.load(util::VlanId(1)).frames_corrupted, corrupt);
}

// A bi-ring heartbeating across a corrupting segment. Every detector resends
// one cached payload each period, and all four share it (one view number,
// one table); a corrupted delivery rides its own copy, so only that delivery
// is dropped (by the envelope, never the decoder), the shared frame keeps
// verifying, and every clean delivery still re-arms the receiver's deadline
// for its neighbour.
TEST_F(CorruptionTest, CachedHeartbeatFrameSurvivesCorruptedDeliveries) {
  constexpr std::uint8_t kHosts = 4;
  const proto::Params params;
  std::vector<proto::MemberInfo> members;
  for (std::uint8_t host = 1; host <= kHosts; ++host) {
    proto::MemberInfo m;
    m.ip = util::IpAddress(10, 0, 0, host);
    m.node = util::NodeId(host);
    members.push_back(m);
  }
  const auto view = proto::MembershipView::make(1, members);

  proto::HeartbeatFrames frames;
  std::map<util::IpAddress, std::unique_ptr<proto::FailureDetector>> fds;
  std::map<util::IpAddress, net::Payload> last_sent;
  std::uint64_t sends = 0, clean = 0, rearmed = 0, decode_failures = 0;
  std::map<wire::FrameError, std::uint64_t> drops;
  for (const proto::MemberInfo& m : members) {
    const util::AdapterId id = make(static_cast<std::uint8_t>(m.ip.bits()));
    proto::FdContext ctx;
    ctx.sim = &sim_;
    ctx.params = &params;
    ctx.heartbeat_frames = &frames;
    ctx.self = m.ip;
    ctx.rng = util::Rng(m.ip.bits());
    ctx.send = [&, id, self = m.ip](util::IpAddress to, net::Payload frame) {
      ++sends;
      last_sent[self] = frame;
      return fabric_.send(id, to, std::move(frame));
    };
    ctx.suspect = [](util::IpAddress) {};
    fds[m.ip] = proto::make_failure_detector(proto::FdKind::kBidirectionalRing,
                                             std::move(ctx));
    fabric_.adapter(id).set_receive_handler(
        [&, self = m.ip](const net::Datagram& d) {
          const wire::VerifiedFrame verified = d.payload.verified();
          if (!verified.ok()) {
            ++drops[verified.error];
            return;
          }
          ++clean;
          const proto::FrameRef ref(d.payload.frame_payload(), &d.payload);
          std::optional<proto::Heartbeat> scratch;
          const proto::Heartbeat* hb = ref.get<proto::Heartbeat>(scratch);
          if (hb == nullptr) {
            ++decode_failures;
          } else if (fds.at(self)->on_heartbeat(d.src, *hb)) {
            ++rearmed;
          }
        });
  }
  set_corruption(0.2);
  for (auto& [ip, fd] : fds) fd->start(view);
  sim_.run_until(12 * params.hb_period);

  // Four members, two targets each, at least ten whole periods.
  EXPECT_GE(sends, 10u * 2 * kHosts);
  const std::uint64_t corrupted =
      fabric_.load(util::VlanId(1)).frames_corrupted;
  ASSERT_GT(corrupted, 0u);
  std::uint64_t dropped = 0;
  for (const auto& [error, count] : drops) {
    EXPECT_NE(error, wire::FrameError::kNone);
    dropped += count;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(dropped, corrupted);
  EXPECT_EQ(decode_failures, 0u);
  EXPECT_GT(clean, 0u);
  EXPECT_EQ(rearmed, clean);

  ASSERT_EQ(last_sent.size(), std::size_t{kHosts});
  EXPECT_EQ(frames.live(), 1u);
  for (const auto& [ip, frame] : last_sent) {
    EXPECT_EQ(frame.identity(), last_sent.begin()->second.identity()) << ip;
    ASSERT_TRUE(frame.verified().ok()) << ip;
    const proto::FrameRef ref(frame.frame_payload(), &frame);
    std::optional<proto::Heartbeat> scratch;
    const proto::Heartbeat* hb = ref.get<proto::Heartbeat>(scratch);
    ASSERT_NE(hb, nullptr) << ip;
    EXPECT_EQ(hb->view, 1u);
  }
  for (auto& [ip, fd] : fds) fd->stop();
}

// --- farm-level: stats surfacing and the soak codec invariant ----------------

proto::Params fast_params() {
  proto::Params params;
  params.beacon_phase = sim::seconds(2);
  params.amg_stable_wait = sim::seconds(1);
  params.gsc_stable_wait = sim::seconds(3);
  return params;
}

TEST(CodecFarm, CleanFarmDecodesWithoutDropsAndPassesInvariant) {
  sim::Simulator sim;
  farm::Farm farm(sim, farm::FarmSpec::uniform(6, 1), fast_params(),
                  /*seed=*/606);
  farm.start();
  ASSERT_TRUE(farm::run_until_converged(farm, sim::seconds(120)));

  const auto snapshot = farm.health_snapshot();
  ASSERT_TRUE(snapshot.codec.has_value());
  std::uint64_t decoded = 0;
  bool saw_heartbeat = false;
  for (const auto& [type, count] : snapshot.codec->decoded) {
    decoded += count;
    if (type == "heartbeat") saw_heartbeat = true;
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_TRUE(saw_heartbeat);
  EXPECT_TRUE(snapshot.codec->dropped.empty())
      << "clean farm dropped frames";

  // Invariant 6 (codec) passes on a clean farm.
  const auto violations = soak::check_farm_invariants(farm);
  EXPECT_TRUE(violations.empty()) << soak::format_violations(violations);
}

TEST(CodecFarm, InjectedCorruptionShowsUpAsTypedDrops) {
  sim::Simulator sim;
  farm::Farm farm(sim, farm::FarmSpec::uniform(6, 1), fast_params(),
                  /*seed=*/607);
  farm.start();
  ASSERT_TRUE(farm::run_until_converged(farm, sim::seconds(120)));

  net::ChannelModel noisy = farm.fabric().segment(farm.vlans()[0]).model();
  noisy.corrupt_probability = 0.2;
  for (util::VlanId vlan : farm.vlans())
    farm.fabric().segment(vlan).set_model(noisy);
  sim.run_until(sim.now() + sim::seconds(30));

  std::uint64_t corrupted = 0;
  for (util::VlanId vlan : farm.vlans())
    corrupted += farm.fabric().load(vlan).frames_corrupted;
  ASSERT_GT(corrupted, 0u);

  std::uint64_t dropped = 0;
  for (std::size_t n = 0; n < farm.node_count(); ++n)
    dropped += farm.daemon(n).frames_dropped();
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(dropped, corrupted);

  const auto snapshot = farm.health_snapshot();
  ASSERT_TRUE(snapshot.codec.has_value());
  EXPECT_FALSE(snapshot.codec->dropped.empty());
  // Drops under injected corruption do not trip the codec invariant.
  for (const auto& v : soak::check_farm_invariants(farm))
    EXPECT_NE(v.kind, soak::Violation::Kind::kCodec)
        << soak::format_violations({v});
}

// --- determinism pin ---------------------------------------------------------

// The golden-trace guarantee for the decode-once path: a seeded farm run
// records byte-identical traces whether the verify/decode cache is enabled
// or force-disabled, because caching only memoises work — it never changes
// what any receiver observes.
TEST(CodecDeterminism, CacheOnAndOffProduceByteIdenticalTraces) {
  constexpr std::uint64_t kMask =
      obs::kPhaseMask | obs::kFailureMask | obs::kReportMask;
  auto run = [&](bool cache_enabled, const std::string& path) {
    net::Payload::set_cache_enabled(cache_enabled);
    sim::Simulator sim;
    farm::Farm farm(sim, farm::FarmSpec::uniform(6, 1), fast_params(),
                    /*seed=*/909);
    obs::JsonlSink sink;
    ASSERT_TRUE(sink.open(path));
    auto tap = sink.tap(farm.trace_bus(), kMask);
    farm.start();
    ASSERT_TRUE(farm::run_until_converged(farm, sim::seconds(120)));
    farm.fail_node(2);
    sim.run_until(sim.now() + sim::seconds(30));
    net::Payload::set_cache_enabled(true);
  };
  const std::string cached = ::testing::TempDir() + "/codec_cached.jsonl";
  const std::string uncached = ::testing::TempDir() + "/codec_uncached.jsonl";
  run(true, cached);
  run(false, uncached);
  std::ifstream a(cached), b(uncached);
  std::stringstream as, bs;
  as << a.rdbuf();
  bs << b.rdbuf();
  ASSERT_GT(as.str().size(), 0u);
  EXPECT_EQ(as.str(), bs.str())
      << "decode cache changed observable farm behavior";
  std::remove(cached.c_str());
  std::remove(uncached.c_str());
}

// --- allocation contract -----------------------------------------------------

// Steady-state heartbeat traffic — encode into a warmed scratch Writer,
// snapshot into a pooled payload, verify the envelope, decode through the
// cache — must not touch the heap at all.
TEST(CodecAllocations, SteadyStateHeartbeatPathIsAllocationFree) {
  wire::Writer scratch;
  proto::Heartbeat hb = test_heartbeat();
  // Warm: grow the scratch Writer and the payload rep pool.
  for (int i = 0; i < 16; ++i) {
    const net::Payload p =
        net::Payload::copy_of(proto::build_frame(scratch, hb));
    ASSERT_TRUE(p.verified().ok());
    const proto::FrameRef ref(p.frame_payload(), &p);
    std::optional<proto::Heartbeat> s;
    ASSERT_NE(ref.get<proto::Heartbeat>(s), nullptr);
  }

  int failures = 0;
  g_allocs = 0;
  g_count_allocs = true;
  for (int i = 0; i < 1000; ++i) {
    hb.view = static_cast<std::uint64_t>(i);
    const net::Payload p =
        net::Payload::copy_of(proto::build_frame(scratch, hb));
    const net::Payload receiver_copy = p;  // refcount bump, no copy
    if (!receiver_copy.verified().ok()) ++failures;
    const proto::FrameRef ref(receiver_copy.frame_payload(), &receiver_copy);
    std::optional<proto::Heartbeat> s;
    const proto::Heartbeat* msg = ref.get<proto::Heartbeat>(s);
    if (msg == nullptr || msg->view != hb.view) ++failures;
  }
  g_count_allocs = false;
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state heartbeat encode+decode allocated on the heap";
}

// The scheduling half of the same steady state: every beacon arrival moves
// the sender's suspicion deadline 2 s out via sim::Timer::rearm, which the
// timing-wheel EventQueue services in place (EventQueue::reschedule) — the
// slot keeps its callback, only a fresh (when, seq) entry is filed. Once
// the wheel's bucket pools and slot table are warm, that path must not
// touch the heap either: re-arms are the highest-frequency queue operation
// in the farm, and an allocation here would show up at every heartbeat.
TEST(CodecAllocations, HeartbeatRearmFastPathIsAllocationFree) {
  sim::Simulator sim;
  constexpr int kMonitors = 78;  // one VLAN's worth of monitored peers
  constexpr sim::SimTime kSuspect = sim::seconds(2);
  int fired = 0;
  std::vector<sim::Timer> suspicion;
  suspicion.reserve(kMonitors);
  for (int j = 0; j < kMonitors; ++j)
    suspicion.push_back(sim.after(kSuspect, [&fired] { ++fired; }));

  // One beacon round: each peer's frame arrives and its deadline is pushed
  // back out. The per-peer jitter scatters deadlines across several wheel
  // buckets so the rounds exercise multi-bucket filing, not one hot vector.
  // It is fixed per peer (not per round) so every stale-compaction cycle
  // files the identical pattern: warmup then provably reaches the exact
  // per-bucket occupancy ceiling the measured rounds will hit.
  bool all_rearmed = true;
  auto round = [&] {
    for (std::size_t j = 0; j < suspicion.size(); ++j) {
      const auto jitter = static_cast<sim::SimTime>((j * 6151) % 400'000);
      all_rearmed = suspicion[j].rearm(sim.now() + kSuspect + jitter) &&
                    all_rearmed;
    }
  };
  // Warm (>= 512 cycles): grow the slot table, the bucket vectors at every
  // deadline byte pattern the measured rounds will file into, and the
  // stale-compaction scratch, and let accumulation/compaction reach its
  // steady-state ceiling. The whole sequence is deterministic, so the
  // measured window repeats warmed patterns exactly.
  for (int r = 0; r < 640; ++r) round();

  g_allocs = 0;
  g_count_allocs = true;
  for (int r = 0; r < 1000; ++r) round();
  g_count_allocs = false;
  EXPECT_TRUE(all_rearmed) << "a live timer refused an in-place re-arm";
  EXPECT_EQ(g_allocs, 0u)
      << "the heartbeat re-arm fast path allocated on the heap";

  // The re-arms were real: nothing fired during the churn, every handle
  // still names a pending deadline, and silencing the beacons fires all of
  // them — exactly once each — at the last-armed deadlines.
  EXPECT_EQ(fired, 0);
  for (const auto& t : suspicion) EXPECT_TRUE(t.armed());
  sim.run_until(sim.now() + 2 * kSuspect);
  EXPECT_EQ(fired, kMonitors);
}

}  // namespace
}  // namespace gs
