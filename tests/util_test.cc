// Unit tests for src/util: ids, ip, rng, stats, flags, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "util/flags.h"
#include "util/ids.h"
#include "util/ip.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace gs::util {
namespace {

// --- Ids ---------------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  AdapterId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(VlanId(1), VlanId(2));
  EXPECT_EQ(VlanId(7), VlanId(7));
  EXPECT_NE(VlanId(7), VlanId(8));
}

TEST(Ids, StreamFormat) {
  std::ostringstream os;
  os << SwitchId(3) << " " << SwitchId();
  EXPECT_EQ(os.str(), "switch3 switch<invalid>");
}

TEST(Ids, Hashable) {
  std::set<NodeId> set;
  std::unordered_map<AdapterId, int> map;
  set.insert(NodeId(1));
  map[AdapterId(2)] = 5;
  EXPECT_EQ(map[AdapterId(2)], 5);
}

// --- IpAddress -----------------------------------------------------------------

TEST(IpAddress, OctetConstruction) {
  IpAddress ip(10, 1, 2, 3);
  EXPECT_EQ(ip.to_string(), "10.1.2.3");
  EXPECT_EQ(ip.octet(0), 10);
  EXPECT_EQ(ip.octet(3), 3);
}

TEST(IpAddress, NumericOrderMatchesElectionOrder) {
  EXPECT_LT(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2));
  EXPECT_LT(IpAddress(10, 0, 0, 255), IpAddress(10, 0, 1, 0));
  EXPECT_LT(IpAddress(9, 255, 255, 255), IpAddress(10, 0, 0, 0));
}

TEST(IpAddress, ParseValid) {
  auto ip = IpAddress::parse("192.168.1.77");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(*ip, IpAddress(192, 168, 1, 77));
}

TEST(IpAddress, ParseRoundTripsAllOctetBoundaries) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "1.0.0.0",
                           "0.0.0.1", "127.0.0.1"}) {
    auto ip = IpAddress::parse(text);
    ASSERT_TRUE(ip.has_value()) << text;
    EXPECT_EQ(ip->to_string(), text);
  }
}

TEST(IpAddress, ParseRejectsMalformed) {
  for (const char* text :
       {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.x", "1..2.3",
        "1.2.3.4 ", "a.b.c.d", "-1.2.3.4"}) {
    EXPECT_FALSE(IpAddress::parse(text).has_value()) << text;
  }
}

TEST(IpAddress, Unspecified) {
  EXPECT_TRUE(IpAddress().is_unspecified());
  EXPECT_FALSE(IpAddress(1, 0, 0, 0).is_unspecified());
}

// --- MacAddress -----------------------------------------------------------------

TEST(MacAddress, FormatAndParse) {
  MacAddress mac(0x0200deadbeefull);
  EXPECT_EQ(mac.to_string(), "02:00:de:ad:be:ef");
  auto parsed = MacAddress::parse("02:00:de:ad:be:ef");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, mac);
}

TEST(MacAddress, ParseDashSeparated) {
  auto parsed = MacAddress::parse("02-00-00-00-00-01");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->bits(), 0x020000000001ull);
}

TEST(MacAddress, ParseRejectsMalformed) {
  for (const char* text : {"", "02:00:00:00:00", "02:00:00:00:00:00:00",
                           "zz:00:00:00:00:01", "0200.dead.beef"}) {
    EXPECT_FALSE(MacAddress::parse(text).has_value()) << text;
  }
}

TEST(MacAddress, TruncatesTo48Bits) {
  MacAddress mac(0xFFFF'0000'0000'0001ull);
  EXPECT_EQ(mac.bits(), 0x0000'0000'0001ull);
}

// --- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng base(9);
  Rng c1 = base.fork(1);
  Rng c2 = base.fork(2);
  Rng c1_again = Rng(9).fork(1);
  EXPECT_EQ(c1.next(), c1_again.next());
  EXPECT_NE(c1.next(), c2.next());
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo = lo || v == -2;
    hi = hi || v == 2;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.25);
}

// --- Histogram -------------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (std::int64_t v : {1, 2, 3, 4, 5}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 5);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, QuantileAccuracyWithinRelativeError) {
  Histogram h;
  for (std::int64_t v = 1; v <= 100000; ++v) h.record(v);
  // Log-bucketed: answers within ~3% relative error.
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 50000.0, 50000.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99000.0, 99000.0 * 0.04);
  EXPECT_EQ(h.quantile(1.0), 100000);
}

TEST(Histogram, Merge) {
  Histogram a, b;
  a.record(10);
  b.record(20);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 20);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(7);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
}

TEST(Histogram, QuantileEndpointsAreExactMinMax) {
  Histogram h;
  for (std::int64_t v : {17, 230, 4099, 88000}) h.record(v);
  // The endpoints must be exact even though interior quantiles are
  // bucket-resolved: span summaries report min/max through quantile(0)/(1).
  EXPECT_EQ(h.quantile(0.0), 17);
  EXPECT_EQ(h.quantile(1.0), 88000);
  // Out-of-range and NaN degrade to the conservative endpoints.
  EXPECT_EQ(h.quantile(-0.5), 17);
  EXPECT_EQ(h.quantile(2.0), 88000);
  EXPECT_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 17);
}

TEST(Histogram, EmptyQuantilesAreZeroForAnyQ) {
  Histogram h;
  for (double q : {0.0, 0.5, 0.99, 1.0, -1.0, 2.0}) EXPECT_EQ(h.quantile(q), 0);
  EXPECT_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(Histogram, MergeDisjointRangesKeepsBothPopulations) {
  Histogram a, b;
  for (std::int64_t v = 1; v <= 100; ++v) a.record(v);             // [1, 100]
  for (std::int64_t v = 1000000; v <= 1000100; ++v) b.record(v);   // [1e6, ..]
  a.merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 1000100);
  // The median must fall in the gap's lower population and p99 in the
  // upper one — merging disjoint ranges must not smear mass between them.
  EXPECT_LE(a.quantile(0.25), 100);
  EXPECT_GE(a.quantile(0.75), 1000000 * 0.97);
  EXPECT_NEAR(a.mean(), (50.5 * 101 + 1000050.0 * 101) / 202.0,
              a.mean() * 0.01);
}

TEST(Histogram, SubBucketRelativeErrorBound) {
  // sub_bucket_bits=5 promises <= 1/2^5 relative error per recorded value:
  // every quantile answer is a bucket upper bound at most (1 + 1/32) above
  // some recorded value <= the true quantile.
  Histogram h(5);
  Rng rng(7);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 5000; ++i) {
    const auto v =
        static_cast<std::int64_t>(rng.uniform() * 9.0e6) + 1;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size()))) - 1;
    const double exact = static_cast<double>(values[rank]);
    const double approx = static_cast<double>(h.quantile(q));
    EXPECT_GE(approx, exact * (1.0 - 1.0 / 32.0))
        << "q=" << q << " exact=" << exact;
    EXPECT_LE(approx, exact * (1.0 + 1.0 / 32.0) + 1.0)
        << "q=" << q << " exact=" << exact;
  }
}

// --- StatsRegistry ------------------------------------------------------------------

TEST(StatsRegistry, CountersAccumulate) {
  StatsRegistry stats;
  stats.counter("x").add();
  stats.counter("x").add(4);
  EXPECT_EQ(stats.counter_value("x"), 5u);
  EXPECT_EQ(stats.counter_value("missing"), 0u);
}

TEST(StatsRegistry, HistogramLookup) {
  StatsRegistry stats;
  stats.histogram("lat").record(100);
  ASSERT_NE(stats.find_histogram("lat"), nullptr);
  EXPECT_EQ(stats.find_histogram("lat")->count(), 1u);
  EXPECT_EQ(stats.find_histogram("none"), nullptr);
}

// --- Summary ----------------------------------------------------------------------

TEST(Summary, OfSamples) {
  auto s = Summary::of({1.0, 2.0, 3.0});
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Summary, Empty) {
  auto s = Summary::of({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// --- Flags ------------------------------------------------------------------------

TEST(Flags, ParsesTypedValues) {
  const char* argv[] = {"prog", "--n=5", "--rate=0.25", "--on", "--name=abc"};
  Flags flags;
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_int("n", 0, ""), 5);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0, ""), 0.25);
  EXPECT_TRUE(flags.get_bool("on", false, ""));
  EXPECT_EQ(flags.get_string("name", "", ""), "abc");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags;
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("n", 7, ""), 7);
  EXPECT_FALSE(flags.get_bool("off", false, ""));
}

TEST(Flags, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Flags flags;
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.help_requested());
}

TEST(Flags, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  Flags flags;
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, UnknownFlagDetection) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags;
  ASSERT_TRUE(flags.parse(2, argv));
  flags.get_int("n", 0, "");
  const auto unknown = flags.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Flags, FinishExitsTwoOnlyForFlagsNeverLookedUp) {
  const char* argv[] = {"prog", "--n=3", "--min_speedp=0"};
  Flags flags;
  ASSERT_TRUE(flags.parse(3, argv));
  flags.get_int("n", 0, "");
  flags.get_double("min_speedup", 3.0, "");
  EXPECT_EQ(flags.finish(), 2);
  flags.get_double("min_speedp", 3.0, "");
  EXPECT_EQ(flags.finish(), std::nullopt);
}

TEST(Flags, FinishExitsZeroForHelpBeforeCheckingUnknowns) {
  const char* argv[] = {"prog", "--help", "--typo=1"};
  Flags flags;
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_EQ(flags.finish(), 0);
}

// --- ThreadPool ----------------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count++; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZero) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, ParallelForSingleItemRunsInline) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran;
  pool.parallel_for(1, [&](std::size_t) { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, caller);
}

// Regression: parallel_for called FROM a pool worker used to deadlock — the
// old implementation waited for the pool's global in-flight count to reach
// zero, which included the waiting task itself. Per-batch completion plus
// the caller draining its own batch makes nesting safe on any pool size
// (even one worker, where the outer task's thread does all the inner work).
TEST(ThreadPool, NestedParallelForFromWorkerDoesNotDeadlock) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(64);
    std::atomic<bool> inner_done{false};
    pool.submit([&] {
      pool.parallel_for(64, [&](std::size_t i) { hits[i]++; });
      inner_done = true;
    });
    pool.wait_idle();
    EXPECT_TRUE(inner_done.load());
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// Two external threads issuing parallel_for concurrently must not cross
// wires: each batch tracks its own completion, not pool-global idleness.
TEST(ThreadPool, ConcurrentParallelForFromTwoThreads) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> a(200), b(200);
  std::thread t1([&] { pool.parallel_for(200, [&](std::size_t i) { a[i]++; }); });
  std::thread t2([&] { pool.parallel_for(200, [&](std::size_t i) { b[i]++; }); });
  t1.join();
  t2.join();
  for (auto& h : a) EXPECT_EQ(h.load(), 1);
  for (auto& h : b) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace gs::util
