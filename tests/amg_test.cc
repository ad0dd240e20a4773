// Unit tests for MembershipView: rank order, ring neighbors, succession.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "gs/amg.h"
#include "util/rng.h"

namespace gs::proto {
namespace {

MemberInfo member(std::uint8_t host) {
  MemberInfo m;
  m.ip = util::IpAddress(10, 0, 0, host);
  m.mac = util::MacAddress(host);
  m.node = util::NodeId(host);
  return m;
}

util::IpAddress ip(std::uint8_t host) { return util::IpAddress(10, 0, 0, host); }

TEST(MembershipView, SortsDescendingByIp) {
  auto view = MembershipView::make(1, {member(3), member(9), member(5)});
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.member_at(0).ip, ip(9));
  EXPECT_EQ(view.member_at(1).ip, ip(5));
  EXPECT_EQ(view.member_at(2).ip, ip(3));
  EXPECT_EQ(view.leader().ip, ip(9));
}

TEST(MembershipView, DeduplicatesByIp) {
  auto view = MembershipView::make(1, {member(3), member(3), member(5)});
  EXPECT_EQ(view.size(), 2u);
}

TEST(MembershipView, RankLookup) {
  auto view = MembershipView::make(2, {member(1), member(2), member(3)});
  EXPECT_EQ(view.rank_of(ip(3)), 0u);
  EXPECT_EQ(view.rank_of(ip(2)), 1u);
  EXPECT_EQ(view.rank_of(ip(1)), 2u);
  EXPECT_FALSE(view.rank_of(ip(9)).has_value());
  EXPECT_TRUE(view.contains(ip(2)));
  EXPECT_FALSE(view.contains(ip(9)));
}

TEST(MembershipView, RingNeighborsWrapAround) {
  auto view = MembershipView::make(1, {member(1), member(2), member(3)});
  // Rank order: 3, 2, 1.
  EXPECT_EQ(view.right_of(ip(3)), ip(2));
  EXPECT_EQ(view.right_of(ip(2)), ip(1));
  EXPECT_EQ(view.right_of(ip(1)), ip(3));  // wraps
  EXPECT_EQ(view.left_of(ip(3)), ip(1));   // wraps
  EXPECT_EQ(view.left_of(ip(1)), ip(2));
}

TEST(MembershipView, PairRing) {
  auto view = MembershipView::make(1, {member(1), member(2)});
  EXPECT_EQ(view.right_of(ip(1)), ip(2));
  EXPECT_EQ(view.left_of(ip(1)), ip(2));
}

TEST(MembershipView, SingletonRingPointsAtSelf) {
  auto view = MembershipView::make(1, {member(1)});
  EXPECT_EQ(view.right_of(ip(1)), ip(1));
  EXPECT_EQ(view.left_of(ip(1)), ip(1));
}

TEST(MembershipView, EmptyView) {
  MembershipView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view.view(), 0u);
}

TEST(MembershipView, IpsInRankOrder) {
  auto view = MembershipView::make(1, {member(1), member(9), member(4)});
  const auto ips = view.ips();
  ASSERT_EQ(ips.size(), 3u);
  EXPECT_EQ(ips[0], ip(9));
  EXPECT_EQ(ips[2], ip(1));
}

TEST(MembershipView, Equality) {
  auto a = MembershipView::make(1, {member(1), member(2)});
  auto b = MembershipView::make(1, {member(2), member(1)});
  auto c = MembershipView::make(2, {member(1), member(2)});
  EXPECT_EQ(a, b);  // same view number, same sorted membership
  EXPECT_NE(a, c);
}

TEST(MembershipView, DuplicateIpKeepsTheFirstEntry) {
  MemberInfo first = member(5);
  MemberInfo second = member(5);
  second.mac = util::MacAddress(0xBEEF);
  second.node = util::NodeId(77);
  // A list long enough that an unstable sort really partitions it (short
  // ranges get an insertion sort, which happens to be stable), with the
  // two entries for 10.0.0.5 far apart.
  std::vector<MemberInfo> list;
  for (int i = 0; i < 64; ++i)
    list.push_back(member(static_cast<std::uint8_t>((i * 37) % 64 + 6)));
  list.insert(list.begin() + 3, first);
  list.insert(list.begin() + 50, second);
  const auto view = MembershipView::make(1, list);
  ASSERT_EQ(view.size(), 65u);
  EXPECT_EQ(view.member_at(*view.rank_of(ip(5))), first);

  std::swap(list[3], list[50]);
  const auto swapped = MembershipView::make(1, list);
  EXPECT_EQ(swapped.member_at(*swapped.rank_of(ip(5))), second);
}

TEST(MembershipView, CopiesShareTheMemberList) {
  const auto a = MembershipView::make(4, {member(1), member(2), member(3)});
  const MembershipView b = a;
  EXPECT_EQ(a.members().data(), b.members().data());
  EXPECT_EQ(a, b);
}

TEST(MembershipView, RankOrderedListIsSharedNotCopied) {
  // What a receiver gets from a decoded Prepare or Commit: every view built
  // from a list in rank order keeps that very list.
  const MemberList ranked = {member(9), member(5), member(2)};
  ASSERT_TRUE(ranked.in_rank_order());
  EXPECT_EQ(MembershipView::make(4, ranked).members().data(),
            ranked.items().data());
  EXPECT_EQ(MembershipView::make(5, ranked).members().data(),
            ranked.items().data());

  const MemberList unordered = {member(2), member(9), member(5)};
  ASSERT_FALSE(unordered.in_rank_order());
  const auto sorted = MembershipView::make(4, unordered);
  EXPECT_NE(sorted.members().data(), unordered.items().data());
  EXPECT_EQ(sorted.members(), ranked.items());
  EXPECT_TRUE(sorted.member_list().in_rank_order());
  EXPECT_FALSE(MemberList({member(5), member(5)}).in_rank_order());
  EXPECT_TRUE(MemberList().in_rank_order());
}

TEST(MembershipView, EqualityComparesContentsNotStorage) {
  const auto a = MembershipView::make(3, {member(1), member(2), member(3)});
  const auto b = MembershipView::make(3, {member(3), member(1), member(2)});
  ASSERT_NE(a.members().data(), b.members().data());
  EXPECT_EQ(a, b);

  std::vector<MemberInfo> other_mac = {member(1), member(2), member(3)};
  other_mac[1].mac = util::MacAddress(0xABCDEF);
  const auto c = MembershipView::make(3, other_mac);
  EXPECT_NE(a, c);  // same view number and IPs, one MAC differs
  EXPECT_NE(a, MembershipView::make(4, {member(1), member(2), member(3)}));
}

// Differential check of make() against a reference normalization (first
// entry per IP wins, then descending IP) over random lists that are sorted,
// reversed, shuffled, and with duplicates — so both the sort-skipping path
// and the sorting fallback are exercised.
TEST(MembershipView, MakeMatchesReferenceNormalization) {
  util::Rng rng(0x5EED);
  const auto reference = [](const std::vector<MemberInfo>& in) {
    std::map<util::IpAddress, MemberInfo> first;
    for (const MemberInfo& m : in) first.emplace(m.ip, m);
    std::vector<MemberInfo> out;
    for (auto it = first.rbegin(); it != first.rend(); ++it)
      out.push_back(it->second);
    return out;
  };
  const auto random_member = [&rng] {
    MemberInfo m;
    m.ip = util::IpAddress(static_cast<std::uint32_t>(rng.below(400)) + 1);
    m.mac = util::MacAddress(rng.next());
    m.node = util::NodeId(static_cast<std::uint32_t>(rng.below(1000)));
    return m;
  };

  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.below(300));
    std::vector<MemberInfo> list;
    for (std::size_t i = 0; i < n; ++i) list.push_back(random_member());
    switch (trial % 4) {
      case 0:  // strictly descending: the sort-skipping path
      case 1:  // strictly ascending
        list = reference(list);
        if (trial % 4 == 1) std::reverse(list.begin(), list.end());
        break;
      case 2:  // shuffled, duplicate IPs likely
        break;
      case 3:  // descending with an adjacent duplicate IP (other MAC)
        list = reference(list);
        if (!list.empty()) {
          const std::size_t at = rng.below(list.size());
          MemberInfo dup = list[at];
          dup.mac = util::MacAddress(dup.mac.bits() + 1);
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(at) + 1, dup);
        }
        break;
    }
    const auto view = MembershipView::make(9, list);
    EXPECT_EQ(view.members(), reference(list)) << "trial " << trial;
    EXPECT_EQ(view.view(), 9u);
  }
}

// Property sweep: ring is a permutation and neighbors are mutually
// consistent for a range of group sizes.
class RingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingProperty, NeighborsAreConsistent) {
  const int n = GetParam();
  std::vector<MemberInfo> members;
  for (int i = 1; i <= n; ++i)
    members.push_back(member(static_cast<std::uint8_t>(i)));
  auto view = MembershipView::make(1, members);
  ASSERT_EQ(view.size(), static_cast<std::size_t>(n));

  for (const MemberInfo& m : view.members()) {
    const util::IpAddress right = view.right_of(m.ip);
    const util::IpAddress left = view.left_of(m.ip);
    EXPECT_EQ(view.left_of(right), m.ip);
    EXPECT_EQ(view.right_of(left), m.ip);
  }

  // Walking right n times returns to the start and visits everyone.
  util::IpAddress cursor = view.leader().ip;
  std::set<util::IpAddress> visited;
  for (int i = 0; i < n; ++i) {
    visited.insert(cursor);
    cursor = view.right_of(cursor);
  }
  EXPECT_EQ(cursor, view.leader().ip);
  EXPECT_EQ(visited.size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 33, 100));

}  // namespace
}  // namespace gs::proto
