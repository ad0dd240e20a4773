#include "gs/amg.h"

#include <algorithm>
#include <numeric>

namespace gs::proto {

MembershipView MembershipView::make(std::uint64_t view, MemberList members) {
  if (!members.in_rank_order()) {
    // Order positions by IP, descending, and equal IPs by position, so the
    // first entry of each IP leads its run and is the one kept.
    const std::vector<MemberInfo>& in = members.items();
    std::vector<std::size_t> order(in.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&in](std::size_t a, std::size_t b) {
      return in[a].ip != in[b].ip ? in[a].ip > in[b].ip : a < b;
    });
    std::vector<MemberInfo> sorted;
    sorted.reserve(in.size());
    for (const std::size_t i : order)
      if (sorted.empty() || sorted.back().ip != in[i].ip)
        sorted.push_back(in[i]);
    members = MemberList(std::move(sorted));
  }
  MembershipView v;
  v.view_ = view;
  v.members_ = std::move(members);
  return v;
}

std::optional<std::size_t> MembershipView::rank_of(util::IpAddress ip) const {
  // Members are sorted descending by IP: binary search.
  const std::vector<MemberInfo>& list = members();
  auto it = std::lower_bound(
      list.begin(), list.end(), ip,
      [](const MemberInfo& m, util::IpAddress target) { return m.ip > target; });
  if (it == list.end() || it->ip != ip) return std::nullopt;
  return static_cast<std::size_t>(it - list.begin());
}

util::IpAddress MembershipView::right_of(util::IpAddress ip) const {
  auto rank = rank_of(ip);
  GS_CHECK_MSG(rank.has_value(), "ring neighbor of a non-member");
  return member_at((*rank + 1) % size()).ip;
}

util::IpAddress MembershipView::left_of(util::IpAddress ip) const {
  auto rank = rank_of(ip);
  GS_CHECK_MSG(rank.has_value(), "ring neighbor of a non-member");
  return member_at((*rank + size() - 1) % size()).ip;
}

std::vector<util::IpAddress> MembershipView::ips() const {
  std::vector<util::IpAddress> out;
  out.reserve(size());
  for (const MemberInfo& m : members()) out.push_back(m.ip);
  return out;
}

std::uint64_t MembershipView::ips_hash() const {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (const MemberInfo& m : members()) {
    std::uint32_t bits = m.ip.bits();
    for (int i = 0; i < 4; ++i) {
      hash ^= (bits >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;  // FNV prime
    }
  }
  return hash;
}

}  // namespace gs::proto
