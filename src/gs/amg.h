// Adapter Membership Group view.
//
// An immutable committed membership: a view number plus the member list in
// rank order — descending IP, so rank 0 is the leader ("the adapter with
// the highest IP address", §2.1). The same order serves three purposes:
//  * leader identity (rank 0),
//  * leader succession ("notification is sent to the second ranked
//    adapter", §2.1) — rank 1, 2, ... in turn,
//  * the logical heartbeat ring (§3): rank i's right neighbor is rank i+1
//    (mod n), left neighbor is rank i-1 (mod n).
//
// The member list is an immutable, shared MemberList: copying a view
// (committed view, pending prepare, failure detector, report snapshot)
// copies a pointer, and a view built from a received Prepare or Commit
// shares the list the payload decoded.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gs/messages.h"
#include "util/check.h"
#include "util/ip.h"

namespace gs::proto {

class MembershipView {
 public:
  MembershipView() = default;

  // Orders `members` descending by IP and drops duplicate IPs, keeping the
  // first occurrence in `members`. A list already in rank order (every
  // coordinator-built list) is shared as is: it has no duplicates and
  // exactly one sorted order, so sorting would return it unchanged.
  static MembershipView make(std::uint64_t view, MemberList members);

  [[nodiscard]] std::uint64_t view() const { return view_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }

  [[nodiscard]] const std::vector<MemberInfo>& members() const {
    return members_.items();
  }
  // The shared list itself, for messages that carry the view.
  [[nodiscard]] const MemberList& member_list() const { return members_; }

  [[nodiscard]] const MemberInfo& leader() const { return member_at(0); }

  [[nodiscard]] bool contains(util::IpAddress ip) const {
    return rank_of(ip).has_value();
  }

  // Rank (0-based position in descending-IP order), if a member.
  [[nodiscard]] std::optional<std::size_t> rank_of(util::IpAddress ip) const;

  [[nodiscard]] const MemberInfo& member_at(std::size_t rank) const {
    GS_CHECK(rank < size());
    return members_[rank];
  }

  // Ring neighbors of `ip` (undefined for non-members — checked). In a
  // group of one or two these can equal `ip` itself / each other; the
  // failure detectors handle those degenerate rings.
  [[nodiscard]] util::IpAddress right_of(util::IpAddress ip) const;
  [[nodiscard]] util::IpAddress left_of(util::IpAddress ip) const;

  [[nodiscard]] std::vector<util::IpAddress> ips() const;

  // Order-sensitive FNV-1a fingerprint of the member IPs (view number
  // excluded): two views hash equal iff their compositions are identical,
  // which is what health samples report so an operator can tell membership
  // churn from mere view-number churn.
  [[nodiscard]] std::uint64_t ips_hash() const;

  // Same view number and same members, shared or not.
  bool operator==(const MembershipView&) const = default;

 private:
  std::uint64_t view_ = 0;
  MemberList members_;
};

}  // namespace gs::proto
