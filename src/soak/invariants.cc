#include "soak/invariants.h"

#include <map>
#include <set>
#include <sstream>

namespace gs::soak {

std::string_view to_string(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kNotConverged: return "not-converged";
    case Violation::Kind::kAmgMembership: return "amg-membership";
    case Violation::Kind::kAmgLeadership: return "amg-leadership";
    case Violation::Kind::kNoActiveCentral: return "no-active-central";
    case Violation::Kind::kGscAdapter: return "gsc-adapter";
    case Violation::Kind::kGscGroup: return "gsc-group";
    case Violation::Kind::kTrace: return "trace";
    case Violation::Kind::kSpanLeak: return "span-leak";
    case Violation::Kind::kCodec: return "codec";
    case Violation::Kind::kBeaconGroup: return "beacon-group";
  }
  return "?";
}

std::string format_violations(const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const Violation& v : violations)
    out << "[" << to_string(v.kind) << "] " << v.detail << "\n";
  return out.str();
}

namespace {

struct VlanTruth {
  std::set<util::IpAddress> healthy;
  util::IpAddress leader;  // highest healthy IP on the segment
};

class Checker {
 public:
  explicit Checker(farm::Farm& farm) : farm_(farm) {
    net::Fabric& fabric = farm_.fabric();
    for (std::size_t i = 0; i < fabric.adapter_count(); ++i) {
      const util::AdapterId id(static_cast<std::uint32_t>(i));
      by_ip_[fabric.adapter(id).ip()] = id;
    }
    for (util::VlanId vlan : farm_.vlans()) {
      VlanTruth t;
      for (util::AdapterId id : farm_.healthy_adapters_in_vlan(vlan)) {
        const util::IpAddress ip = fabric.adapter(id).ip();
        t.healthy.insert(ip);
        t.leader = std::max(t.leader, ip);
      }
      if (!t.healthy.empty()) truth_[vlan] = std::move(t);
    }
  }

  std::vector<Violation> run() {
    check_amgs();
    check_central();
    check_codec();
    check_beacon_groups();
    return std::move(violations_);
  }

 private:
  void add(Violation::Kind kind, const std::string& detail) {
    violations_.push_back({kind, detail});
  }

  void check_amgs() {
    for (const auto& [vlan, t] : truth_) {
      std::optional<std::uint64_t> view_number;
      for (util::IpAddress ip : t.healthy) {
        proto::AdapterProtocol* proto = farm_.protocol_for(by_ip_.at(ip));
        std::ostringstream who;
        who << ip << " (vlan " << vlan.value() << ")";
        if (proto == nullptr || !proto->is_committed()) {
          add(Violation::Kind::kAmgMembership,
              who.str() + " is healthy but not committed into any AMG");
          continue;
        }
        const proto::MembershipView& view = proto->committed();
        std::set<util::IpAddress> members;
        util::IpAddress highest;
        for (const proto::MemberInfo& m : view.members()) {
          members.insert(m.ip);
          highest = std::max(highest, m.ip);
        }
        if (members != t.healthy) {
          std::ostringstream detail;
          detail << who.str() << " committed view has " << members.size()
                 << " member(s), ground truth has " << t.healthy.size();
          add(Violation::Kind::kAmgMembership, detail.str());
        }
        if (view.leader().ip != highest) {
          std::ostringstream detail;
          detail << who.str() << " view leader " << view.leader().ip
                 << " is not the highest IP in the view (" << highest << ")";
          add(Violation::Kind::kAmgLeadership, detail.str());
        }
        if (proto->leader_ip() != t.leader) {
          std::ostringstream detail;
          detail << who.str() << " follows leader " << proto->leader_ip()
                 << ", ground truth elects " << t.leader;
          add(Violation::Kind::kAmgLeadership, detail.str());
        }
        if (!view_number) view_number = view.view();
        if (*view_number != view.view()) {
          std::ostringstream detail;
          detail << who.str() << " holds view " << view.view()
                 << ", its segment peers hold " << *view_number
                 << " — more than one AMG on the segment";
          add(Violation::Kind::kAmgMembership, detail.str());
        }
      }
    }
  }

  // Invariant 6: with the decode-once codec path a daemon drops a frame
  // only when its envelope or typed decode fails — and in simulation that
  // can only happen when the fabric injected a byte flip. Drops without any
  // injected corruption mean the codec path corrupted or mis-cached a
  // payload on its own.
  void check_codec() {
    std::uint64_t corrupted = 0;
    for (util::VlanId vlan : farm_.vlans())
      corrupted += farm_.fabric().load(vlan).frames_corrupted;
    std::uint64_t dropped = 0;
    for (std::size_t n = 0; n < farm_.node_count(); ++n)
      dropped += farm_.daemon(n).frames_dropped();
    if (dropped > 0 && corrupted == 0) {
      std::ostringstream detail;
      detail << dropped << " frame(s) dropped by daemons but the fabric "
             << "injected no corruption";
      add(Violation::Kind::kCodec, detail.str());
    }
  }

  // Invariant 7: the fabric delivers beacons to exactly the adapters
  // whose protocol listens for them.
  void check_beacon_groups() {
    net::Fabric& fabric = farm_.fabric();
    for (std::size_t n = 0; n < farm_.node_count(); ++n) {
      proto::GsDaemon& daemon = farm_.daemon(n);
      if (daemon.halted()) continue;
      const std::vector<util::AdapterId>& ids = farm_.node_adapters(n);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const net::Adapter& adapter = fabric.adapter(ids[i]);
        const proto::AdapterState state = daemon.protocol(i).state();
        if (adapter.in_beacon_group() == proto::in_beacon_group(state))
          continue;
        std::ostringstream detail;
        detail << adapter.ip() << " is " << proto::to_string(state)
               << " but " << (adapter.in_beacon_group() ? "in" : "out of")
               << " its VLAN's beacon group";
        add(Violation::Kind::kBeaconGroup, detail.str());
      }
    }
  }

  void check_central() {
    if (farm_.spec().is_hierarchical()) {
      check_hierarchical();
      return;
    }
    const auto expected_node = farm_.expected_gsc_node();
    if (!expected_node) return;  // no eligible node healthy: nothing to host GSC
    proto::Central* central = farm_.active_central();
    if (central == nullptr) {
      add(Violation::Kind::kNoActiveCentral,
          "an eligible node is healthy but no Central instance is active");
      return;
    }
    check_hosted_where_elected(*expected_node, central->self_ip(), "Central");
    std::set<util::VlanId> covered;
    for (const auto& [vlan, t] : truth_) covered.insert(vlan);
    check_tables(*central, covered);
  }

  // The active instance must sit where the admin-AMG election says: on
  // `expected_node`'s admin adapter.
  void check_hosted_where_elected(std::size_t expected_node,
                                  util::IpAddress actual,
                                  std::string_view what) {
    const std::size_t admin_index =
        farm_.daemon(expected_node).config().admin_adapter_index;
    const util::IpAddress expected_ip =
        farm_.fabric()
            .adapter(farm_.node_adapters(expected_node)[admin_index])
            .ip();
    if (actual == expected_ip) return;
    std::ostringstream detail;
    detail << "active " << what << " is " << actual
           << ", admin-AMG election says it should be " << expected_ip;
    add(Violation::Kind::kNoActiveCentral, detail.str());
  }

  // Table invariants for one Central instance against ground truth.
  // `covered` is the set of segments this instance is responsible for: the
  // "healthy implies known+alive+right leader" and "exactly one group"
  // directions apply only there, while the staleness directions (missed
  // deaths, misfiled or phantom groups) apply to everything it records.
  void check_tables(proto::Central& central,
                    const std::set<util::VlanId>& covered) {
    net::Fabric& fabric = farm_.fabric();
    // Per-adapter table vs ground truth, both directions.
    for (const auto& [vlan, t] : truth_) {
      if (!covered.count(vlan)) continue;
      for (util::IpAddress ip : t.healthy) {
        const auto status = central.adapter_status(ip);
        std::ostringstream who;
        who << ip << " (vlan " << vlan.value() << ")";
        if (!status) {
          add(Violation::Kind::kGscAdapter,
              who.str() + " is healthy but unknown to Central");
          continue;
        }
        if (!status->alive)
          add(Violation::Kind::kGscAdapter,
              who.str() + " is healthy but Central records it dead");
        if (status->group_leader != t.leader) {
          std::ostringstream detail;
          detail << who.str() << " assigned to leader " << status->group_leader
                 << " at Central, ground truth elects " << t.leader;
          add(Violation::Kind::kGscAdapter, detail.str());
        }
      }
    }
    for (const auto& [ip, id] : by_ip_) {
      const auto status = central.adapter_status(ip);
      if (!status || !status->alive) continue;
      if (fabric.adapter(id).health() != net::HealthState::kUp) {
        std::ostringstream detail;
        detail << ip << " is down but Central still records it alive"
               << " (missed death)";
        add(Violation::Kind::kGscAdapter, detail.str());
      }
    }

    // Group table: exactly one group per covered populated segment, led and
    // populated exactly as ground truth says.
    std::map<util::VlanId, int> groups_seen;
    for (const proto::Central::GroupInfo& group : central.groups()) {
      auto leader_adapter = by_ip_.find(group.leader.ip);
      if (leader_adapter == by_ip_.end()) {
        std::ostringstream detail;
        detail << "Central group led by unknown adapter " << group.leader.ip;
        add(Violation::Kind::kGscGroup, detail.str());
        continue;
      }
      const util::VlanId vlan = fabric.vlan_of(leader_adapter->second);
      auto t = vlan.valid() ? truth_.find(vlan) : truth_.end();
      if (t == truth_.end()) {
        std::ostringstream detail;
        detail << "stale Central group led by " << group.leader.ip
               << " on a segment with no healthy adapters";
        add(Violation::Kind::kGscGroup, detail.str());
        continue;
      }
      ++groups_seen[vlan];
      if (group.leader.ip != t->second.leader) {
        std::ostringstream detail;
        detail << "Central group on vlan " << vlan.value() << " led by "
               << group.leader.ip << ", ground truth elects "
               << t->second.leader;
        add(Violation::Kind::kGscGroup, detail.str());
      }
      // The recorded view must be the one the leader actually committed: a
      // lag here means the leader's reports are being dropped or misfiled
      // (e.g. acked as duplicates), so the rest of the record is stale too.
      proto::AdapterProtocol* leader_proto =
          farm_.protocol_for(leader_adapter->second);
      if (leader_proto != nullptr && leader_proto->is_committed() &&
          leader_proto->is_leader() &&
          group.view != leader_proto->committed().view()) {
        std::ostringstream detail;
        detail << "Central holds view " << group.view << " for the group led by "
               << group.leader.ip << ", the leader's committed view is "
               << leader_proto->committed().view()
               << " — its reports are not being applied";
        add(Violation::Kind::kGscGroup, detail.str());
      }
      const std::set<util::IpAddress> members(group.members.begin(),
                                              group.members.end());
      if (members != t->second.healthy) {
        std::ostringstream detail;
        detail << "Central group on vlan " << vlan.value() << " has "
               << members.size() << " member(s), ground truth has "
               << t->second.healthy.size();
        add(Violation::Kind::kGscGroup, detail.str());
      }
    }
    for (const auto& [vlan, t] : truth_) {
      if (!covered.count(vlan)) continue;
      const int seen = groups_seen.count(vlan) ? groups_seen.at(vlan) : 0;
      if (seen == 1) continue;
      std::ostringstream detail;
      detail << "Central records " << seen << " group(s) for vlan "
             << vlan.value() << ", expected exactly one";
      add(Violation::Kind::kGscGroup, detail.str());
    }
  }

  // Hierarchical farms: three tiers of table truth.
  //  * Each domain's Central covers the segments whose leader lives in that
  //    domain, exactly as a flat Central covers the whole farm.
  //  * The root tier's co-located plain Central covers the segments led by
  //    the root tier itself (normally just the root VLAN).
  //  * The RootCentral's aggregated tables must match ground truth for
  //    every domain-covered segment: digests are lossy in form (member
  //    lists never cross the uplink) but must not be lossy in content.
  //
  // Coverage follows the LEADER's home, not the VLAN's nominal domain: a
  // group reports to whatever GSC its leader's daemon discovered through
  // its own admin adapter, so a cross-domain VLAN move (the moved adapter
  // keeps its higher IP and wins the election) legitimately re-homes the
  // whole group's reporting path — and, through the root's ownership-
  // transfer fence, its attribution at the root.
  void check_hierarchical() {
    const farm::FarmSpec& spec = farm_.spec();

    std::map<util::VlanId, std::optional<std::uint32_t>> covering;
    for (const auto& [vlan, t] : truth_) {
      std::optional<std::uint32_t> dom;
      if (const auto node = farm_.node_of(by_ip_.at(t.leader))) {
        const util::DomainId d = farm_.domain_of(*node);
        if (d.valid()) dom = d.value();
      }
      covering[vlan] = dom;
    }

    if (const auto root_node = farm_.expected_root_node()) {
      proto::Central* central = farm_.active_root_tier_central();
      if (central == nullptr) {
        add(Violation::Kind::kNoActiveCentral,
            "a root-tier node is healthy but no root-tier Central is active");
      } else {
        check_hosted_where_elected(*root_node, central->self_ip(),
                                   "root-tier Central");
        std::set<util::VlanId> covered;
        for (const auto& [vlan, dom] : covering)
          if (!dom) covered.insert(vlan);
        check_tables(*central, covered);
      }
    }

    for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(spec.hier_domains);
         ++d) {
      const auto expected = farm_.expected_domain_gsc_node(d);
      if (!expected) continue;  // whole domain management tier is down
      proto::Central* central = farm_.active_domain_central(d);
      if (central == nullptr) {
        std::ostringstream detail;
        detail << "domain " << d << " has a healthy management node but no "
               << "active domain Central";
        add(Violation::Kind::kNoActiveCentral, detail.str());
        continue;
      }
      std::ostringstream what;
      what << "domain " << d << " Central";
      check_hosted_where_elected(*expected, central->self_ip(), what.str());
      std::set<util::VlanId> covered;
      for (const auto& [vlan, dom] : covering)
        if (dom == d) covered.insert(vlan);
      check_tables(*central, covered);
    }

    check_root_tables(covering);
  }

  // RootCentral vs ground truth over every domain-covered segment. Root-
  // tier-covered segments (the root VLAN) are excluded: their membership is
  // the co-located plain Central's job and never crosses an uplink.
  void check_root_tables(
      const std::map<util::VlanId, std::optional<std::uint32_t>>& covering) {
    if (!farm_.expected_root_node()) return;  // no healthy root tier
    proto::RootCentral* root = farm_.active_root_central();
    if (root == nullptr) {
      add(Violation::Kind::kNoActiveCentral,
          "a root-tier node is healthy but no RootCentral is active");
      return;
    }
    check_hosted_where_elected(*farm_.expected_root_node(), root->self_ip(),
                               "RootCentral");

    net::Fabric& fabric = farm_.fabric();
    // A domain whose entire management tier is down cannot send digests:
    // the root's picture of its segments legitimately ages until the
    // domain lease expires them wholesale, so those are skipped.
    auto checkable = [&](util::VlanId vlan) -> std::optional<std::uint32_t> {
      const auto dom = covering.at(vlan);
      if (!dom) return std::nullopt;  // root-tier covered
      if (!farm_.expected_domain_gsc_node(*dom)) return std::nullopt;
      return dom;
    };

    for (const auto& [vlan, t] : truth_) {
      const auto dom = checkable(vlan);
      if (!dom) continue;
      for (util::IpAddress ip : t.healthy) {
        const auto status = root->adapter_status(ip);
        std::ostringstream who;
        who << ip << " (vlan " << vlan.value() << ")";
        if (!status) {
          add(Violation::Kind::kGscAdapter,
              who.str() + " is healthy but unknown to the root GSC");
          continue;
        }
        if (!status->alive)
          add(Violation::Kind::kGscAdapter,
              who.str() + " is healthy but the root GSC records it dead");
        if (status->group_leader != t.leader) {
          std::ostringstream detail;
          detail << who.str() << " assigned to leader " << status->group_leader
                 << " at the root GSC, ground truth elects " << t.leader;
          add(Violation::Kind::kGscAdapter, detail.str());
        }
        if (status->domain != *dom) {
          std::ostringstream detail;
          detail << who.str() << " attributed to domain " << status->domain
                 << " at the root GSC, its group reports through domain "
                 << *dom;
          add(Violation::Kind::kGscAdapter, detail.str());
        }
      }
    }
    for (const auto& [ip, id] : by_ip_) {
      const auto status = root->adapter_status(ip);
      if (!status || !status->alive) continue;
      if (fabric.adapter(id).health() != net::HealthState::kUp) {
        std::ostringstream detail;
        detail << ip << " is down but the root GSC still records it alive"
               << " (missed death)";
        add(Violation::Kind::kGscAdapter, detail.str());
      }
    }

    // Derived groups: one per checkable segment, with the right leader and
    // — reconstructed purely from per-adapter assignments — the right
    // member set.
    std::map<util::VlanId, int> groups_seen;
    for (const proto::RootCentral::GroupInfo& group : root->groups()) {
      auto leader_adapter = by_ip_.find(group.leader);
      if (leader_adapter == by_ip_.end()) {
        std::ostringstream detail;
        detail << "root GSC group led by unknown adapter " << group.leader;
        add(Violation::Kind::kGscGroup, detail.str());
        continue;
      }
      const util::VlanId vlan = fabric.vlan_of(leader_adapter->second);
      auto t = vlan.valid() ? truth_.find(vlan) : truth_.end();
      if (t == truth_.end()) {
        std::ostringstream detail;
        detail << "stale root GSC group led by " << group.leader
               << " on a segment with no healthy adapters";
        add(Violation::Kind::kGscGroup, detail.str());
        continue;
      }
      if (!checkable(vlan))
        continue;  // root-VLAN transient (root-tier blackout) or a dark
                   // domain; drains via group/domain leases
      ++groups_seen[vlan];
      if (group.leader != t->second.leader) {
        std::ostringstream detail;
        detail << "root GSC group on vlan " << vlan.value() << " led by "
               << group.leader << ", ground truth elects " << t->second.leader;
        add(Violation::Kind::kGscGroup, detail.str());
      }
      const std::set<util::IpAddress> members(group.members.begin(),
                                              group.members.end());
      if (members != t->second.healthy) {
        std::ostringstream detail;
        detail << "root GSC group on vlan " << vlan.value() << " has "
               << members.size() << " member(s), ground truth has "
               << t->second.healthy.size();
        add(Violation::Kind::kGscGroup, detail.str());
      }
    }
    for (const auto& [vlan, t] : truth_) {
      if (!checkable(vlan)) continue;
      const int seen = groups_seen.count(vlan) ? groups_seen.at(vlan) : 0;
      if (seen == 1) continue;
      std::ostringstream detail;
      detail << "root GSC records " << seen << " group(s) for vlan "
             << vlan.value() << ", expected exactly one";
      add(Violation::Kind::kGscGroup, detail.str());
    }
  }

  farm::Farm& farm_;
  std::map<util::IpAddress, util::AdapterId> by_ip_;
  std::map<util::VlanId, VlanTruth> truth_;
  std::vector<Violation> violations_;
};

}  // namespace

std::vector<Violation> check_farm_invariants(farm::Farm& farm) {
  return Checker(farm).run();
}

}  // namespace gs::soak
