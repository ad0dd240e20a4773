// The configuration database — the farm's *expected* topology.
//
// The paper inverts the usual relationship (§2.2): instead of nodes reading
// their configuration from the database, GulfStream discovers the topology
// and only GulfStream Central consults the database to flag inconsistencies.
// The database also records the switch wiring that GSC's correlation
// function needs to infer switch failures (§3).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/ids.h"
#include "util/ip.h"

namespace gs::config {

struct AdapterRecord {
  util::AdapterId adapter;
  util::NodeId node;
  util::IpAddress ip;
  util::VlanId expected_vlan;
  util::SwitchId wired_switch;   // physical wiring, for correlation
  util::PortId wired_port;
  bool admin = false;            // connected to the administrative VLAN
};

struct NodeRecord {
  util::NodeId node;
  std::string name;
  util::DomainId domain;
  // May this node host GulfStream Central? (§2.2: only nodes with database
  // and switch-console permissions are eligible.)
  bool central_eligible = false;
};

class ConfigDb {
 public:
  void put_node(const NodeRecord& record) { nodes_[record.node] = record; }
  // Inserts or overwrites the record. The lookup indexes are rebuilt by the
  // next indexed lookup.
  void put_adapter(const AdapterRecord& record);

  [[nodiscard]] std::optional<NodeRecord> node(util::NodeId id) const;
  [[nodiscard]] std::optional<AdapterRecord> adapter(util::AdapterId id) const;
  [[nodiscard]] std::optional<AdapterRecord> adapter_by_ip(
      util::IpAddress ip) const;

  // Scans every record (expected VLANs move with set_expected_vlan).
  [[nodiscard]] std::vector<AdapterRecord> adapters_on_vlan(
      util::VlanId vlan) const;
  // Indexed, like adapter_by_ip: records come back in AdapterId order, and
  // adapter_by_ip returns the lowest AdapterId holding the IP.
  [[nodiscard]] std::vector<AdapterRecord> adapters_of_node(
      util::NodeId node) const;
  [[nodiscard]] std::vector<AdapterRecord> adapters_on_switch(
      util::SwitchId sw) const;
  [[nodiscard]] std::vector<NodeRecord> all_nodes() const;
  [[nodiscard]] std::vector<AdapterRecord> all_adapters() const;

  // Moving a node between domains updates its expected VLANs; GSC applies
  // this when *it* initiates the move, so a subsequent verification pass is
  // clean (§3.1 "if the change is expected ... suppressed").
  void set_expected_vlan(util::AdapterId id, util::VlanId vlan);
  void set_node_domain(util::NodeId id, util::DomainId domain);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t adapter_count() const { return adapters_.size(); }

 private:
  // Adapter ids sorted by one key (IP bits, node or switch id), ties in
  // AdapterId order.
  struct Keyed {
    std::uint32_t key;
    util::AdapterId id;
  };
  struct Indexes {
    std::vector<Keyed> by_ip;
    std::vector<Keyed> by_node;
    std::vector<Keyed> by_switch;
  };

  // Built by the first indexed lookup after a put_adapter, which drops
  // them: puts come in bulk while a farm is built, lookups (Central's
  // failure correlation, up to three per committed failure) during the run.
  // Building in one sorting pass keeps the bulk puts as cheap as plain map
  // inserts. The cache makes even const lookups unsafe to run concurrently.
  [[nodiscard]] const Indexes& indexes() const;
  [[nodiscard]] std::vector<AdapterRecord> records(
      const std::vector<Keyed>& index, std::uint32_t key) const;

  std::map<util::NodeId, NodeRecord> nodes_;
  std::map<util::AdapterId, AdapterRecord> adapters_;
  mutable std::optional<Indexes> indexes_;
};

}  // namespace gs::config
