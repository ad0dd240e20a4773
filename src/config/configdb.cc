#include "config/configdb.h"

#include <algorithm>
#include <span>

namespace gs::config {

namespace {

// The entries of a key-sorted index that hold `key`.
template <typename Entry>
std::span<const Entry> holders(const std::vector<Entry>& index,
                               std::uint32_t key) {
  const auto first = std::partition_point(
      index.begin(), index.end(), [&](const Entry& e) { return e.key < key; });
  const auto last = std::partition_point(
      first, index.end(), [&](const Entry& e) { return e.key == key; });
  return {first, last};
}

}  // namespace

const ConfigDb::Indexes& ConfigDb::indexes() const {
  if (indexes_) return *indexes_;
  Indexes& built = indexes_.emplace();
  for (std::vector<Keyed>* index :
       {&built.by_ip, &built.by_node, &built.by_switch})
    index->reserve(adapters_.size());
  for (const auto& [id, rec] : adapters_) {  // AdapterId order
    built.by_ip.push_back({rec.ip.bits(), id});
    built.by_node.push_back({rec.node.value(), id});
    built.by_switch.push_back({rec.wired_switch.value(), id});
  }
  for (std::vector<Keyed>* index :
       {&built.by_ip, &built.by_node, &built.by_switch}) {
    std::stable_sort(
        index->begin(), index->end(),
        [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  }
  return built;
}

std::vector<AdapterRecord> ConfigDb::records(const std::vector<Keyed>& index,
                                             std::uint32_t key) const {
  std::vector<AdapterRecord> out;
  for (const Keyed& held : holders(index, key))
    out.push_back(adapters_.at(held.id));
  return out;
}

void ConfigDb::put_adapter(const AdapterRecord& record) {
  adapters_[record.adapter] = record;
  indexes_.reset();
}

std::optional<NodeRecord> ConfigDb::node(util::NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return std::nullopt;
  return it->second;
}

std::optional<AdapterRecord> ConfigDb::adapter(util::AdapterId id) const {
  auto it = adapters_.find(id);
  if (it == adapters_.end()) return std::nullopt;
  return it->second;
}

std::optional<AdapterRecord> ConfigDb::adapter_by_ip(util::IpAddress ip) const {
  const auto held = holders(indexes().by_ip, ip.bits());
  if (held.empty()) return std::nullopt;
  return adapters_.at(held.front().id);
}

std::vector<AdapterRecord> ConfigDb::adapters_on_vlan(util::VlanId vlan) const {
  std::vector<AdapterRecord> out;
  for (const auto& [id, rec] : adapters_)
    if (rec.expected_vlan == vlan) out.push_back(rec);
  return out;
}

std::vector<AdapterRecord> ConfigDb::adapters_of_node(util::NodeId node) const {
  return records(indexes().by_node, node.value());
}

std::vector<AdapterRecord> ConfigDb::adapters_on_switch(
    util::SwitchId sw) const {
  return records(indexes().by_switch, sw.value());
}

std::vector<NodeRecord> ConfigDb::all_nodes() const {
  std::vector<NodeRecord> out;
  out.reserve(nodes_.size());
  for (const auto& [id, rec] : nodes_) out.push_back(rec);
  return out;
}

std::vector<AdapterRecord> ConfigDb::all_adapters() const {
  std::vector<AdapterRecord> out;
  out.reserve(adapters_.size());
  for (const auto& [id, rec] : adapters_) out.push_back(rec);
  return out;
}

void ConfigDb::set_expected_vlan(util::AdapterId id, util::VlanId vlan) {
  auto it = adapters_.find(id);
  if (it != adapters_.end()) it->second.expected_vlan = vlan;
}

void ConfigDb::set_node_domain(util::NodeId id, util::DomainId domain) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.domain = domain;
}

}  // namespace gs::config
