// Unit tests for the configuration database and the discovered-vs-expected
// verifier (§2.2).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "config/configdb.h"
#include "config/verifier.h"
#include "util/rng.h"

namespace gs::config {
namespace {

AdapterRecord record(std::uint32_t id, std::uint32_t node, util::IpAddress ip,
                     std::uint32_t vlan, std::uint32_t sw = 0,
                     std::uint32_t port = 0) {
  AdapterRecord r;
  r.adapter = util::AdapterId(id);
  r.node = util::NodeId(node);
  r.ip = ip;
  r.expected_vlan = util::VlanId(vlan);
  r.wired_switch = util::SwitchId(sw);
  r.wired_port = util::PortId(port);
  return r;
}

class ConfigDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NodeRecord n0;
    n0.node = util::NodeId(0);
    n0.name = "web-0";
    n0.domain = util::DomainId(1);
    n0.central_eligible = true;
    db_.put_node(n0);

    db_.put_adapter(record(0, 0, util::IpAddress(10, 0, 0, 1), 1, 0, 0));
    db_.put_adapter(record(1, 0, util::IpAddress(10, 0, 1, 1), 100, 0, 1));
    db_.put_adapter(record(2, 1, util::IpAddress(10, 0, 0, 2), 1, 1, 0));
  }

  ConfigDb db_;
};

TEST_F(ConfigDbTest, NodeLookup) {
  auto node = db_.node(util::NodeId(0));
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->name, "web-0");
  EXPECT_TRUE(node->central_eligible);
  EXPECT_FALSE(db_.node(util::NodeId(9)).has_value());
}

TEST_F(ConfigDbTest, AdapterLookups) {
  EXPECT_TRUE(db_.adapter(util::AdapterId(1)).has_value());
  EXPECT_FALSE(db_.adapter(util::AdapterId(99)).has_value());
  auto by_ip = db_.adapter_by_ip(util::IpAddress(10, 0, 1, 1));
  ASSERT_TRUE(by_ip.has_value());
  EXPECT_EQ(by_ip->adapter, util::AdapterId(1));
}

TEST_F(ConfigDbTest, GroupedQueries) {
  EXPECT_EQ(db_.adapters_on_vlan(util::VlanId(1)).size(), 2u);
  EXPECT_EQ(db_.adapters_of_node(util::NodeId(0)).size(), 2u);
  EXPECT_EQ(db_.adapters_on_switch(util::SwitchId(0)).size(), 2u);
  EXPECT_EQ(db_.all_nodes().size(), 1u);
  EXPECT_EQ(db_.all_adapters().size(), 3u);
}

TEST_F(ConfigDbTest, SetExpectedVlan) {
  db_.set_expected_vlan(util::AdapterId(1), util::VlanId(101));
  EXPECT_EQ(db_.adapter(util::AdapterId(1))->expected_vlan, util::VlanId(101));
}

TEST_F(ConfigDbTest, SetNodeDomain) {
  db_.set_node_domain(util::NodeId(0), util::DomainId(7));
  EXPECT_EQ(db_.node(util::NodeId(0))->domain, util::DomainId(7));
}

// The indexed lookups against a brute-force scan of all_adapters(), across
// random inserts and overwrites that move records between IPs, nodes and
// switches. Small key spaces force shared IPs and many records per key.
TEST(ConfigDbIndexTest, IndexedLookupsMatchAScanAcrossOverwrites) {
  util::Rng rng(2001);
  ConfigDb db;
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng.below(n));
  };
  const auto ip_of = [](std::uint32_t i) {
    return util::IpAddress(10, 1, 0, static_cast<std::uint8_t>(i));
  };
  const auto ids = [](const std::vector<AdapterRecord>& records) {
    std::vector<std::uint32_t> out;
    for (const AdapterRecord& r : records) out.push_back(r.adapter.value());
    return out;
  };
  for (int step = 0; step < 2000; ++step) {
    db.put_adapter(record(pick(200), pick(40), ip_of(pick(150)), 1 + pick(4),
                          pick(12), pick(48)));
    if (step % 50 != 49) continue;

    const std::vector<AdapterRecord> all = db.all_adapters();
    for (std::uint32_t key = 0; key < 150; ++key) {
      std::optional<AdapterRecord> want;
      for (const AdapterRecord& r : all) {
        if (r.ip == ip_of(key)) {
          want = r;
          break;
        }
      }
      const auto got = db.adapter_by_ip(ip_of(key));
      ASSERT_EQ(got.has_value(), want.has_value()) << "ip key " << key;
      if (want) {
        EXPECT_EQ(got->adapter, want->adapter);
      }
    }
    for (std::uint32_t key = 0; key < 40; ++key) {
      std::vector<AdapterRecord> want;
      for (const AdapterRecord& r : all)
        if (r.node == util::NodeId(key)) want.push_back(r);
      EXPECT_EQ(ids(db.adapters_of_node(util::NodeId(key))), ids(want))
          << "node " << key;
    }
    for (std::uint32_t key = 0; key < 12; ++key) {
      std::vector<AdapterRecord> want;
      for (const AdapterRecord& r : all)
        if (r.wired_switch == util::SwitchId(key)) want.push_back(r);
      const auto got = db.adapters_on_switch(util::SwitchId(key));
      EXPECT_EQ(ids(got), ids(want)) << "switch " << key;
      // Whole records, not just ids: an overwrite must not leave stale
      // fields behind.
      for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
        EXPECT_EQ(got[i].ip, want[i].ip);
        EXPECT_EQ(got[i].node, want[i].node);
        EXPECT_EQ(got[i].wired_port, want[i].wired_port);
      }
    }
  }
  EXPECT_LE(db.adapter_count(), 200u);
}

// --- Verifier ---------------------------------------------------------------------

class VerifierTest : public ConfigDbTest {
 protected:
  std::vector<Inconsistency> verify(std::vector<DiscoveredAdapter> d) {
    return Verifier(db_).verify(d);
  }
};

TEST_F(VerifierTest, CleanDiscoveryYieldsNoFindings) {
  auto findings = verify({{util::IpAddress(10, 0, 0, 1), util::VlanId(1)},
                          {util::IpAddress(10, 0, 1, 1), util::VlanId(100)},
                          {util::IpAddress(10, 0, 0, 2), util::VlanId(1)}});
  EXPECT_TRUE(findings.empty());
}

TEST_F(VerifierTest, MissingAdapterFlagged) {
  auto findings = verify({{util::IpAddress(10, 0, 0, 1), util::VlanId(1)},
                          {util::IpAddress(10, 0, 0, 2), util::VlanId(1)}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, InconsistencyKind::kMissingAdapter);
  EXPECT_EQ(findings[0].ip, util::IpAddress(10, 0, 1, 1));
  EXPECT_EQ(findings[0].expected_vlan, util::VlanId(100));
}

TEST_F(VerifierTest, UnknownAdapterFlagged) {
  auto findings = verify({{util::IpAddress(10, 0, 0, 1), util::VlanId(1)},
                          {util::IpAddress(10, 0, 1, 1), util::VlanId(100)},
                          {util::IpAddress(10, 0, 0, 2), util::VlanId(1)},
                          {util::IpAddress(192, 168, 0, 1), util::VlanId(1)}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, InconsistencyKind::kUnknownAdapter);
  EXPECT_EQ(findings[0].ip, util::IpAddress(192, 168, 0, 1));
}

TEST_F(VerifierTest, WrongVlanFlagged) {
  auto findings = verify({{util::IpAddress(10, 0, 0, 1), util::VlanId(1)},
                          {util::IpAddress(10, 0, 1, 1), util::VlanId(101)},
                          {util::IpAddress(10, 0, 0, 2), util::VlanId(1)}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, InconsistencyKind::kWrongVlan);
  EXPECT_EQ(findings[0].expected_vlan, util::VlanId(100));
  EXPECT_EQ(findings[0].discovered_vlan, util::VlanId(101));
}

TEST_F(VerifierTest, DuplicateIpFlagged) {
  auto findings = verify({{util::IpAddress(10, 0, 0, 1), util::VlanId(1)},
                          {util::IpAddress(10, 0, 0, 1), util::VlanId(100)},
                          {util::IpAddress(10, 0, 1, 1), util::VlanId(100)},
                          {util::IpAddress(10, 0, 0, 2), util::VlanId(1)}});
  bool dup = false;
  for (const auto& f : findings)
    if (f.kind == InconsistencyKind::kDuplicateIp) dup = true;
  EXPECT_TRUE(dup);
}

TEST_F(VerifierTest, EmptyDiscoveryFlagsEverythingMissing) {
  auto findings = verify({});
  EXPECT_EQ(findings.size(), 3u);
  for (const auto& f : findings)
    EXPECT_EQ(f.kind, InconsistencyKind::kMissingAdapter);
}

TEST_F(VerifierTest, MultipleKindsCombine) {
  auto findings = verify({{util::IpAddress(10, 0, 0, 1), util::VlanId(5)},
                          {util::IpAddress(1, 2, 3, 4), util::VlanId(5)}});
  int wrong = 0, unknown = 0, missing = 0;
  for (const auto& f : findings) {
    if (f.kind == InconsistencyKind::kWrongVlan) ++wrong;
    if (f.kind == InconsistencyKind::kUnknownAdapter) ++unknown;
    if (f.kind == InconsistencyKind::kMissingAdapter) ++missing;
  }
  EXPECT_EQ(wrong, 1);
  EXPECT_EQ(unknown, 1);
  EXPECT_EQ(missing, 2);
}

TEST(InconsistencyKindNames, Strings) {
  EXPECT_EQ(to_string(InconsistencyKind::kMissingAdapter), "missing-adapter");
  EXPECT_EQ(to_string(InconsistencyKind::kUnknownAdapter), "unknown-adapter");
  EXPECT_EQ(to_string(InconsistencyKind::kWrongVlan), "wrong-vlan");
  EXPECT_EQ(to_string(InconsistencyKind::kDuplicateIp), "duplicate-ip");
}

}  // namespace
}  // namespace gs::config
