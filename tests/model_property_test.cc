// Reference-model property tests: the event queue against a naive sorted
// model under random interleavings of push/cancel/pop, and the message
// codecs against randomized structs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gs/messages.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace gs {
namespace {

// --- EventQueue vs a naive model -----------------------------------------------

struct ModelEntry {
  sim::SimTime when;
  sim::EventId id;
  bool cancelled = false;
};

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesNaiveModelUnderRandomOps) {
  util::Rng rng(GetParam());
  sim::EventQueue queue;
  std::vector<ModelEntry> model;  // same order as push
  std::vector<sim::EventId> popped_real, popped_model;

  auto model_pop = [&]() -> sim::EventId {
    // Earliest non-cancelled, FIFO among equal times. `model` is kept in
    // push order and the comparison is strict, so the first entry wins ties
    // — ids are slot+generation handles, not push-ordered.
    const ModelEntry* best = nullptr;
    for (const ModelEntry& e : model) {
      if (e.cancelled) continue;
      if (best == nullptr || e.when < best->when) best = &e;
    }
    EXPECT_NE(best, nullptr);
    const sim::EventId id = best->id;
    const_cast<ModelEntry*>(best)->cancelled = true;  // consumed
    return id;
  };

  auto model_live = [&] {
    return static_cast<std::size_t>(
        std::count_if(model.begin(), model.end(),
                      [](const ModelEntry& e) { return !e.cancelled; }));
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 5 || queue.empty()) {
      const auto when = static_cast<sim::SimTime>(rng.below(50));
      const sim::EventId id = queue.push(when, [] {});
      model.push_back(ModelEntry{when, id});
    } else if (op < 7) {
      // Cancel a random historical id (may be fired/cancelled already).
      const std::size_t pick = rng.below(model.size());
      const bool expect = !model[pick].cancelled;
      EXPECT_EQ(queue.cancel(model[pick].id), expect);
      model[pick].cancelled = true;
    } else {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.next_time(),
                [&] {
                  sim::SimTime best = std::numeric_limits<sim::SimTime>::max();
                  for (const ModelEntry& e : model)
                    if (!e.cancelled) best = std::min(best, e.when);
                  return best;
                }());
      auto [when, fn] = queue.pop();
      const sim::EventId expected = model_pop();
      // Identify which model entry fired via its time.
      (void)fn;
      popped_model.push_back(expected);
      // The queue does not expose the popped id; compare times instead.
      const ModelEntry* entry = nullptr;
      for (const ModelEntry& e : model)
        if (e.id == expected) entry = &e;
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(when, entry->when);
    }
    EXPECT_EQ(queue.size(), model_live());
  }

  // Drain and confirm global ordering.
  sim::SimTime last = -1;
  while (!queue.empty()) {
    auto [when, fn] = queue.pop();
    EXPECT_GE(when, last);
    last = when;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- Randomized codec round-trips -------------------------------------------------

proto::MemberInfo random_member(util::Rng& rng) {
  proto::MemberInfo m;
  m.ip = util::IpAddress(static_cast<std::uint32_t>(rng.next()));
  m.mac = util::MacAddress(rng.next());
  m.node = util::NodeId(static_cast<std::uint32_t>(rng.below(1u << 20)));
  m.central_eligible = rng.chance(0.5);
  return m;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomStructsRoundTrip) {
  util::Rng rng(GetParam() * 0x9E3779B9u);
  for (int iter = 0; iter < 200; ++iter) {
    {
      proto::Beacon msg;
      msg.self = random_member(rng);
      msg.is_leader = rng.chance(0.5);
      msg.view = rng.next();
      msg.group_size = static_cast<std::uint32_t>(rng.below(1000));
      auto out = proto::decode<proto::Beacon>(proto::encode(msg));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->self, msg.self);
      EXPECT_EQ(out->view, msg.view);
      EXPECT_EQ(out->group_size, msg.group_size);
      EXPECT_EQ(out->is_leader, msg.is_leader);
    }
    {
      proto::Prepare msg;
      msg.view = rng.next();
      msg.leader = util::IpAddress(static_cast<std::uint32_t>(rng.next()));
      const std::size_t n = rng.below(20);
      std::vector<proto::MemberInfo> members;
      for (std::size_t i = 0; i < n; ++i)
        members.push_back(random_member(rng));
      msg.members = std::move(members);
      auto out = proto::decode<proto::Prepare>(proto::encode(msg));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->members, msg.members);
      EXPECT_EQ(out->leader, msg.leader);
    }
    {
      proto::Commit msg;
      msg.view = rng.next();
      const std::size_t n = rng.below(20);
      std::vector<proto::MemberInfo> members;
      for (std::size_t i = 0; i < n; ++i)
        members.push_back(random_member(rng));
      msg.members = std::move(members);
      auto out = proto::decode<proto::Commit>(proto::encode(msg));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->members, msg.members);
    }
    {
      proto::MembershipReport msg;
      msg.seq = rng.next();
      msg.view = rng.next();
      msg.full = rng.chance(0.5);
      msg.leader = random_member(rng);
      const std::size_t adds = rng.below(10);
      for (std::size_t i = 0; i < adds; ++i)
        msg.added.push_back(random_member(rng));
      const std::size_t removes = rng.below(10);
      for (std::size_t i = 0; i < removes; ++i) {
        msg.removed.push_back(proto::RemovedMember{
            util::IpAddress(static_cast<std::uint32_t>(rng.next())),
            rng.chance(0.5) ? proto::RemoveReason::kFailed
                            : proto::RemoveReason::kLeft});
      }
      auto out = proto::decode<proto::MembershipReport>(proto::encode(msg));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->added, msg.added);
      ASSERT_EQ(out->removed.size(), msg.removed.size());
      for (std::size_t i = 0; i < msg.removed.size(); ++i) {
        EXPECT_EQ(out->removed[i].ip, msg.removed[i].ip);
        EXPECT_EQ(out->removed[i].reason, msg.removed[i].reason);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace gs
