// Typed tests of the one engine template (runtime::BasicEngine) over the
// three protocols: what the template owns — lazy creation, the telemetry
// counts, the default origin and its recovery epoch, the sorted recovery
// lock set — and what the per-protocol traits decide (which operations
// and recovery entry points a protocol rejects).
#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/check.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

constexpr std::size_t kNodes = 3;

/// Per-engine construction and capabilities. Node 0 starts with every
/// token; Raymond's tree is rooted there too.
template <typename Engine>
struct Spec;

template <>
struct Spec<HierEngine> {
  static constexpr bool kRecovery = true;
  static constexpr bool kUpgrade = true;
  static std::unique_ptr<HierEngine> make(NodeId self) {
    return std::make_unique<HierEngine>(self, NodeId{0});
  }
};

template <>
struct Spec<NaimiEngine> {
  static constexpr bool kRecovery = true;
  static constexpr bool kUpgrade = false;
  static std::unique_ptr<NaimiEngine> make(NodeId self) {
    return std::make_unique<NaimiEngine>(self, NodeId{0});
  }
};

template <>
struct Spec<RaymondEngine> {
  static constexpr bool kRecovery = false;
  static constexpr bool kUpgrade = false;
  static std::unique_ptr<RaymondEngine> make(NodeId self) {
    return std::make_unique<RaymondEngine>(self, kNodes);
  }
};

template <typename Engine>
class EngineTest : public ::testing::Test {};

using Engines = ::testing::Types<HierEngine, NaimiEngine, RaymondEngine>;
TYPED_TEST_SUITE(EngineTest, Engines);

TYPED_TEST(EngineTest, CountsAfterLocalGrantAndQueuedRemoteRequest) {
  auto root = Spec<TypeParam>::make(NodeId{0});
  auto child = Spec<TypeParam>::make(NodeId{1});
  const LockId lock{4};

  EXPECT_FALSE(root->holds(lock));
  EXPECT_EQ(root->tokens_held(), 0u);  // nothing touched yet

  const Effects local = root->request(lock, LockMode::kW);
  EXPECT_TRUE(local.entered_cs);
  EXPECT_TRUE(local.messages.empty());
  EXPECT_TRUE(root->holds(lock));
  EXPECT_FALSE(root->holds(LockId{5}));
  EXPECT_EQ(root->tokens_held(), 1u);
  EXPECT_EQ(root->queued_requests(), 0u);

  // Node 1's request reaches the holder and queues there.
  Effects remote = child->request(lock, LockMode::kW);
  EXPECT_FALSE(remote.entered_cs);
  ASSERT_EQ(remote.messages.size(), 1u);
  ASSERT_EQ(remote.messages[0].to, NodeId{0});
  const Effects queued = root->deliver(remote.messages[0]);
  EXPECT_FALSE(queued.entered_cs);
  EXPECT_TRUE(root->holds(lock));
  EXPECT_EQ(root->queued_requests(), 1u);
  EXPECT_EQ(root->tokens_held(), 1u);
  EXPECT_FALSE(child->holds(lock));
  EXPECT_EQ(child->tokens_held(), 0u);
}

TYPED_TEST(EngineTest, RecoveryEntryPointsFollowTheTraits) {
  auto engine = Spec<TypeParam>::make(NodeId{1});
  if constexpr (Spec<TypeParam>::kRecovery) {
    // An untouched lock reports the origin epoch it would be created in —
    // never 0 after a recovery rebased the origin.
    EXPECT_EQ(engine->recovery_epoch(LockId{42}), 0u);
    engine->set_default_origin(NodeId{2}, 12);
    EXPECT_EQ(engine->recovery_epoch(LockId{42}), 12u);
    EXPECT_EQ(engine->automaton(LockId{42}).recovery_epoch(), 12u);
    EXPECT_EQ(engine->recovery_epoch(LockId{42}), 12u);

    engine->automaton(LockId{9});
    engine->automaton(LockId{3});
    EXPECT_EQ(engine->recovery_locks(),
              (std::vector<LockId>{LockId{3}, LockId{9}, LockId{42}}));
    EXPECT_EQ(engine->report(LockId{9}).epoch, 12u);
  } else {
    EXPECT_THROW(engine->recovery_locks(), UsageError);
    EXPECT_THROW(engine->report(LockId{1}), UsageError);
    EXPECT_THROW(engine->install_fence(LockId{1}, proto::EpochFence{}),
                 UsageError);
    EXPECT_THROW(engine->recovery_epoch(LockId{1}), UsageError);
    EXPECT_THROW(engine->set_default_origin(NodeId{0}, 1), UsageError);
  }
}

TYPED_TEST(EngineTest, UpgradeFollowsTheTraits) {
  auto engine = Spec<TypeParam>::make(NodeId{0});
  const LockId lock{2};
  engine->request(lock, LockMode::kU);
  if constexpr (Spec<TypeParam>::kUpgrade) {
    EXPECT_TRUE(engine->upgrade(lock).upgraded);
  } else {
    EXPECT_THROW(engine->upgrade(lock), UsageError);
  }
}

TEST(MakeEngine, ChecksWhatEachProtocolSupports) {
  const core::HierConfig config;
  EXPECT_NE(dynamic_cast<HierEngine*>(
                make_engine(Protocol::kHierarchical, NodeId{1}, kNodes,
                            NodeId{2}, config, true)
                    .get()),
            nullptr);
  EXPECT_NE(dynamic_cast<NaimiEngine*>(make_engine(Protocol::kNaimi,
                                                   NodeId{1}, kNodes,
                                                   NodeId{2}, config, true)
                                           .get()),
            nullptr);
  EXPECT_NE(dynamic_cast<RaymondEngine*>(
                make_engine(Protocol::kRaymond, NodeId{1}, kNodes, NodeId{0},
                            config, false)
                    .get()),
            nullptr);
  EXPECT_THROW(make_engine(Protocol::kRaymond, NodeId{1}, kNodes, NodeId{0},
                           config, true),
               UsageError);
  EXPECT_THROW(make_engine(Protocol::kRaymond, NodeId{1}, kNodes, NodeId{2},
                           config, false),
               UsageError);
}

}  // namespace
}  // namespace hlock::runtime
