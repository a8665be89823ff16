// Unit tests of recovery::Manager's receive-side gate (docs/recovery.md,
// "Epochs and the stale-message gate"): the one implementation of halt
// buffering, newer-epoch parking, unhalt replay and stale-drop counting
// that SimCluster, ThreadCluster and the model checker all call. A fake
// Host stands in for the engine and records every message the gate lets
// through.
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "proto/message.hpp"
#include "recovery/manager.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::Message;
using proto::NodeId;

/// Engine stand-in: one recovery epoch per lock (the default origin's for
/// untouched locks), no per-lock state to report, and a deliver() that
/// records the message and drops it as stale when its epoch is older than
/// the lock's — as the automatons do.
class GateHost : public recovery::Host {
 public:
  std::vector<LockId> recovery_locks() override { return {}; }
  recovery::LockReport report(LockId) override { return {}; }
  core::Effects install_fence(LockId lock,
                              const proto::EpochFence& fence) override {
    epochs[lock.value()] = fence.epoch;
    return {};
  }
  std::uint32_t recovery_epoch(LockId lock) override {
    const auto it = epochs.find(lock.value());
    return it == epochs.end() ? origin_epoch : it->second;
  }
  core::Effects deliver(const Message& message) override {
    delivered.push_back(message.lock.value());
    core::Effects fx;
    fx.stale_drop = message.epoch < recovery_epoch(message.lock);
    return fx;
  }
  void set_default_origin(NodeId, std::uint32_t epoch) override {
    origin_epoch = epoch;
  }

  std::map<std::uint32_t, std::uint32_t> epochs;
  std::uint32_t origin_epoch = 0;
  std::vector<std::uint32_t> delivered;  ///< lock ids, in delivery order
};

constexpr NodeId kSelf{1};
constexpr NodeId kCoordinator{0};
constexpr NodeId kVictim{2};
constexpr std::uint32_t kFenceLock = 20;
constexpr std::uint32_t kFenceEpoch = 5;

/// Node 1 of a 3-node cluster; node 0 coordinates every campaign.
class RecoveryGate : public ::testing::Test {
 protected:
  RecoveryGate() : manager_(kSelf, 3, enabled(), &host_) {}

  static recovery::Options enabled() {
    recovery::Options options;
    options.enabled = true;
    return options;
  }

  /// A protocol message for `lock` from `from`, stamped with `epoch`.
  static Message protocol(NodeId from, std::uint32_t lock,
                          std::uint32_t epoch) {
    Message message{from, kSelf, LockId{lock}, proto::NaimiToken{}};
    message.epoch = epoch;
    return message;
  }

  recovery::Outcome deliver(const Message& message) {
    return manager_.on_message(message, SimTime{});
  }

  /// Halts on suspicion of node 2.
  void halt() {
    manager_.suspect(kVictim, SimTime{});
    ASSERT_TRUE(manager_.halted());
  }

  /// The coordinator's single fence for the campaign against node 2; it
  /// completes the fence set, so the manager unhalts.
  recovery::Outcome fence() {
    proto::EpochFence fence;
    fence.dead = {kVictim};
    fence.epoch = kFenceEpoch;
    fence.new_root = kCoordinator;
    fence.fence_index = 0;
    fence.fence_count = 1;
    return deliver(Message{kCoordinator, kSelf, LockId{kFenceLock}, fence});
  }

  static std::vector<std::uint32_t> effect_locks(
      const recovery::Outcome& out) {
    std::vector<std::uint32_t> locks;
    for (const auto& [lock, fx] : out.effects) locks.push_back(lock.value());
    return locks;
  }

  GateHost host_;
  recovery::Manager manager_;
};

TEST_F(RecoveryGate, ProtocolMessagesAreBufferedWhileHalted) {
  halt();
  const std::string before = manager_.fingerprint();
  const recovery::Outcome out = deliver(protocol(kCoordinator, 7, 0));
  EXPECT_TRUE(out.effects.empty());
  EXPECT_TRUE(host_.delivered.empty());
  ASSERT_EQ(manager_.halted_backlog().size(), 1u);
  EXPECT_EQ(manager_.halted_backlog()[0].lock, LockId{7});
  // The backlog is behavior-relevant state: the model checker must tell
  // these two states apart.
  EXPECT_NE(manager_.fingerprint(), before);
}

TEST_F(RecoveryGate, NewerEpochMessageIsParkedAndCurrentOneDelivered) {
  const recovery::Outcome parked = deliver(protocol(kCoordinator, 7, 4));
  EXPECT_TRUE(parked.effects.empty());
  ASSERT_EQ(manager_.parked().size(), 1u);
  EXPECT_TRUE(host_.delivered.empty());

  const recovery::Outcome current = deliver(protocol(kCoordinator, 8, 0));
  EXPECT_EQ(effect_locks(current), (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(host_.delivered, (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(manager_.counters().stale_drops, 0u);
}

TEST_F(RecoveryGate, UnhaltReplaysParkedThenHaltedAfterTheFenceEffects) {
  deliver(protocol(kCoordinator, 10, kFenceEpoch));  // ahead: parked
  halt();
  deliver(protocol(kCoordinator, 11, 0));  // halted: buffered
  deliver(protocol(kCoordinator, 12, 0));
  ASSERT_TRUE(host_.delivered.empty());

  const recovery::Outcome out = fence();
  EXPECT_TRUE(out.unhalted);
  EXPECT_FALSE(manager_.halted());
  // The fence's own effects first, then the parked message, then the
  // halted backlog in arrival order.
  EXPECT_EQ(effect_locks(out),
            (std::vector<std::uint32_t>{kFenceLock, 10, 11, 12}));
  EXPECT_EQ(host_.delivered, (std::vector<std::uint32_t>{10, 11, 12}));
  EXPECT_TRUE(manager_.parked().empty());
  EXPECT_TRUE(manager_.halted_backlog().empty());
  // The backlog carried the pre-fence epoch 0.
  EXPECT_EQ(manager_.counters().stale_drops, 2u);
}

TEST_F(RecoveryGate, ReplayedMessageStillAheadOfTheLocalEpochReParks) {
  deliver(protocol(kCoordinator, 10, kFenceEpoch + 4));
  halt();
  const recovery::Outcome out = fence();
  EXPECT_TRUE(out.unhalted);
  EXPECT_EQ(effect_locks(out), (std::vector<std::uint32_t>{kFenceLock}));
  EXPECT_TRUE(host_.delivered.empty());
  ASSERT_EQ(manager_.parked().size(), 1u);
  EXPECT_EQ(manager_.parked()[0].lock, LockId{10});
}

TEST_F(RecoveryGate, DeadSendersProtocolTrafficReachesTheGate) {
  halt();
  fence();
  ASSERT_TRUE(manager_.is_dead(kVictim));
  ASSERT_FALSE(manager_.halted());

  // Recovery traffic from a node believed dead is zombie traffic: its
  // suspicion of node 0 must not start a campaign here.
  const recovery::Outcome zombie = deliver(
      Message{kVictim, kSelf, LockId{0}, proto::Suspect{kCoordinator}});
  EXPECT_FALSE(manager_.is_dead(kCoordinator));
  EXPECT_FALSE(manager_.halted());
  EXPECT_TRUE(zombie.messages.empty());

  // Its protocol traffic still reaches the gate, where the pre-crash epoch
  // makes the automaton drop it.
  const recovery::Outcome stale = deliver(protocol(kVictim, 7, 0));
  EXPECT_EQ(effect_locks(stale), (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(host_.delivered, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(manager_.counters().stale_drops, 1u);
}

TEST_F(RecoveryGate, CrashStopDiscardsTheBacklog) {
  deliver(protocol(kCoordinator, 10, kFenceEpoch));
  halt();
  deliver(protocol(kCoordinator, 11, 0));
  manager_.discard_backlog();
  EXPECT_TRUE(manager_.parked().empty());
  EXPECT_TRUE(manager_.halted_backlog().empty());

  const recovery::Outcome out = fence();
  EXPECT_EQ(effect_locks(out), (std::vector<std::uint32_t>{kFenceLock}));
  EXPECT_TRUE(host_.delivered.empty());
}

TEST_F(RecoveryGate, StaleDropsAreCounted) {
  host_.epochs[7] = 3;
  deliver(protocol(kCoordinator, 7, 1));  // older: dropped by the host
  deliver(protocol(kCoordinator, 7, 3));  // current: processed
  EXPECT_EQ(host_.delivered, (std::vector<std::uint32_t>{7, 7}));
  EXPECT_EQ(manager_.counters().stale_drops, 1u);
}

}  // namespace
}  // namespace hlock
