// Failure-detector races under the deterministic schedule explorer
// (docs/sched.md, docs/recovery.md): two surviving nodes run their
// recovery::Managers on concurrent threads against a mutex-guarded message
// router, and the explorer walks the interleavings the randomized suites
// only sometimes hit — simultaneous suspicion of the same victim, a late
// heartbeat from the dead node landing mid-campaign, and two campaigns
// over DIFFERENT dead sets racing until gossip merges them. Every schedule
// must converge: all survivors unhalted, agreeing on the dead set and the
// epoch, with exactly one regenerated token.
#include <array>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "proto/message.hpp"
#include "recovery/manager.hpp"
#include "sched/harness.hpp"
#include "tests/sched/sched_test.hpp"
#include "util/sync.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;

/// Single-lock protocol engine stand-in: serves a fixed report and mirrors
/// whatever a fence installs. The managers under test never notice the
/// difference — everything protocol-specific hides behind recovery::Host.
class RaceHost : public recovery::Host {
 public:
  explicit RaceHost(NodeId self) : self_(self) {}

  std::vector<LockId> recovery_locks() override { return {LockId{0}}; }
  recovery::LockReport report(LockId) override { return report_; }
  core::Effects install_fence(LockId,
                              const proto::EpochFence& fence) override {
    report_.epoch = fence.epoch;
    report_.has_token = fence.new_root == self_;
    ++fences_installed_;
    return {};
  }
  std::uint32_t recovery_epoch(LockId) override { return report_.epoch; }
  core::Effects deliver(const Message&) override { return {}; }
  void set_default_origin(NodeId, std::uint32_t) override {}

  recovery::LockReport report_;
  int fences_installed_ = 0;

 private:
  const NodeId self_;
};

/// A cluster of managers wired through one mutex-guarded router. The mutex
/// is the sync point the schedule explorer serializes on, so delivery
/// order across the live nodes' threads is what gets explored.
template <std::size_t kNodes>
class RaceCluster {
 public:
  explicit RaceCluster(std::vector<std::uint32_t> dead)
      : dead_(std::move(dead)) {
    recovery::Options options;
    options.enabled = true;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      hosts_.emplace_back(NodeId{n});
    }
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      managers_.emplace_back(NodeId{n}, kNodes, options, &hosts_[n]);
    }
  }

  bool is_victim(std::uint32_t node) const {
    return std::find(dead_.begin(), dead_.end(), node) != dead_.end();
  }

  /// Pre-loads a message (e.g. the victim's in-flight heartbeat).
  void preload(std::uint32_t to, Message message) {
    inbox_[to].push_back(std::move(message));
  }

  /// Runs `node`'s side: raise the initial suspicion, then drain deliveries
  /// until the whole cluster is quiescent. Bounded so a livelocked
  /// interleaving fails the test instead of hanging the explorer.
  void run_node(std::uint32_t node, std::uint32_t first_suspect) {
    {
      MutexLock lock(mu_);
      route(recovery::Outcome{
          managers_[node].suspect(NodeId{first_suspect}, SimTime{})});
      ++started_;
    }
    for (int steps = 0; steps < 10'000; ++steps) {
      MutexLock lock(mu_);
      if (!inbox_[node].empty()) {
        const Message message = std::move(inbox_[node].front());
        inbox_[node].pop_front();
        route(managers_[node].on_message(message, SimTime{}));
        continue;
      }
      if (quiescent()) return;
    }
    ADD_FAILURE() << "node" << node << " never reached quiescence";
  }

  recovery::Manager& manager(std::uint32_t node) { return managers_[node]; }
  RaceHost& host(std::uint32_t node) { return hosts_[node]; }

 private:
  /// All initial suspicions raised, no message in flight, nobody halted:
  /// nothing can produce further traffic.
  bool quiescent() const {
    if (started_ != kNodes - dead_.size()) return false;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      if (is_victim(n)) continue;
      if (!inbox_[n].empty() || managers_[n].halted()) return false;
    }
    return true;
  }

  void route(recovery::Outcome&& outcome) {
    for (Message& message : outcome.messages) {
      const std::uint32_t to = message.to.value();
      if (is_victim(to)) continue;  // crashed: the message is lost
      inbox_[to].push_back(std::move(message));
    }
    // Automaton effects are empty by construction (RaceHost returns none)
    // and only recovery traffic flows; the router only moves messages.
  }

  Mutex mu_{"sched_recovery.router"};
  const std::vector<std::uint32_t> dead_;
  std::array<std::deque<Message>, kNodes> inbox_;
  std::vector<RaceHost> hosts_;
  std::vector<recovery::Manager> managers_;
  std::size_t started_ = 0;
};

/// Convergence contract checked after every explored schedule.
template <std::size_t kNodes>
void expect_converged(RaceCluster<kNodes>& cluster,
                      const std::vector<std::uint32_t>& dead) {
  std::uint32_t epoch = 0;
  int tokens = 0;
  bool first = true;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (cluster.is_victim(n)) continue;
    auto& manager = cluster.manager(n);
    EXPECT_FALSE(manager.halted()) << "node" << n;
    for (const std::uint32_t d : dead) {
      EXPECT_TRUE(manager.is_dead(NodeId{d}))
          << "node" << n << " missed node" << d << "'s death";
    }
    EXPECT_GT(manager.current_epoch(), 0u) << "node" << n;
    if (first) {
      epoch = manager.current_epoch();
      first = false;
    } else {
      EXPECT_EQ(manager.current_epoch(), epoch)
          << "node" << n << " disagrees on the epoch";
    }
    tokens += cluster.host(n).report_.has_token ? 1 : 0;
  }
  EXPECT_EQ(tokens, 1) << "the fenced epoch must mint exactly one token";
}

TEST(SchedRecovery, ConcurrentSuspicionsOfTheSameVictim) {
  // Both survivors suspect node1 simultaneously; suspicion gossip, report
  // collection and fence broadcast interleave freely. Every schedule must
  // end in one agreed campaign.
  sched_test::explore([] {
    RaceCluster<3> cluster({1});
    sched::Thread peer("peer", [&] { cluster.run_node(2, 1); });
    cluster.run_node(0, 1);
    peer.join();
    expect_converged(cluster, {1});
  });
}

TEST(SchedRecovery, LateHeartbeatFromTheDeadDoesNotResurrect) {
  // The victim's last heartbeat was in flight when it crashed. Wherever
  // its delivery lands relative to the suspicion and the campaign, node1
  // must stay dead and the recovery must complete.
  sched_test::explore([] {
    RaceCluster<3> cluster({1});
    cluster.preload(
        0, Message{NodeId{1}, NodeId{0}, LockId{0}, proto::Heartbeat{}});
    cluster.preload(
        2, Message{NodeId{1}, NodeId{2}, LockId{0}, proto::Heartbeat{}});
    sched::Thread peer("peer", [&] { cluster.run_node(2, 1); });
    cluster.run_node(0, 1);
    peer.join();
    expect_converged(cluster, {1});
  });
}

TEST(SchedRecovery, RacingCampaignsOverDifferentDeadSetsMerge) {
  // Four nodes, two dead: node0 first suspects node1 while node2 first
  // suspects node3, so two campaigns with DIFFERENT dead sets race until
  // the cross-gossip merges them into the {1,3} campaign. The epoch
  // formula guarantees the merged campaign outbids both partial ones.
  sched_test::explore([] {
    RaceCluster<4> cluster({1, 3});
    sched::Thread peer("peer", [&] { cluster.run_node(2, 3); });
    cluster.run_node(0, 1);
    peer.join();
    expect_converged(cluster, {1, 3});
  });
}

TEST(SchedRecovery, SurvivingHolderKeepsItsTokenThroughTheRace) {
  // Node0 holds the token and survives; whatever the interleaving, every
  // fence must re-root at node0 — a campaign must never move a live
  // token.
  sched_test::explore([] {
    RaceCluster<3> cluster({1});
    cluster.host(0).report_.has_token = true;
    cluster.host(0).report_.held = LockMode::kW;
    cluster.host(2).report_.waiting = true;
    cluster.host(2).report_.wait_mode = LockMode::kW;
    sched::Thread peer("peer", [&] { cluster.run_node(2, 1); });
    cluster.run_node(0, 1);
    peer.join();
    expect_converged(cluster, {1});
    EXPECT_TRUE(cluster.host(0).report_.has_token);
    EXPECT_FALSE(cluster.host(2).report_.has_token);
  });
}

}  // namespace
}  // namespace hlock
