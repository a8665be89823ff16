// Crash-stop recovery on the threaded runtime (docs/recovery.md): kill the
// token holder with crash_stop(), verify the survivors' heartbeat detector
// notices, a fenced epoch is minted and a blocked waiter on a survivor is
// granted. Real threads and real time — the detector timings are kept
// generous so loaded CI machines do not false-suspect live nodes.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/thread_cluster.hpp"
#include "telemetry/registry.hpp"
#include "util/check.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;
using runtime::Protocol;
using runtime::ThreadCluster;
using runtime::ThreadClusterOptions;

ThreadClusterOptions recovery_options(Protocol protocol) {
  ThreadClusterOptions options;
  options.node_count = 3;
  options.protocol = protocol;
  options.recovery.enabled = true;
  options.recovery.heartbeat_interval = SimTime::ms(50);
  options.recovery.suspect_after = SimTime::ms(1000);
  return options;
}

TEST(RecoveryThread, HierCrashedHolderIsFencedOut) {
  telemetry::Registry registry;
  ThreadClusterOptions options = recovery_options(Protocol::kHierarchical);
  options.metrics = &registry;
  ThreadCluster cluster(options);

  const LockId lock{5};
  cluster.lock(NodeId{1}, lock, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{1}, lock));
  cluster.crash_stop(NodeId{1});
  EXPECT_FALSE(cluster.alive(NodeId{1}));

  // Blocks across the outage: queued toward the dead holder, reconstructed
  // by the fence, granted at the regenerated root.
  cluster.lock(NodeId{2}, lock, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{2}, lock));
  cluster.unlock(NodeId{2}, lock);

  EXPECT_GT(cluster.recovery_epoch_of(NodeId{0}), 0u);
  EXPECT_EQ(cluster.recovery_epoch_of(NodeId{2}),
            cluster.recovery_epoch_of(NodeId{0}));
  EXPECT_GE(cluster.recovery_counters(NodeId{0}).recoveries, 1u);
  EXPECT_GE(cluster.recovery_counters(NodeId{2}).recoveries, 1u);

  // The telemetry series moved with the recovery.
  EXPECT_GT(registry.gauge("hlock_epoch{node=\"0\"}").value(), 0.0);
}

TEST(RecoveryThread, NaimiCrashedHolderIsFencedOut) {
  ThreadCluster cluster(recovery_options(Protocol::kNaimi));
  const LockId lock{9};
  cluster.lock(NodeId{1}, lock, LockMode::kW);
  cluster.crash_stop(NodeId{1});
  cluster.lock(NodeId{2}, lock, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{2}, lock));
  cluster.unlock(NodeId{2}, lock);
  EXPECT_GT(cluster.recovery_epoch_of(NodeId{2}), 0u);
}

TEST(RecoveryThread, OperationsOnCrashedNodeThrow) {
  ThreadCluster cluster(recovery_options(Protocol::kHierarchical));
  cluster.crash_stop(NodeId{1});
  EXPECT_THROW(cluster.lock(NodeId{1}, LockId{1}, LockMode::kR), UsageError);
  EXPECT_THROW(cluster.unlock(NodeId{1}, LockId{1}), UsageError);
}

TEST(RecoveryThread, CrashStopRequiresRecovery) {
  ThreadClusterOptions options;
  options.node_count = 2;
  ThreadCluster cluster(options);
  EXPECT_THROW(cluster.crash_stop(NodeId{1}), UsageError);
}

TEST(RecoveryThread, RecoveryForcesSingleShard) {
  ThreadClusterOptions options = recovery_options(Protocol::kHierarchical);
  options.engine_shards = 4;
  EXPECT_THROW(ThreadCluster cluster(options), UsageError);
  options.engine_shards = 0;
  ThreadCluster cluster(options);
  EXPECT_EQ(cluster.engine_shards(), 1u);
}

/// Regression twin of RecoverySim.*FreshLockFirstTouchedAfterRecovery*:
/// after a recovery, a lock nobody has touched yet must still be grantable.
/// An engine that reported epoch 0 for untouched locks made the default
/// root park the first post-recovery request for such a lock forever.
void expect_fresh_lock_granted_after_recovery(Protocol protocol) {
  using Clock = std::chrono::steady_clock;
  auto cluster = std::make_unique<ThreadCluster>(recovery_options(protocol));
  cluster->lock(NodeId{1}, LockId{5}, LockMode::kW);
  cluster->crash_stop(NodeId{1});

  // Wait until both survivors completed the campaign.
  const auto recovered_by = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < recovered_by &&
         (cluster->recovery_counters(NodeId{0}).recoveries == 0 ||
          cluster->recovery_counters(NodeId{2}).recoveries == 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(cluster->recovery_counters(NodeId{0}).recoveries, 1u);
  ASSERT_GE(cluster->recovery_counters(NodeId{2}).recoveries, 1u);

  // Node 2's request for a brand-new lock travels to the post-recovery
  // default root, which has never touched the lock either.
  const LockId fresh{99};
  std::atomic<bool> granted{false};
  std::thread client([&] {
    cluster->lock(NodeId{2}, fresh, LockMode::kW);
    granted.store(true);
  });
  const auto granted_by = Clock::now() + std::chrono::seconds(10);
  while (!granted.load() && Clock::now() < granted_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(granted.load()) << "lock() on a fresh lock wedged";
  if (granted.load()) {
    EXPECT_TRUE(cluster->holds(NodeId{2}, fresh));
    cluster->unlock(NodeId{2}, fresh);
  } else {
    cluster.reset();  // teardown wakes the blocked call
  }
  client.join();
}

TEST(RecoveryThread, HierFreshLockFirstTouchedAfterRecoveryIsGranted) {
  expect_fresh_lock_granted_after_recovery(Protocol::kHierarchical);
}

TEST(RecoveryThread, NaimiFreshLockFirstTouchedAfterRecoveryIsGranted) {
  expect_fresh_lock_granted_after_recovery(Protocol::kNaimi);
}

}  // namespace
}  // namespace hlock
