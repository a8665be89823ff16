// End-to-end crash-recovery tests on the simulated cluster
// (docs/recovery.md): kill the token holder mid-hold and verify the
// survivors detect the death, mint a fenced epoch, regenerate the token
// and grant every surviving waiter — on both the hierarchical protocol
// and the Naimi baseline, with lint-clean traces.
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lint/checker.hpp"
#include "runtime/sim_cluster.hpp"
#include "trace/event.hpp"
#include "util/check.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;
using runtime::Protocol;
using runtime::SimCluster;
using runtime::SimClusterOptions;

SimClusterOptions recovery_options(Protocol protocol, std::size_t nodes) {
  SimClusterOptions options;
  options.node_count = nodes;
  options.protocol = protocol;
  options.seed = 42;
  options.recovery.enabled = true;
  options.recovery.heartbeat_interval = SimTime::ms(100);
  options.recovery.suspect_after = SimTime::ms(600);
  options.recovery_horizon = SimTime::ms(30'000);
  options.hier_config.trace_events = true;
  return options;
}

struct Grant {
  NodeId node;
  LockId lock;
  bool upgraded;
};

/// Runs the canonical crash scenario: node 1 takes the token and holds W,
/// node 2 waits, node 1 is killed. Returns the grants observed after the
/// kill.
std::vector<Grant> run_holder_crash(SimCluster& cluster) {
  std::vector<Grant> grants;
  cluster.set_grant_handler([&](NodeId node, LockId lock, bool upgraded) {
    grants.push_back({node, lock, upgraded});
  });

  const LockId lock{7};
  cluster.request(NodeId{1}, lock, LockMode::kW);
  cluster.simulator().run_until(SimTime::ms(2'000));
  EXPECT_TRUE(cluster.engine(NodeId{1}).holds(lock));

  cluster.request(NodeId{2}, lock, LockMode::kR);
  cluster.simulator().run_until(SimTime::ms(3'000));
  grants.clear();  // only post-kill grants matter below

  cluster.kill_at(NodeId{1}, SimTime::ms(3'100));
  cluster.simulator().run_to_completion();
  return grants;
}

TEST(RecoverySim, HierTokenHolderCrashRecovers) {
  SimCluster cluster(recovery_options(Protocol::kHierarchical, 3));
  const std::vector<Grant> grants = run_holder_crash(cluster);

  // The survivors ran exactly one campaign and agree on its epoch.
  EXPECT_TRUE(cluster.manager(NodeId{0}).is_dead(NodeId{1}));
  EXPECT_TRUE(cluster.manager(NodeId{2}).is_dead(NodeId{1}));
  const std::uint32_t epoch = cluster.manager(NodeId{0}).current_epoch();
  EXPECT_GT(epoch, 0u);
  EXPECT_EQ(cluster.manager(NodeId{2}).current_epoch(), epoch);
  EXPECT_FALSE(cluster.manager(NodeId{0}).halted());
  EXPECT_FALSE(cluster.manager(NodeId{2}).halted());

  // The waiting reader was granted after the fence.
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].node, NodeId{2});
  EXPECT_TRUE(cluster.engine(NodeId{2}).holds(LockId{7}));

  // Recovery latency samples were recorded on every survivor.
  EXPECT_EQ(cluster.manager(NodeId{0}).counters().recoveries, 1u);
  EXPECT_EQ(cluster.manager(NodeId{2}).counters().recoveries, 1u);
  EXPECT_FALSE(cluster.manager(NodeId{0}).recovery_durations_ms().empty());
}

TEST(RecoverySim, NaimiTokenHolderCrashRecovers) {
  SimCluster cluster(recovery_options(Protocol::kNaimi, 3));
  const std::vector<Grant> grants = run_holder_crash(cluster);

  EXPECT_GT(cluster.manager(NodeId{0}).current_epoch(), 0u);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].node, NodeId{2});
  EXPECT_TRUE(cluster.engine(NodeId{2}).holds(LockId{7}));
}

TEST(RecoverySim, HierRecoveryTraceIsLintClean) {
  SimCluster cluster(recovery_options(Protocol::kHierarchical, 4));
  std::vector<trace::TraceEvent> events;
  cluster.set_event_observer(
      [&](trace::TraceEvent event) { events.push_back(std::move(event)); });
  std::vector<Grant> grants;
  cluster.set_grant_handler([&](NodeId node, LockId lock, bool upgraded) {
    grants.push_back({node, lock, upgraded});
  });

  const LockId lock{1};
  cluster.request(NodeId{1}, lock, LockMode::kW);
  cluster.simulator().run_until(SimTime::ms(2'000));
  cluster.request(NodeId{2}, lock, LockMode::kR);
  cluster.request(NodeId{3}, lock, LockMode::kR);
  cluster.simulator().run_until(SimTime::ms(3'000));
  cluster.kill_at(NodeId{1}, SimTime::ms(3'050));
  cluster.simulator().run_to_completion();

  // Both surviving readers were eventually granted.
  std::set<std::uint32_t> granted;
  for (const Grant& grant : grants) granted.insert(grant.node.value());
  EXPECT_TRUE(granted.count(2));
  EXPECT_TRUE(granted.count(3));

  lint::LintOptions lint_options;
  lint_options.initial_token = NodeId{0};
  const lint::LintReport report = lint::check(events, lint_options);
  EXPECT_TRUE(report.ok()) << report.render();
}

TEST(RecoverySim, HierFreshLockFirstTouchedAfterRecoveryIsGranted) {
  // Regression: recovery_epoch() used to report 0 for locks with no
  // automaton yet, while lazily created automatons start in the
  // post-recovery epoch. The newer-epoch park gate then parked the very
  // first message of any lock first touched after a recovery — forever,
  // because the receiver is not halted and parked messages are only
  // replayed on unhalt.
  SimCluster cluster(recovery_options(Protocol::kHierarchical, 3));
  run_holder_crash(cluster);
  ASSERT_GT(cluster.manager(NodeId{0}).current_epoch(), 0u);

  std::vector<Grant> grants;
  cluster.set_grant_handler([&](NodeId node, LockId lock, bool upgraded) {
    grants.push_back({node, lock, upgraded});
  });
  // Node 2's request for a brand-new lock travels to the post-recovery
  // default root (node 0), which has never touched the lock either.
  const LockId fresh{99};
  cluster.request(NodeId{2}, fresh, LockMode::kW);
  cluster.simulator().run_to_completion();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].node, NodeId{2});
  EXPECT_TRUE(cluster.engine(NodeId{2}).holds(fresh));
}

TEST(RecoverySim, NaimiFreshLockFirstTouchedAfterRecoveryIsGranted) {
  // Same regression on the Naimi baseline (NaimiEngine::recovery_epoch had
  // the identical automaton-miss bug).
  SimCluster cluster(recovery_options(Protocol::kNaimi, 3));
  run_holder_crash(cluster);
  ASSERT_GT(cluster.manager(NodeId{0}).current_epoch(), 0u);

  std::vector<Grant> grants;
  cluster.set_grant_handler([&](NodeId node, LockId lock, bool upgraded) {
    grants.push_back({node, lock, upgraded});
  });
  const LockId fresh{99};
  cluster.request(NodeId{2}, fresh, LockMode::kW);
  cluster.simulator().run_to_completion();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].node, NodeId{2});
  EXPECT_TRUE(cluster.engine(NodeId{2}).holds(fresh));
}

/// Node 1, every lock's initial root, holds locks 3 and 5 in W when node 2
/// dies. Node 0 coordinates the campaign and has touched neither lock, so
/// both fences create its automatons. Then node 0 asks for lock 5.
void run_untouched_locks_fenced_at_coordinator(Protocol protocol) {
  SimClusterOptions options = recovery_options(protocol, 4);
  options.initial_root = NodeId{1};
  SimCluster cluster(options);
  std::vector<Grant> grants;
  cluster.set_grant_handler([&](NodeId node, LockId lock, bool upgraded) {
    grants.push_back({node, lock, upgraded});
  });
  const LockId first{3};
  const LockId second{5};
  cluster.request(NodeId{1}, first, LockMode::kW);
  cluster.request(NodeId{1}, second, LockMode::kW);
  cluster.kill_at(NodeId{2}, SimTime::ms(1'000));
  cluster.simulator().run_until(SimTime::ms(5'000));
  ASSERT_GT(cluster.manager(NodeId{0}).current_epoch(), 0u);
  ASSERT_FALSE(cluster.manager(NodeId{0}).halted());
  ASSERT_TRUE(cluster.engine(NodeId{1}).holds(second));

  grants.clear();
  cluster.request(NodeId{0}, second, LockMode::kW);
  cluster.simulator().run_until(SimTime::ms(8'000));
  // Node 1 still holds W: node 0 must wait, not mint itself a token.
  EXPECT_TRUE(grants.empty());
  EXPECT_FALSE(cluster.engine(NodeId{0}).holds(second));

  cluster.release(NodeId{1}, second);
  cluster.simulator().run_to_completion();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].node, NodeId{0});
  EXPECT_TRUE(cluster.engine(NodeId{0}).holds(second));
}

TEST(RecoverySim, HierUntouchedLocksFollowTheirFenceNotTheCoordinator) {
  // Regression: each fence used to rebase the default origin at once, so
  // a lock the node never touched, fenced after another lock of the same
  // campaign, was created already in the fence epoch rooted at the
  // coordinator. Its own fence was then a no-op, and the coordinator held
  // a second token beside the surviving holder's.
  run_untouched_locks_fenced_at_coordinator(Protocol::kHierarchical);
}

TEST(RecoverySim, NaimiUntouchedLocksFollowTheirFenceNotTheCoordinator) {
  run_untouched_locks_fenced_at_coordinator(Protocol::kNaimi);
}

TEST(RecoverySim, StaleMessagesAreDroppedAndCounted) {
  // Despite its name, this checks only agreement: killing the holder of a
  // contended lock right after its release leaves its token handoff in
  // flight, and the survivors must still converge on one epoch and all
  // unhalt. Its schedule leaves no old-epoch message to drop;
  // {Hier,Naimi}ContendedCrashCountsStaleDrops below pin the drop counter.
  SimCluster cluster(recovery_options(Protocol::kHierarchical, 4));
  std::vector<Grant> grants;
  cluster.set_grant_handler([&](NodeId node, LockId lock, bool upgraded) {
    grants.push_back({node, lock, upgraded});
  });
  const LockId lock{3};
  cluster.request(NodeId{1}, lock, LockMode::kW);
  cluster.simulator().run_until(SimTime::ms(2'000));
  cluster.request(NodeId{2}, lock, LockMode::kW);
  cluster.request(NodeId{3}, lock, LockMode::kW);
  // Kill while the release/token traffic for the waiters is in flight.
  cluster.release(NodeId{1}, lock);
  cluster.kill_at(NodeId{1}, SimTime::ms(2'001));
  cluster.simulator().run_to_completion();

  // Everyone alive agreed on one epoch and nobody is halted.
  const std::uint32_t epoch = cluster.manager(NodeId{0}).current_epoch();
  EXPECT_GT(epoch, 0u);
  for (std::uint32_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(cluster.manager(NodeId{i}).current_epoch(), epoch);
    EXPECT_FALSE(cluster.manager(NodeId{i}).halted());
  }
}

/// Survivors 0, 2 and 3 contend for W on one lock (each takes it
/// kContendedOps times, holding 20 ms and pausing 10 ms between ops) while
/// node 1, which never touches the lock, is killed at 1 s. The campaign
/// halts the survivors with their handoff traffic in flight; replayed
/// after the fence, that traffic carries the old epoch and is dropped.
void run_contended_crash(SimCluster& cluster,
                         std::vector<trace::TraceEvent>& events) {
  constexpr int kContendedOps = 6;
  const LockId lock{5};
  cluster.set_event_observer(
      [&](trace::TraceEvent event) { events.push_back(std::move(event)); });
  std::vector<int> done(cluster.node_count(), 0);
  cluster.set_grant_handler([&](NodeId node, LockId, bool) {
    cluster.simulator().schedule_in(SimTime::ms(20), [&, node] {
      cluster.release(node, lock);
      if (++done[node.value()] == kContendedOps) return;
      cluster.simulator().schedule_in(SimTime::ms(10), [&, node] {
        cluster.request(node, lock, LockMode::kW);
      });
    });
  });
  for (std::uint32_t i : {0u, 2u, 3u}) {
    cluster.request(NodeId{i}, lock, LockMode::kW);
  }
  cluster.kill_at(NodeId{1}, SimTime::ms(1'000));
  cluster.simulator().run_to_completion();
  for (std::uint32_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(done[i], kContendedOps) << "node" << i << " did not finish";
  }
}

void expect_contended_crash_drops_stale(Protocol protocol) {
  SimCluster cluster(recovery_options(protocol, 4));
  std::vector<trace::TraceEvent> events;
  run_contended_crash(cluster, events);

  EXPECT_GT(cluster.total_stale_drops(), 0u);
  EXPECT_EQ(cluster.stale_drops(NodeId{1}), 0u);  // dead before any fence
  const std::uint32_t epoch = cluster.manager(NodeId{0}).current_epoch();
  EXPECT_GT(epoch, 0u);
  for (std::uint32_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(cluster.manager(NodeId{i}).current_epoch(), epoch);
    EXPECT_FALSE(cluster.manager(NodeId{i}).halted());
  }
  if (protocol == Protocol::kHierarchical) {
    lint::LintOptions lint_options;
    lint_options.initial_token = NodeId{0};
    const lint::LintReport report = lint::check(events, lint_options);
    EXPECT_TRUE(report.ok()) << report.render();
  }
}

TEST(RecoverySim, HierContendedCrashCountsStaleDrops) {
  expect_contended_crash_drops_stale(Protocol::kHierarchical);
}

TEST(RecoverySim, NaimiContendedCrashCountsStaleDrops) {
  expect_contended_crash_drops_stale(Protocol::kNaimi);
}

TEST(RecoverySim, KillRequiresRecoveryEnabled) {
  SimClusterOptions options;
  options.node_count = 2;
  SimCluster cluster(options);
  EXPECT_THROW(cluster.kill_at(NodeId{1}, SimTime::ms(1)),
               UsageError);
}

TEST(RecoverySim, RaymondRejectsRecovery) {
  SimClusterOptions options = recovery_options(Protocol::kRaymond, 3);
  EXPECT_THROW(SimCluster cluster(options), UsageError);
}

}  // namespace
}  // namespace hlock
