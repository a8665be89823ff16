// Integration tests of the threaded runtime: real threads, real message
// races, blocking client API. Mutual exclusion is validated the classic
// way — a shared plain counter that only stays consistent if the protocol
// serializes writers.
#include "runtime/thread_cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"
#include "trace/event.hpp"
#include "util/check.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

ThreadClusterOptions options_for(Protocol protocol, std::size_t n) {
  ThreadClusterOptions options;
  options.node_count = n;
  options.protocol = protocol;
  options.seed = 42;
  return options;
}

TEST(ThreadCluster, DestructorWakesAndDrainsBlockedClients) {
  // Regression: teardown used to flip the stop flag without the node
  // mutexes and notify only after joining, so a client between its
  // predicate check and its wait could sleep forever — and a woken client
  // could race the destructor freeing node state.
  for (int round = 0; round < 10; ++round) {
    auto cluster = std::make_unique<ThreadCluster>(
        options_for(Protocol::kHierarchical, 2));
    cluster->lock(NodeId{0}, LockId{0}, LockMode::kW);
    std::atomic<bool> entered{false};
    // Raw pointer: the client must not touch the unique_ptr itself, which
    // the main thread concurrently reset()s.
    ThreadCluster* raw = cluster.get();
    std::thread blocked([&entered, raw] {
      entered = true;
      // Blocks forever: node 0 never releases. Only teardown can wake it.
      raw->lock(NodeId{1}, LockId{0}, LockMode::kW);
    });
    while (!entered) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cluster.reset();  // must wake the blocked client, then drain it
    blocked.join();
  }
}

TEST(ThreadCluster, SingleNodeLockUnlock) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 1)};
  cluster.lock(NodeId{0}, LockId{0}, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{0}, LockId{0}));
  cluster.unlock(NodeId{0}, LockId{0});
  EXPECT_FALSE(cluster.holds(NodeId{0}, LockId{0}));
  EXPECT_EQ(cluster.messages_sent(), 0u);
}

TEST(ThreadCluster, ExclusiveCounterUnderContention) {
  constexpr std::size_t kNodes = 6;
  constexpr int kIncrementsPerNode = 40;
  ThreadCluster cluster{options_for(Protocol::kHierarchical, kNodes)};
  const LockId lock{0};

  // Deliberately NOT atomic: the lock must provide the exclusion.
  long counter = 0;

  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counter, i, lock] {
      for (int k = 0; k < kIncrementsPerNode; ++k) {
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, static_cast<long>(kNodes) * kIncrementsPerNode);
}

TEST(ThreadCluster, EventSinkInstalledAndSwappedDuringTraffic) {
  // Regression: set_event_sink() used to write the sink slot unguarded
  // while receiver threads read it inside apply(), so installing or
  // swapping a sink with operations in flight was a data race (TSan) and a
  // capability-analysis error once the slot was annotated. Now the slot is
  // guarded by the same mutex that serializes sink calls, making mid-run
  // installs legal — which this test does continuously.
  constexpr std::size_t kNodes = 4;
  constexpr int kOpsPerNode = 30;
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, kNodes);
  options.hier_config.trace_events = true;
  ThreadCluster cluster{options};
  const LockId lock{0};

  std::atomic<std::uint64_t> sunk{0};
  std::atomic<bool> done{false};
  std::thread installer([&cluster, &sunk, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      cluster.set_event_sink(
          [&sunk](const trace::TraceEvent&) { sunk.fetch_add(1); });
      std::this_thread::yield();
      cluster.set_event_sink(nullptr);  // and uninstall mid-traffic too
      std::this_thread::yield();
    }
    // Leave a sink installed for the tail of the run.
    cluster.set_event_sink(
        [&sunk](const trace::TraceEvent&) { sunk.fetch_add(1); });
  });

  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, i, lock] {
      for (int k = 0; k < kOpsPerNode; ++k) {
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  done = true;
  installer.join();

  // How many events land is a race by design; that nothing tore or leaked
  // is the assertion (TSan/ASan enforce it), plus basic liveness:
  EXPECT_EQ(cluster.receiver_errors(), 0u);
}

TEST(ThreadCluster, ReadersOverlapWritersExclude) {
  constexpr std::size_t kNodes = 5;
  ThreadCluster cluster{options_for(Protocol::kHierarchical, kNodes)};
  const LockId lock{0};

  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&, i] {
      for (int k = 0; k < 30; ++k) {
        const bool writer = (k % 10) == static_cast<int>(i % 10);
        const LockMode mode = writer ? LockMode::kW : LockMode::kR;
        cluster.lock(NodeId{i}, lock, mode);
        if (writer) {
          if (readers_inside.load() != 0 ||
              writers_inside.fetch_add(1) != 0) {
            violation = true;
          }
          std::this_thread::yield();
          writers_inside.fetch_sub(1);
        } else {
          if (writers_inside.load() != 0) violation = true;
          const int now = readers_inside.fetch_add(1) + 1;
          int expected = max_readers.load();
          while (now > expected &&
                 !max_readers.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::yield();
          readers_inside.fetch_sub(1);
        }
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(violation.load()) << "readers and writers overlapped";
  EXPECT_GT(max_readers.load(), 1) << "readers never actually overlapped";
}

TEST(ThreadCluster, UpgradePreservesReadToWriteAtomicity) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 3)};
  const LockId lock{0};
  long value = 100;

  // Node 1 performs a read-modify-write under U->W; node 2 tries to write
  // in between — it must not interleave.
  std::thread upgrader([&] {
    cluster.lock(NodeId{1}, lock, LockMode::kU);
    const long read = value;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cluster.upgrade(NodeId{1}, lock);
    value = read + 1;
    cluster.unlock(NodeId{1}, lock);
  });
  std::thread writer([&] {
    cluster.lock(NodeId{2}, lock, LockMode::kW);
    value += 1000;
    cluster.unlock(NodeId{2}, lock);
  });
  upgrader.join();
  writer.join();
  EXPECT_EQ(value, 1101) << "the upgrade lost an update";
}

TEST(ThreadCluster, NaimiCounterUnderContention) {
  constexpr std::size_t kNodes = 4;
  ThreadCluster cluster{options_for(Protocol::kNaimi, kNodes)};
  const LockId lock{0};
  long counter = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counter, i, lock] {
      for (int k = 0; k < 50; ++k) {
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, static_cast<long>(kNodes) * 50);
}

TEST(ThreadCluster, ManyLocksInParallel) {
  constexpr std::size_t kNodes = 4;
  ThreadCluster cluster{options_for(Protocol::kHierarchical, kNodes)};
  std::vector<std::thread> workers;
  std::vector<long> counters(8, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counters, i] {
      for (int k = 0; k < 40; ++k) {
        const LockId lock{(static_cast<std::uint32_t>(k) + i) % 8};
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        ++counters[lock.value()];
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  long total = 0;
  for (long c : counters) total += c;
  EXPECT_EQ(total, static_cast<long>(kNodes) * 40);
}

TEST(ThreadCluster, DefaultsToShardedEnginesAndHonorsOverrides) {
  ThreadCluster defaulted{options_for(Protocol::kHierarchical, 2)};
  EXPECT_EQ(defaulted.engine_shards(), kDefaultEngineShards);

  ThreadClusterOptions legacy = options_for(Protocol::kHierarchical, 2);
  legacy.engine_shards = 1;
  EXPECT_EQ(ThreadCluster{legacy}.engine_shards(), 1u);

  ThreadClusterOptions wide = options_for(Protocol::kHierarchical, 2);
  wide.engine_shards = 3;
  EXPECT_EQ(ThreadCluster{wide}.engine_shards(), 3u);
}

/// Shard-correctness workload: many locks striped across shards, every
/// counter protected only by its lock. Run for each shard count so the
/// single-shard legacy path and the sharded path prove the same exclusion.
void run_sharded_counters(std::size_t engine_shards, bool batching) {
  constexpr std::size_t kNodes = 4;
  constexpr int kOpsPerNode = 25;
  constexpr std::uint32_t kLocks = 16;  // spans shard indices 0..7 twice
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, kNodes);
  options.engine_shards = engine_shards;
  options.batching = batching;
  ThreadCluster cluster{options};

  std::vector<long> counters(kLocks, 0);  // each guarded by its lock alone
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counters, i] {
      for (int k = 0; k < kOpsPerNode; ++k) {
        const LockId lock{(static_cast<std::uint32_t>(k) * 5 + i) % kLocks};
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        const long snapshot = counters[lock.value()];
        std::this_thread::yield();
        counters[lock.value()] = snapshot + 1;
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  long total = 0;
  for (long c : counters) total += c;
  EXPECT_EQ(total, static_cast<long>(kNodes) * kOpsPerNode)
      << "lost increments with engine_shards=" << engine_shards
      << " batching=" << batching;
  EXPECT_EQ(cluster.receiver_errors(), 0u);
}

TEST(ThreadCluster, ShardedEnginesPreserveExclusionAcrossManyLocks) {
  run_sharded_counters(/*engine_shards=*/8, /*batching=*/true);
}

TEST(ThreadCluster, SingleShardLegacyModeStillCorrect) {
  run_sharded_counters(/*engine_shards=*/1, /*batching=*/true);
}

TEST(ThreadCluster, BatchingOffStillCorrect) {
  run_sharded_counters(/*engine_shards=*/8, /*batching=*/false);
}

TEST(ThreadCluster, OddShardCountStillRoutesEveryLock) {
  // 16 locks modulo 5 shards exercises uneven routing (shards 0 holds 4
  // locks, the rest 3) including wraparound.
  run_sharded_counters(/*engine_shards=*/5, /*batching=*/true);
}

TEST(ThreadCluster, CountsEncodedWireBytes) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 2)};
  cluster.lock(NodeId{1}, LockId{0}, LockMode::kW);
  cluster.unlock(NodeId{1}, LockId{0});
  EXPECT_GT(cluster.messages_sent(), 0u);
  // Every message is >= the 34-byte codec minimum once encoded.
  EXPECT_GE(cluster.bytes_sent(), cluster.messages_sent() * 34u);

  ThreadClusterOptions raw = options_for(Protocol::kHierarchical, 2);
  raw.codec_roundtrip = false;  // nothing encodes, so nothing counts
  ThreadCluster raw_cluster{raw};
  raw_cluster.lock(NodeId{1}, LockId{0}, LockMode::kW);
  raw_cluster.unlock(NodeId{1}, LockId{0});
  EXPECT_EQ(raw_cluster.bytes_sent(), 0u);
}

TEST(ThreadCluster, WithInjectedLatency) {
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, 3);
  options.message_latency = DurationDist::uniform(SimTime::us(200), 0.5);
  ThreadCluster cluster{options};
  long counter = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < 3; ++i) {
    workers.emplace_back([&cluster, &counter, i] {
      for (int k = 0; k < 10; ++k) {
        cluster.lock(NodeId{i}, LockId{0}, LockMode::kW);
        counter += 1;
        cluster.unlock(NodeId{i}, LockId{0});
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, 30);
}

// ---- Run-to-completion delivery over InProc (docs/transports.md) ----

constexpr LockId kHeld{2};    // node 1 holds it; a client of node 0 waits
constexpr LockId kRemote{1};  // token idle at node 0 (the initial root)

std::uint64_t inline_batches(telemetry::Registry& registry,
                             std::uint32_t node) {
  return registry
      .counter(telemetry::labeled("hlock_inline_batches_total",
                                  {{"node", std::to_string(node)}}))
      .value();
}

/// Batches a node's receiver thread dispatched (the batch-size histogram
/// records receiver and inline batches alike).
std::uint64_t receiver_batches(telemetry::Registry& registry,
                               std::uint32_t node) {
  const std::uint64_t all =
      registry
          .histogram(telemetry::labeled("hlock_recv_batch_size",
                                        {{"node", std::to_string(node)}}),
                     {})
          .count();
  return all - inline_batches(registry, node);
}

/// Node 1 takes kHeld, then a client of node 0 blocks requesting it; returns
/// once node 1 has queued that request and both receivers are parked, with
/// nothing left in flight. Node 0
/// then has a waiting client, so requests (for other locks), grants and
/// tokens sent toward it are delivered inline. The returned thread leaves
/// its lock() call when kHeld is handed over or the cluster tears down.
std::thread block_node0_on_held_lock(ThreadCluster& cluster,
                                     telemetry::Registry& registry) {
  cluster.lock(NodeId{1}, kHeld, LockMode::kW);
  std::thread waiter(
      [&cluster] { cluster.lock(NodeId{0}, kHeld, LockMode::kW); });
  telemetry::Gauge& queued = registry.gauge(telemetry::labeled(
      "hlock_engine_queue_depth",
      {{"node", "1"},
       {"shard", std::to_string(kHeld.value() % cluster.engine_shards())}}));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (queued.value() < 1.0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_GE(queued.value(), 1.0) << "node 0's request never reached node 1";
  // The gauge moves inside node 1's receiver dispatch; that receiver keeps
  // its mailbox's claim until it is back in recv_ready(). Let both
  // receivers return and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  return waiter;
}

TEST(ThreadClusterInline, RemoteAcquireToAWaitingNodeWakesNoReceiver) {
  telemetry::Registry registry;
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, 2);
  options.metrics = &registry;
  ThreadCluster cluster{options};
  std::thread waiter = block_node0_on_held_lock(cluster, registry);

  const std::uint64_t receiver0 = receiver_batches(registry, 0);
  const std::uint64_t receiver1 = receiver_batches(registry, 1);
  const std::uint64_t inline0 = inline_batches(registry, 0);
  const std::uint64_t inline1 = inline_batches(registry, 1);
  // Request 1 -> 0 and token 0 -> 1 both run on this thread: neither
  // receiver wakes. Deterministic — nothing else is in flight.
  cluster.lock(NodeId{1}, kRemote, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{1}, kRemote));
  cluster.unlock(NodeId{1}, kRemote);  // token now local: no message
  EXPECT_EQ(receiver_batches(registry, 0), receiver0);
  EXPECT_EQ(receiver_batches(registry, 1), receiver1);
  EXPECT_EQ(inline_batches(registry, 0), inline0 + 1);
  EXPECT_EQ(inline_batches(registry, 1), inline1 + 1);

  // Handing kHeld to the waiting node 0 is delivered inline by unlock().
  cluster.unlock(NodeId{1}, kHeld);
  waiter.join();
  EXPECT_TRUE(cluster.holds(NodeId{0}, kHeld));
  EXPECT_EQ(receiver_batches(registry, 0), receiver0);
  cluster.unlock(NodeId{0}, kHeld);
}

TEST(ThreadClusterInline, TcpNeverDeliversInline) {
  telemetry::Registry registry;
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, 2);
  options.transport = TransportKind::kTcp;
  options.metrics = &registry;
  ThreadCluster cluster{options};
  std::thread waiter = block_node0_on_held_lock(cluster, registry);
  cluster.lock(NodeId{1}, kRemote, LockMode::kW);
  cluster.unlock(NodeId{1}, kRemote);
  cluster.unlock(NodeId{1}, kHeld);
  waiter.join();
  cluster.unlock(NodeId{0}, kHeld);
  EXPECT_EQ(inline_batches(registry, 0) + inline_batches(registry, 1), 0u);
}

TEST(ThreadClusterInline, CrashStopDiscardsMessagesAHelperClaimed) {
  // Node 1's client claims node 0's mailbox (node 0 has a waiting client)
  // while node 0 crash-stops. An inline drain dispatches through the same
  // crash-stop check as the receiver, so once crash_stop() has returned,
  // node 0 takes no protocol step, whichever thread drains its mailbox.
  // SchedExploration.CrashStopRacesInlineDrain walks the interleavings.
  for (int round = 0; round < 4; ++round) {
    telemetry::Registry registry;
    ThreadClusterOptions options = options_for(Protocol::kHierarchical, 2);
    options.metrics = &registry;
    options.hier_config.trace_events = true;
    options.recovery.enabled = true;
    options.recovery.heartbeat_interval = SimTime::ms(10);
    options.recovery.suspect_after = SimTime::ms(200);
    ThreadCluster cluster{options};
    std::atomic<bool> crashed{false};
    std::atomic<int> steps_after_crash{0};
    cluster.set_event_sink([&crashed, &steps_after_crash](
                               trace::TraceEvent event) {
      if (crashed.load() && event.node == NodeId{0}) ++steps_after_crash;
    });
    std::thread waiter = block_node0_on_held_lock(cluster, registry);
    std::thread helper([&cluster] {
      // Granted normally, or by the regenerated token after recovery.
      cluster.lock(NodeId{1}, kRemote, LockMode::kW);
      cluster.unlock(NodeId{1}, kRemote);
    });
    if (round % 2 == 1) std::this_thread::yield();
    cluster.crash_stop(NodeId{0});
    crashed = true;
    helper.join();
    waiter.join();  // woken by the crash
    EXPECT_EQ(steps_after_crash.load(), 0) << "round " << round;
    EXPECT_EQ(cluster.receiver_errors(), 0u);
  }
}

TEST(ThreadClusterInline, DestructionWhileAClientIsBetweenRequestStepAndWait) {
  // The helper's request step claims node 0's mailbox; during the inline
  // drain, node 0's step blocks in the event sink until the destructor has
  // started. The destructor must still wait for the helper, which is past
  // its request step but not yet in its wait.
  telemetry::Registry registry;
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, 2);
  options.metrics = &registry;
  options.hier_config.trace_events = true;
  auto cluster = std::make_unique<ThreadCluster>(options);
  ThreadCluster* raw = cluster.get();
  std::atomic<bool> armed{false};
  std::atomic<bool> in_drain{false};
  std::atomic<bool> release{false};
  raw->set_event_sink([&](trace::TraceEvent event) {
    if (armed.load() && event.node == NodeId{0} && event.lock == kRemote) {
      in_drain = true;
      while (!release.load()) std::this_thread::yield();
    }
  });
  std::thread waiter = block_node0_on_held_lock(*raw, registry);
  armed = true;
  std::thread helper(
      [raw] { raw->lock(NodeId{1}, kRemote, LockMode::kW); });
  while (!in_drain.load()) std::this_thread::yield();
  std::thread destroyer([&cluster] { cluster.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release = true;
  destroyer.join();  // returns only after the helper has left lock()
  helper.join();
  waiter.join();
}

}  // namespace
}  // namespace hlock::runtime
