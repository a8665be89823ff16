// Detailed workload-driver behaviors: per-kind accounting, latency metric
// relationships, observer integration and upgrade timing.
#include <gtest/gtest.h>

#include <utility>

#include "runtime/sim_cluster.hpp"
#include "trace/recorder.hpp"
#include "workload/sim_driver.hpp"

namespace hlock::workload {
namespace {

using runtime::Protocol;
using runtime::SimCluster;
using runtime::SimClusterOptions;

SimClusterOptions small_cluster(std::size_t nodes, std::uint64_t seed) {
  SimClusterOptions options;
  options.node_count = nodes;
  options.protocol = Protocol::kHierarchical;
  options.message_latency = DurationDist::uniform(SimTime::us(500), 0.5);
  options.seed = seed;
  return options;
}

WorkloadSpec small_spec(std::size_t nodes, int ops, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.variant = AppVariant::kHierarchical;
  spec.node_count = nodes;
  spec.ops_per_node = ops;
  spec.cs_length = DurationDist::uniform(SimTime::ms(1), 0.5);
  spec.idle_time = DurationDist::uniform(SimTime::ms(3), 0.5);
  spec.seed = seed;
  return spec;
}

TEST(DriverDetail, PerKindCountsMatchLatencyRecorders) {
  SimCluster cluster{small_cluster(8, 3)};
  SimWorkloadDriver driver{cluster, small_spec(8, 60, 3)};
  driver.run();
  const DriverStats& stats = driver.stats();
  for (std::size_t kind = 0; kind < 5; ++kind) {
    EXPECT_EQ(stats.ops_by_kind[kind],
              stats.latency_by_kind[kind].count())
        << "kind " << kind;
  }
}

TEST(DriverDetail, AcquisitionCountMatchesPlanArithmetic) {
  SimCluster cluster{small_cluster(6, 5)};
  SimWorkloadDriver driver{cluster, small_spec(6, 80, 5)};
  driver.run();
  const DriverStats& stats = driver.stats();
  // Hierarchical plans: entry ops (IR/U/IW draws) take 2 locks, table ops
  // (R/W draws) take 1.
  const std::uint64_t entry_ops =
      stats.ops_by_kind[static_cast<std::size_t>(OpKind::kEntryRead)] +
      stats.ops_by_kind[static_cast<std::size_t>(OpKind::kEntryUpgrade)] +
      stats.ops_by_kind[static_cast<std::size_t>(OpKind::kEntryWrite)];
  const std::uint64_t table_ops =
      stats.ops_by_kind[static_cast<std::size_t>(OpKind::kTableRead)] +
      stats.ops_by_kind[static_cast<std::size_t>(OpKind::kTableWrite)];
  EXPECT_EQ(stats.acquisitions, entry_ops * 2 + table_ops);
  EXPECT_EQ(stats.acq_latency.count(), stats.acquisitions);
}

TEST(DriverDetail, OpLatencyDominatesItsAcquisitions) {
  // Operation latency (first request -> all held) is at least the mean
  // per-acquisition latency; with two sequential acquisitions per entry op
  // the aggregate mean must be strictly larger.
  SimCluster cluster{small_cluster(10, 7)};
  SimWorkloadDriver driver{cluster, small_spec(10, 60, 7)};
  driver.run();
  const double op_mean = driver.stats().op_latency.summarize().mean;
  const double acq_mean = driver.stats().acq_latency.summarize().mean;
  EXPECT_GT(op_mean, acq_mean);
}

TEST(DriverDetail, UpgradeLatencyIsRecordedPerUpgradeOp) {
  WorkloadSpec spec = small_spec(6, 60, 9);
  spec.mix = ModeMix{0.0, 0.0, 1.0, 0.0, 0.0};  // every op upgrades
  SimCluster cluster{small_cluster(6, 9)};
  SimWorkloadDriver driver{cluster, spec};
  driver.run();
  EXPECT_EQ(driver.stats().upgrade_latency.count(), 6u * 60u);
  EXPECT_EQ(driver.stats()
                .ops_by_kind[static_cast<std::size_t>(OpKind::kEntryUpgrade)],
            6u * 60u);
}

TEST(DriverDetail, MessageObserverSeesEveryCountedMessage) {
  SimCluster cluster{small_cluster(6, 11)};
  std::uint64_t observed = 0;
  cluster.set_message_observer(
      [&observed](SimTime, const proto::Message&) { ++observed; });
  SimWorkloadDriver driver{cluster, small_spec(6, 40, 11)};
  driver.run();
  EXPECT_EQ(observed, cluster.metrics().messages().total());
  EXPECT_GT(observed, 0u);
}

TEST(DriverDetail, TraceRecorderSurvivesAWholeRun) {
  SimCluster cluster{small_cluster(6, 13)};
  trace::TraceRecorder recorder{512};  // force ring-buffer wrap
  cluster.set_message_observer(
      [&recorder](SimTime at, const proto::Message& message) {
        recorder.record_message(at, message);
      });
  SimWorkloadDriver driver{cluster, small_spec(6, 60, 13)};
  driver.run();
  EXPECT_TRUE(recorder.truncated());
  EXPECT_EQ(recorder.events().size(), 512u);
  EXPECT_EQ(recorder.total_recorded(),
            cluster.metrics().messages().total());
}

TEST(DriverDetail, EntryLocalityReducesEntryLockTraffic) {
  // With full locality and one private entry per node, entry locks never
  // contend after the first acquisition — message cost must drop well
  // below the uniform workload's.
  auto run = [](double locality) {
    SimCluster cluster{small_cluster(8, 21)};
    WorkloadSpec spec = small_spec(8, 60, 21);
    spec.table_entries = 8;
    spec.mix = ModeMix{0.0, 0.0, 0.0, 1.0, 0.0};  // entry writes only
    spec.entry_locality = locality;
    SimWorkloadDriver driver{cluster, spec};
    driver.run();
    return static_cast<double>(cluster.metrics().messages().total()) /
           static_cast<double>(driver.stats().acquisitions);
  };
  EXPECT_LT(run(1.0), run(0.0) * 0.8);
}

TEST(DriverDetail, RecoveryTrafficStaysOutOfMessagesPerRequest) {
  // Heartbeats run until the recovery horizon, long after the workload
  // ends; the paper's messages-per-request metric must not see them.
  auto run = [](SimTime horizon) {
    SimClusterOptions options = small_cluster(8, 7);
    options.recovery.enabled = true;
    options.recovery_horizon = horizon;
    SimCluster cluster{options};
    SimWorkloadDriver driver{cluster, small_spec(8, 40, 7)};
    driver.run();
    const stats::MessageCounter& messages = cluster.metrics().messages();
    EXPECT_EQ(messages.total(),
              messages.protocol_total() + messages.recovery_total());
    return std::make_pair(cluster.metrics().messages_per_request(),
                          messages.recovery_total());
  };
  const auto [short_per_request, short_recovery] = run(SimTime::ms(30'000));
  const auto [long_per_request, long_recovery] = run(SimTime::ms(120'000));
  EXPECT_GT(short_per_request, 0.0);
  EXPECT_DOUBLE_EQ(short_per_request, long_per_request);
  EXPECT_GT(long_recovery, short_recovery);  // the heartbeats did run on
}

TEST(DriverDetail, SimulatedTimeIsPlausible) {
  // Each node performs ops sequentially: total simulated time must be at
  // least (ops x mean idle) for the busiest node and bounded by a
  // generous multiple under light contention.
  SimCluster cluster{small_cluster(4, 17)};
  SimWorkloadDriver driver{cluster, small_spec(4, 50, 17)};
  driver.run();
  const double elapsed_ms = cluster.simulator().now().to_ms();
  EXPECT_GT(elapsed_ms, 50 * 3.0 * 0.5) << "finished impossibly fast";
  EXPECT_LT(elapsed_ms, 50 * (3.0 + 1.0) * 20) << "pathological stalls";
}

}  // namespace
}  // namespace hlock::workload
