// The benchmark's three workloads and their seeded operation streams.
//
// Every workload runs 4 nodes with one closed-loop client per node. An op
// is one application operation: one lock/unlock cycle (excl-*), or one
// multi-airline operation taking the table and entry locks the paper's
// plan prescribes (airline-local). The cluster only ever sees the
// lock/unlock/upgrade calls the op stream produces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/thread_cluster.hpp"
#include "util/rng.hpp"
#include "workload/op_plan.hpp"

namespace lockbench {

using hlock::proto::LockId;
using hlock::proto::LockMode;
using hlock::proto::NodeId;
using hlock::workload::LockStep;

inline constexpr std::size_t kNodes = 4;

struct WorkloadSpec {
  std::string name;
  std::string why;
  /// excl-*: W-only acquisitions uniform over `lock_pool` locks.
  /// airline-local: paper mode mix over a table of `entries` entries.
  bool airline = false;
  std::size_t lock_pool = 0;
  std::size_t entries = 0;
  /// airline-local: probability an entry op stays in the node's own slice.
  double own_slice = 0.0;
  hlock::runtime::TransportKind transport =
      hlock::runtime::TransportKind::kInProc;
  bool recovery = false;
  /// Attach a telemetry::Registry to the cluster in untraced runs.
  bool telemetry = false;

  /// Locks an op stream can touch: [0, lock_count()).
  std::size_t lock_count() const { return airline ? entries + 1 : lock_pool; }
  /// Cluster options for this workload (`metrics` may be null).
  hlock::runtime::ThreadClusterOptions cluster_options(
      std::uint64_t seed, hlock::telemetry::Registry* metrics) const;
  /// One-line parameter summary for the report.
  std::string describe() const;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// The seeded op stream of one node: the same (spec, seed, node) always
/// yields the same sequence of ops.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed, NodeId node);

  /// The next op's acquisitions, in acquisition order (released in
  /// reverse).
  std::vector<LockStep> next();

 private:
  const WorkloadSpec& spec_;
  NodeId node_;
  hlock::Rng rng_;
};

}  // namespace lockbench
