// Closed-loop measurement of a live ThreadCluster.
//
// One client thread per node issues the node's seeded op stream through
// the public lock/unlock/upgrade API, one op at a time. A run measures
// several rounds, each on a freshly constructed cluster: construction up to
// the clients' start barrier is timed as set-up, the clients warm up
// uncounted, then a time-boxed window split into equal slices is measured.
// Per-slice figures of all rounds are reported as medians, so a burst of
// outside load on one slice, or one unlucky thread placement, does not move
// the result.
//
// Correctness is checked inside the run: every grant is checked against
// the current holders in a client-side holder table using the linter's
// independent lint::spec_compatible table, every op carries a deadline, and
// the run requires zero receiver errors (and zero suspicions and stale
// drops with recovery on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "histogram.hpp"
#include "workloads.hpp"

namespace lockbench {

/// Span kinds recorded by a traced run (one root per op, one child per
/// cluster call).
enum class SpanKind : std::uint8_t { kOp, kLock, kUnlock, kUpgrade };

struct Span {
  std::uint64_t op = 0;  ///< node << 40 | per-node op sequence
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t lock = 0;
  SpanKind kind = SpanKind::kOp;
  std::uint8_t node = 0;
};

struct ClosedLoopOptions {
  /// Measured rounds, each on a fresh cluster (fresh threads, so a run
  /// samples several thread placements); the window is split evenly.
  int rounds = 4;
  int slices_per_round = 5;
  /// Uncounted warm-up of each measured round.
  double warmup_s = 0.5;
  /// Total measured time over all rounds.
  double window_s = 10.0;
  /// Unmeasured cluster constructions timed for setup_s on top of the
  /// measured rounds' own.
  int extra_setups = 7;
  /// Record spans and per-call timings and attach a registry.
  bool traced = false;
};

struct ClosedLoopResult {
  // ---- correctness (whole window) ----
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t overlap_violations = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t receiver_errors = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t stale_drops = 0;
  std::uint64_t leftover_holds = 0;
  std::vector<std::string> errors;

  // ---- end to end (medians over slices unless noted) ----
  double ops_per_s = 0;
  double acquire_p50_us = 0;
  double acquire_p99_us = 0;
  std::uint64_t acquire_samples = 0;  ///< whole window
  double cpu_us_per_op = 0;
  double msgs_per_op = 0;
  double bytes_per_op = 0;
  double setup_s = 0;  ///< median over every construction
  double peak_rss_mb = 0;
  /// Client wall time per op (clients x window / completed), microseconds.
  double client_us_per_op = 0;
  double ctx_switches_per_op = 0;
  double syscalls_per_op = 0;
  double msgs_per_s = 0;  ///< transport messages per second, whole window
  /// Transport messages per second with every client stopped (recovery
  /// runs: the heartbeat traffic alone).
  double idle_msgs_per_s = 0;

  // ---- traced runs only ----
  LatencyHistogram lock_ns, unlock_ns, upgrade_ns;
  double recv_batch_mean = 0;
  double mailbox_depth_max = 0;
  double retries = 0;
  double engine_msgs_per_s = 0;
  /// Per op, summed over its spans: time inside cluster calls and the
  /// root's self time (benchmark bookkeeping between calls).
  double call_us_per_op = 0;
  double root_self_us_per_op = 0;
  bool upgrade_probe = false;  ///< upgrade_ns came from the probe
  std::vector<Span> spans;
};

ClosedLoopResult run_closed_loop(const WorkloadSpec& spec, std::uint64_t seed,
                                 const ClosedLoopOptions& options);

}  // namespace lockbench
