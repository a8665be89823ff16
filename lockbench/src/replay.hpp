// Single-threaded, deterministic replays of a workload's op stream through
// the layers under the runtime, called directly from the benchmark:
//
//  * core      — four HierEngines driven through an in-benchmark FIFO pump
//                (one engine call per client per round, then every message
//                queued at the start of the round is delivered);
//  * proto     — each step's outgoing messages, grouped into the
//                same-destination runs the runtime ships, go through
//                encode_into/decode (runs of one) or encode_batch_into/
//                decode_batch (longer runs) before delivery;
//  * transport — the recorded stream is pushed through send_batch ->
//                recv_ready of a fresh InProc and a fresh TCP transport;
//  * telemetry — the same replay with every engine wrapped in an
//                InstrumentedEngine, against the bare replay;
//  * recovery  — a recovery::Manager driven directly (note_alive, on_tick).
//
// Message, byte, step and allocation counts of the core/proto replay are a
// pure function of (workload, seed, ops); the benchmark repeats the replay
// and refuses to report if they ever differ.
#pragma once

#include <cstdint>
#include <vector>

#include "histogram.hpp"
#include "proto/message.hpp"
#include "workloads.hpp"

namespace lockbench {

struct CoreReplay {
  // Deterministic counts (compared across repetitions).
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;
  std::uint64_t grants = 0;
  std::uint64_t local_grants = 0;  ///< granted inside the request() step
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t step_allocs = 0;
  std::uint64_t proto_allocs = 0;
  std::uint64_t upgrades = 0;

  // Timings.
  LatencyHistogram request_ns, deliver_ns, release_ns, upgrade_ns;
  double step_ns = 0;    ///< all engine calls, summed
  double encode_ns = 0;  ///< summed over the stream
  double decode_ns = 0;
  bool upgrade_probe = false;  ///< upgrade_ns came from the probe

  // Instrumented replays only (hlock_engine_*_total).
  double forwards = 0;
  double freezes = 0;

  /// The delivered stream, one entry per transport send_batch call.
  std::vector<std::vector<hlock::proto::Message>> stream;

  bool same_counts(const CoreReplay& other) const;
};

/// Replays `ops_per_node` ops of every node's stream. `instrumented` wraps
/// each engine in an InstrumentedEngine; `keep_stream` records the stream.
CoreReplay replay_core(const WorkloadSpec& spec, std::uint64_t seed,
                       std::size_t ops_per_node, bool instrumented,
                       bool keep_stream);

struct TransportReplay {
  double inproc_msg_ns = 0;
  double tcp_msg_us = 0;
};

/// Pushes `stream` through both transports; TCP times at most `tcp_sends`
/// send_batch calls after a short untimed warm-up.
TransportReplay replay_transport(
    const std::vector<std::vector<hlock::proto::Message>>& stream,
    std::size_t tcp_sends);

struct RecoveryReplay {
  double note_alive_ns = 0;
  double on_tick_ns = 0;
  std::uint64_t suspicions = 0;
};

RecoveryReplay replay_recovery();

}  // namespace lockbench
