// Per-node crash-recovery manager: failure detection, coordinator election,
// epoch-fenced token regeneration and the receive-side stale-message gate
// (docs/recovery.md).
//
// One Manager runs next to each node's protocol engine: inside the node's
// runtime::NodeCore in both runtimes (SimCluster schedules its ticks as
// events, ThreadCluster drives it from a ticker thread), and in the model
// checker. It is a pure state machine like the automatons: every entry
// point returns an Outcome that NodeCore applies — recovery messages to
// transmit, automaton effects to apply, trace events to sink — which keeps
// the whole recovery protocol explorable by the model checker. With
// recovery on, NodeCore hands the Manager EVERY incoming message; the gate
// that decides whether a protocol message reaches the engine now, later or
// never is written only here.
//
// The protocol, in one paragraph: a node that suspects a peer dead (local
// heartbeat timeout, or gossip) HALTS protocol processing — the Manager
// buffers incoming protocol messages and NodeCore buffers application
// operations while halted() — and sends one ElectToken report per lock to
// the campaign's coordinator, the lowest live node id. The coordinator,
// once it holds complete reports from every live node for the current dead
// set, mints a campaign epoch that no previous or concurrent campaign can
// have produced (epoch = (floor(max_reported / n) + 1) * n +
// coordinator_id) and broadcasts one EpochFence per reported lock: the
// token's new root, the surviving holders and the reconstructed waiting
// queue. Receivers apply each fence to the lock's automaton and, once the
// campaign's fence set is complete, unhalt: the Manager replays its
// buffered traffic through the gate, and the automatons drop its old-epoch
// messages as stale. Reports reflect every message their sender will ever
// act on in the old epoch (nothing is processed between report and fence),
// which is the safety argument: the coordinator accounts for every
// surviving hold and waiter exactly once.
//
// Assumption: crash-stop failures and an eventually-accurate detector.
// Suspicions are never retracted; a falsely suspected live node is fenced
// out (its stale-epoch messages are dropped and its automatons demote
// themselves if a fence ever reaches them). Tune Options::suspect_after
// well above the maximum message delay to make false suspicion improbable.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/effects.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "recovery/host.hpp"
#include "trace/event.hpp"
#include "util/sim_time.hpp"

namespace hlock::recovery {

/// Failure-detector and recovery tuning.
struct Options {
  /// Master switch: a disabled manager sends nothing and never suspects,
  /// so recovery adds zero message traffic to fault-free benchmarks.
  bool enabled = false;
  /// Heartbeat broadcast period.
  SimTime heartbeat_interval = SimTime::ms(100);
  /// Silence threshold before a peer is suspected dead. Must be well above
  /// heartbeat_interval plus the maximum one-way delay.
  SimTime suspect_after = SimTime::ms(1000);
  /// Fault injection for the model checker's expect-violation run: the
  /// coordinator sends half its peers a conflicting same-epoch fence that
  /// appoints a different root — the double-regeneration bug the per-epoch
  /// token-conservation check must catch.
  bool doctor_double_fence = false;
};

/// Cumulative recovery statistics of one node.
struct RecoveryCounters {
  std::uint64_t suspicions = 0;        ///< dead nodes adopted
  std::uint64_t campaigns_led = 0;     ///< fence sets minted as coordinator
  std::uint64_t fences_installed = 0;  ///< per-lock fences applied
  std::uint64_t recoveries = 0;        ///< halt -> unhalt cycles completed
  /// Protocol messages the automatons dropped for a pre-fence epoch.
  std::uint64_t stale_drops = 0;
};

/// What one Manager step asks the runtime to do.
struct Outcome {
  /// Recovery messages to transmit (heartbeats, suspicions, reports,
  /// fences). Never protocol messages.
  std::vector<proto::Message> messages;
  /// Per-lock automaton effects, in the order the runtime must apply them:
  /// locally installed fences, then protocol messages delivered through
  /// the gate (an unhalt's replay comes after the fences that ended the
  /// halt). The runtime applies each exactly like a protocol step
  /// (transmit messages, sink events, surface grants).
  std::vector<std::pair<proto::LockId, core::Effects>> effects;
  /// Recovery trace events (kNodeDead, from suspicion adoption) for the
  /// runtime's event sink; kFence events travel inside `effects`.
  std::vector<trace::TraceEvent> events;
  /// The node just unhalted. The Manager already replayed its buffered
  /// protocol messages (their effects are in `effects`); NodeCore replays
  /// the buffered application operations after applying them.
  bool unhalted = false;
};

/// See file comment.
class Manager {
 public:
  /// `host` must outlive the manager; `node_count` is the cluster size
  /// (node ids are [0, node_count)).
  Manager(NodeId self, std::size_t node_count, Options options, Host* host);

  bool enabled() const { return options_.enabled; }
  NodeId self() const { return self_; }

  /// True while protocol processing is halted (suspicion raised, campaign
  /// fences not yet complete). The Manager buffers protocol messages
  /// itself; NodeCore buffers application operations and replays them, in
  /// issue order, on Outcome::unhalted.
  bool halted() const { return halted_; }

  /// Nodes this manager believes crashed, ascending.
  const std::vector<NodeId>& dead() const { return dead_; }
  bool is_dead(NodeId node) const;

  /// Highest recovery epoch this node has minted or applied.
  std::uint32_t current_epoch() const { return max_epoch_seen_; }

  const RecoveryCounters& counters() const { return counters_; }

  /// Completed recovery durations (halt to unhalt), milliseconds, in
  /// completion order — the hlock_recovery_ms histogram's samples.
  const std::vector<double>& recovery_durations_ms() const {
    return recovery_ms_;
  }

  /// Records that any message from `from` arrived (refreshes the failure
  /// detector). on_message calls it for every delivery, so protocol
  /// traffic doubles as liveness evidence.
  void note_alive(NodeId from, SimTime now);

  /// Periodic driver: emits due heartbeats and raises timeout suspicions.
  /// Runtimes call it roughly every heartbeat_interval.
  Outcome on_tick(SimTime now);

  /// Delivers one incoming message of any kind and refreshes the sender's
  /// detector entry. Recovery kinds (is_recovery_kind) drive the campaign;
  /// those from a sender believed dead are dropped as zombie traffic. A
  /// protocol message passes the gate: buffered while halted, parked while
  /// its epoch is newer than the host's, otherwise delivered through
  /// Host::deliver with its effects appended to Outcome::effects (and
  /// counted in stale_drops if the automaton dropped it as pre-fence).
  Outcome on_message(const proto::Message& message, SimTime now);

  /// Directly injects a suspicion (model checker and tests; the timeout
  /// path funnels into the same transition).
  Outcome suspect(NodeId dead, SimTime now);

  /// Crash-stop of this node: the buffered protocol messages die with its
  /// volatile state.
  void discard_backlog();

  /// Protocol messages buffered while halted, in arrival order.
  const std::vector<proto::Message>& halted_backlog() const {
    return halted_msgs_;
  }
  /// Protocol messages parked for a newer epoch, in arrival order.
  const std::vector<proto::Message>& parked() const { return parked_msgs_; }

  /// Canonical serialization of all behavior-relevant manager state,
  /// buffered messages included (model checker dedup). Excludes clocks and
  /// counters.
  std::string fingerprint() const;

 private:
  /// One peer's report set for the current campaign.
  struct PeerReports {
    /// lock_count announced by the peer's reports; UINT32_MAX until the
    /// first report arrives. 0 = lockless report, complete by itself.
    std::uint32_t expected = UINT32_MAX;
    /// Reports received, keyed by lock id value (deterministic order).
    std::map<std::uint32_t, proto::ElectToken> locks;

    bool complete() const {
      return expected != UINT32_MAX && locks.size() == expected;
    }
  };

  void adopt_dead(NodeId node, SimTime now, Outcome& out);
  void send_reports(SimTime now, Outcome& out);
  void ingest_report(NodeId from, proto::LockId lock,
                     const proto::ElectToken& report);
  /// Coordinator: mints and broadcasts the campaign's fences once every
  /// live node's report set is complete.
  void maybe_mint(SimTime now, Outcome& out);
  void apply_fence(proto::LockId lock, const proto::EpochFence& fence,
                   SimTime now, Outcome& out);
  void unhalt(SimTime now, Outcome& out);
  /// The stale-message gate for one protocol message.
  void gate(const proto::Message& message, Outcome& out);
  /// Ends a public step: after an unhalt, replays parked-then-halted
  /// messages through the gate (after the step's fence effects).
  void finish(Outcome& out);
  /// Campaign coordinator: the lowest node id not believed dead.
  NodeId coordinator() const;
  std::vector<NodeId> live_peers() const;
  proto::Message make_message(NodeId to, proto::LockId lock,
                              proto::Payload payload) const;

  const NodeId self_;
  const std::size_t node_count_;
  const Options options_;
  Host* const host_;

  std::vector<NodeId> dead_;  ///< sorted; the campaign identity
  bool halted_ = false;
  SimTime halt_started_{};
  std::uint32_t max_epoch_seen_ = 0;

  // Failure detector.
  std::vector<SimTime> last_heard_;
  SimTime next_heartbeat_{};

  // Coordinator state: reports gathered for the current dead_ set.
  std::map<std::uint32_t, PeerReports> reports_;  ///< by node id value

  // Receiver state: fences collected for the current dead_ set.
  std::set<std::uint32_t> fences_received_;  ///< fence_index values
  std::uint32_t fences_expected_ = UINT32_MAX;

  // Gate backlog, replayed on unhalt.
  std::vector<proto::Message> halted_msgs_;
  /// From a newer recovery epoch than the local automaton's, parked until
  /// the matching fence lands (delivering early would make the automaton
  /// stale-drop a post-fence message).
  std::vector<proto::Message> parked_msgs_;

  RecoveryCounters counters_;
  std::vector<double> recovery_ms_;
};

}  // namespace hlock::recovery
