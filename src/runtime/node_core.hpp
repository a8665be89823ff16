// One node's protocol core, free of I/O: its engine plus, with crash
// recovery on, its recovery::Manager and the application calls issued while
// the Manager has it halted. Each entry point runs one step and hands the
// results to a NodePort the runtime implements, so SimCluster and
// ThreadCluster keep only I/O and every node rule is written once, here:
//
//   - Lamport time: one tick per step, shared by its events; one further
//     tick per sent message; a merge on every receive.
//   - The gate: with recovery on, every received message goes through
//     Manager::on_message; otherwise straight to the engine.
//   - Outcome order: a Manager step's own events and messages form one
//     step, then each lock's effects in order, then (on unhalt) the calls
//     buffered while halted, in issue order.
//   - Crash-stop discards both backlogs.
//
// One core covers a SimCluster node or a ThreadCluster shard (recovery
// forces a single shard). A port callback may re-enter the core: the
// simulator's grant handler issues the next request from inside the grant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/lamport.hpp"
#include "recovery/manager.hpp"
#include "runtime/engine.hpp"
#include "trace/event.hpp"
#include "util/sim_time.hpp"

namespace hlock::runtime {

/// Where a NodeCore step's results go. Per step the calls come in this
/// order: sink, send, grant.
class NodePort {
 public:
  virtual ~NodePort() = default;
  /// One step's events, stamped with now() and the step's Lamport tick;
  /// never empty. The port may move from them.
  virtual void sink(std::vector<trace::TraceEvent>& events) = 0;
  /// One step's messages (one Effects, or a Manager step's own), stamped,
  /// in emission order; never empty. The port may move from them.
  virtual void send(std::vector<proto::Message>& messages) = 0;
  /// `lock` entered its critical section, or its upgrade completed.
  virtual void grant(LockId lock, bool upgraded) = 0;
  /// The runtime's time: stamps events and drives the Manager.
  virtual SimTime now() = 0;
};

/// See file comment.
class NodeCore {
 public:
  /// `clock` and `port` must outlive the core. With `recovery.enabled` the
  /// core runs a Manager whose Host is `engine`.
  NodeCore(NodeId self, std::size_t node_count,
           std::unique_ptr<LockEngine> engine,
           const recovery::Options& recovery, obs::AtomicLamportClock& clock,
           NodePort& port);
  // Pinned: runtimes pass the core's owner itself as its port.
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  void request(LockId lock, LockMode mode, std::uint8_t priority = 0) {
    call({Call::Kind::kRequest, lock, mode, priority});
  }
  void release(LockId lock) { call({Call::Kind::kRelease, lock}); }
  void upgrade(LockId lock) { call({Call::Kind::kUpgrade, lock}); }
  /// Delivers one incoming message of any kind.
  void receive(const proto::Message& message);
  /// Drives the Manager's failure detector (no-op with recovery off).
  void tick();
  /// Crash-stop; the runtime stops calling the core afterwards.
  void crash();

  LockEngine& engine() { return *engine_; }
  /// nullptr with recovery off.
  recovery::Manager* manager() { return manager_.get(); }

 private:
  /// One application call.
  struct Call {
    enum class Kind : std::uint8_t { kRequest, kRelease, kUpgrade };
    Kind kind;
    LockId lock;
    LockMode mode = LockMode::kNL;
    std::uint8_t priority = 0;
  };

  /// Runs `c`, or buffers it while the node is halted.
  void call(const Call& c);
  void apply(LockId lock, Effects&& effects);
  void apply(recovery::Outcome&& outcome);
  /// One Lamport step: stamps and sinks the events, then the messages.
  void emit(std::vector<trace::TraceEvent>& events,
            std::vector<proto::Message>& messages);

  std::unique_ptr<LockEngine> engine_;
  std::unique_ptr<recovery::Manager> manager_;
  obs::AtomicLamportClock& clock_;
  NodePort& port_;
  std::vector<Call> halted_calls_;
};

}  // namespace hlock::runtime
