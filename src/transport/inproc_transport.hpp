// In-process message transport over real threads.
//
// The simulated-cluster harness (runtime/sim_cluster.hpp) validates the
// protocol under modelled time; this transport validates it under real
// concurrency: every node runs on its own thread, messages cross true
// thread boundaries, and (by default) every message round-trips through
// the binary wire codec, exactly as a socket deployment would ship it.
// Injected latency is optional and small — the goal here is races, not
// timing realism.
//
// Channels are FIFO per ordered (from, to) pair, matching TCP/MPI and the
// simulator's network model.
//
// With batching enabled (the default), send_batch() coalesces the
// same-destination messages of one burst into a single batch envelope: one
// codec round-trip over a reused scratch buffer and one mailbox lock
// acquisition instead of one of each per message. Batching never changes
// what is delivered or in which order — see docs/performance.md.
//
// Run-to-completion delivery (docs/transports.md): a thread inside an
// InlineScope — a ThreadCluster lock()/upgrade()/unlock() call, which
// drains before it blocks or returns — delivers critical-path messages to
// a node with a waiting client itself. Its send claims the destination mailbox instead of waking the
// receiver, and InlineScope::drain() later runs the destination's protocol
// steps on the sending thread. Everything else, and every thread without a
// scope, wakes the receiver as before.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "transport/mailbox.hpp"
#include "transport/transport.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Construction parameters for an in-process transport.
struct InProcOptions {
  std::size_t node_count = 2;
  /// Injected one-way latency (real time); zero by default.
  DurationDist latency = DurationDist::constant(SimTime::ns(0));
  std::uint64_t seed = 1;
  /// Round-trip every message through the binary codec (encode + decode)
  /// to keep the protocol honest about its wire representation.
  bool codec_roundtrip = true;
  /// Coalesce same-destination messages of one send_batch() call into a
  /// single batch envelope (protocol-invisible; off = per-message path).
  bool batching = true;
};

/// See file comment.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(const InProcOptions& options);

  /// The calling thread's run-to-completion window (file comment). While
  /// the scope lives, a critical-path message (proto::is_critical_path_kind)
  /// this thread sends toward a node with a WaitingClient, already due,
  /// claims the destination's mailbox when it is unclaimed — its receiver
  /// stays parked. The thread must drain() before it blocks and before the
  /// scope ends, and only while holding no lock that `dispatch` takes.
  /// A null transport makes an inert scope (TCP clusters).
  class InlineScope {
   public:
    explicit InlineScope(InProcTransport* transport);
    /// Hands any claim still held (an exception skipped the drain) back to
    /// its receiver.
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

    /// True if a send since the last drain claimed a mailbox.
    bool claimed() const { return !claims_.empty(); }

    /// Drains every claimed mailbox, in claim order, as a worklist: sends
    /// made by `dispatch(node, batch)` may claim further mailboxes, which
    /// are drained in turn. Each mailbox's claim is released when it has
    /// nothing due. Returns holding no claim.
    template <typename Dispatch>
    void drain(const Dispatch& dispatch) {
      // A worklist, not a range-for: dispatch() may append to claims_.
      std::size_t next = 0;
      while (next < claims_.size()) {
        const proto::NodeId node = claims_[next++];
        Mailbox& box = transport_->mailbox(node);
        for (std::vector<proto::Message> batch = box.take_claimed();
             !batch.empty(); batch = box.take_claimed()) {
          dispatch(node, batch);
        }
      }
      claims_.clear();
    }

   private:
    friend class InProcTransport;
    InProcTransport* transport_;
    InlineScope* outer_;
    std::vector<proto::NodeId> claims_;
  };

  /// Marks a client call on `node` as blocked for a grant or upgrade of
  /// `lock` until end() or destruction — the destination rule of inline
  /// delivery. Take it before the request step, so an answer racing the
  /// step sees it. A null transport makes a no-op.
  class WaitingClient {
   public:
    WaitingClient(InProcTransport* transport, proto::NodeId node,
                  proto::LockId lock);
    ~WaitingClient() { end(); }
    /// Stops counting (idempotent). A call ends it before it lets the
    /// cluster's destructor go on, which frees the transport.
    void end();
    WaitingClient(const WaitingClient&) = delete;
    WaitingClient& operator=(const WaitingClient&) = delete;

   private:
    std::atomic<std::uint32_t>* calls_ = nullptr;
  };

  /// Routes a message to its destination mailbox. Thread-safe. Throws
  /// InvariantError if the codec round-trip corrupts the message.
  void send(const proto::Message& message) override
      HLOCK_EXCLUDES(latency_mutex_);

  /// Routes a burst, coalescing same-channel runs into batch envelopes
  /// when options.batching is set (falls back to per-message sends
  /// otherwise). Thread-safe.
  void send_batch(std::vector<proto::Message> messages) override
      HLOCK_EXCLUDES(latency_mutex_);

  /// Blocks for the next deliverable message for `node` (nullopt once the
  /// transport is shut down and the mailbox drained).
  std::optional<proto::Message> recv(proto::NodeId node) override;

  /// Drains every already-matured message for `node` in one mailbox lock
  /// acquisition (empty once shut down and drained).
  std::vector<proto::Message> recv_ready(proto::NodeId node) override;

  /// Like recv() but bounded by `timeout`.
  std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) override;

  /// Closes all mailboxes; blocked receivers wake up.
  void shutdown() override;

  /// Total messages accepted by send()/send_batch().
  std::uint64_t messages_sent() const override { return sent_.load(); }

  /// Encoded bytes shipped (0 when codec_roundtrip is off — nothing is
  /// encoded then).
  std::uint64_t bytes_sent() const override { return bytes_.load(); }

  std::size_t node_count() const { return mailboxes_.size(); }

  /// Messages waiting in `node`'s mailbox (matured or not).
  std::size_t inbox_depth(proto::NodeId node) const override {
    return node.value() < mailboxes_.size()
               ? mailboxes_[node.value()]->size()
               : 0;
  }

 private:
  Mailbox& mailbox(proto::NodeId node);
  /// Encodes and decodes `message` (codec_roundtrip), returning the copy
  /// that travels.
  proto::Message round_trip(const proto::Message& message);
  /// True if `message` alone would let its push claim the destination:
  /// critical-path payload, a waiting client there, and — for a request —
  /// not one for the lock that client waits on.
  bool inline_eligible(const proto::Message& message) const;
  /// The scope whose claim list a push of `messages` (one frame, one
  /// destination) joins, or nullptr when the push must wake the receiver.
  InlineScope* claiming_scope(std::span<const proto::Message> messages) const;
  /// Computes the delivery time of the next message/batch on (from, to),
  /// maintaining per-channel FIFO under injected latency. With a constant
  /// zero latency every message gets one fixed, always-due time and the
  /// mailbox's push order alone orders each channel.
  Mailbox::Clock::time_point schedule_delivery(proto::NodeId from,
                                               proto::NodeId to)
      HLOCK_EXCLUDES(latency_mutex_);
  /// Ships one same-channel run [begin, end) as a single batch envelope.
  void send_coalesced(std::vector<proto::Message>& messages,
                      std::size_t begin, std::size_t end);

  /// Immutable after construction (mailboxes themselves are thread-safe).
  InProcOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  /// One node's WaitingClient state: the calls blocked for a grant and
  /// the lock of the latest of them (a heuristic input, so one slot is
  /// enough even when several clients of a node wait). A cache line each:
  /// every lock() call writes its own node's entry.
  struct alignas(64) Waiting {
    std::atomic<std::uint32_t> calls{0};
    std::atomic<std::uint32_t> lock{0};
  };
  std::unique_ptr<Waiting[]> waiting_;
  /// options_.latency is constant zero (schedule_delivery's fast path).
  bool zero_latency_ = false;

  Mutex latency_mutex_;
  Rng latency_rng_ HLOCK_GUARDED_BY(latency_mutex_);
  /// Last delivery deadline per ordered channel (FIFO enforcement).
  std::map<std::pair<proto::NodeId, proto::NodeId>,
           Mailbox::Clock::time_point>
      channel_front_ HLOCK_GUARDED_BY(latency_mutex_);
};

}  // namespace hlock::transport
