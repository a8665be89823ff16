// A thread-safe mailbox with earliest-deadline delivery.
//
// Building block of the in-process transport: producers deposit messages
// with an absolute delivery time (wall clock); the consumer blocks until
// the earliest message becomes deliverable. Injected delivery times model
// network latency while per-channel FIFO is enforced by the transport.
//
// Hot-path notes: the heap is an explicit std::vector managed with the
// <algorithm> heap primitives rather than a std::priority_queue — the
// adapter only exposes a const top(), which forced every delivered message
// into a deep copy (payload queue buffers included); the vector form lets
// pop extract by move. pop_all_ready() drains every matured message in one
// lock acquisition, which is what lets the threaded runtime deliver a burst
// as a batch instead of paying one mutex round-trip per message.
//
// Consumer claim (run-to-completion delivery, docs/transports.md): only the
// holder of the claim pops, so messages leave in delivery order no matter
// which thread consumes them. A receiving call (pop/pop_until/
// pop_all_ready) takes the claim for the receiver when it returns a message
// and gives it back on the receiver's next call; the receiver parks while
// the mailbox is empty or claimed by someone else. A producer may instead
// take the claim with its push — only for a message already due on an
// unclaimed mailbox — and then drains with take_claimed() instead of waking
// the receiver. A push never wakes the receiver while anyone holds the
// claim: the holder sees the message itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "proto/message.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Multi-producer single-consumer mailbox ordered by delivery time.
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Deposits a message that becomes deliverable at `deliver_at`. With
  /// `claim` set, a message already due on an unclaimed mailbox does not
  /// wake the receiver: the caller takes the consumer claim and must drain
  /// with take_claimed() until it returns empty. Returns true iff this call
  /// took the claim. No-op (false) after close().
  bool push(proto::Message message, Clock::time_point deliver_at,
            bool claim = false) HLOCK_EXCLUDES(mutex_);

  /// Deposits a burst of messages sharing one delivery time under a single
  /// lock acquisition, preserving their order; `claim` as for push().
  bool push_all(std::vector<proto::Message> messages,
                Clock::time_point deliver_at, bool claim = false)
      HLOCK_EXCLUDES(mutex_);

  /// Blocks until a message is deliverable or the mailbox is closed and
  /// empty. Returns std::nullopt only in the latter case.
  std::optional<proto::Message> pop() HLOCK_EXCLUDES(mutex_);

  /// Like pop() but gives up at `deadline`; std::nullopt on timeout or
  /// closed-and-empty.
  std::optional<proto::Message> pop_until(Clock::time_point deadline)
      HLOCK_EXCLUDES(mutex_);

  /// Blocks like pop(), then drains and returns every message already
  /// matured at that point, in delivery order. Returns an empty vector only
  /// once the mailbox is closed, empty and unclaimed.
  std::vector<proto::Message> pop_all_ready() HLOCK_EXCLUDES(mutex_);

  /// The claim holder's non-blocking drain: every message matured now, in
  /// delivery order. When none is, releases the claim in the same critical
  /// section — so no push can slip in unseen — wakes the receiver if
  /// delayed messages remain or the mailbox is closed, and returns empty.
  /// Precondition: the caller took the claim with push()/push_all().
  std::vector<proto::Message> take_claimed() HLOCK_EXCLUDES(mutex_);

  /// Hands a claim taken with push()/push_all() back undrained and wakes
  /// the receiver to consume what is left (the claim holder's error path).
  void release_claim() HLOCK_EXCLUDES(mutex_);

  /// Closes the mailbox: pending messages remain poppable, new pushes are
  /// dropped, and blocked consumers wake up.
  void close() HLOCK_EXCLUDES(mutex_);

  /// Messages deposited over the mailbox's lifetime.
  std::uint64_t pushed() const HLOCK_EXCLUDES(mutex_);

  /// Messages currently waiting (matured or not). Telemetry read.
  std::size_t size() const HLOCK_EXCLUDES(mutex_);

 private:
  struct Entry {
    Clock::time_point deliver_at;
    std::uint64_t seq;
    proto::Message message;
    /// Min-ordering by (deliver_at, seq) via inverted comparison.
    bool operator<(const Entry& other) const {
      if (deliver_at != other.deliver_at) {
        return deliver_at > other.deliver_at;
      }
      return seq > other.seq;
    }
  };

  /// Who may pop: nobody yet, the receiving calls, or a claiming producer.
  enum class Claim : std::uint8_t { kNone, kReceiver, kHelper };

  void push_locked(proto::Message&& message, Clock::time_point deliver_at)
      HLOCK_REQUIRES(mutex_);
  /// After a push: takes the claim for the caller (true) or decides whether
  /// the receiver needs a wake-up (`notify`).
  bool claim_or_notify_locked(bool claim, Clock::time_point deliver_at,
                              bool& notify) HLOCK_REQUIRES(mutex_);
  /// Removes and returns the earliest entry's message by move (no payload
  /// buffer is copied). Precondition: the heap is non-empty.
  proto::Message pop_top_locked() HLOCK_REQUIRES(mutex_);
  /// Moves every entry matured by `now` out, in delivery order.
  std::vector<proto::Message> drain_ready_locked(Clock::time_point now)
      HLOCK_REQUIRES(mutex_);
  /// Start of every receiving call: the receiver's claim from its
  /// previous call goes back.
  void return_receiver_claim_locked() HLOCK_REQUIRES(mutex_) {
    if (claim_ == Claim::kReceiver) claim_ = Claim::kNone;
  }

  mutable Mutex mutex_;
  CondVar cv_;
  /// Binary min-heap on Entry::operator< (std::push_heap/std::pop_heap);
  /// heap_.front() is the earliest entry.
  std::vector<Entry> heap_ HLOCK_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ HLOCK_GUARDED_BY(mutex_) = 0;
  std::uint64_t pushed_ HLOCK_GUARDED_BY(mutex_) = 0;
  bool closed_ HLOCK_GUARDED_BY(mutex_) = false;
  Claim claim_ HLOCK_GUARDED_BY(mutex_) = Claim::kNone;
};

}  // namespace hlock::transport
