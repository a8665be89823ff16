#include "transport/mailbox.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hlock::transport {

void Mailbox::push_locked(proto::Message&& message,
                          Clock::time_point deliver_at) {
  heap_.push_back(Entry{deliver_at, next_seq_++, std::move(message)});
  std::push_heap(heap_.begin(), heap_.end());
  ++pushed_;
}

bool Mailbox::claim_or_notify_locked(bool claim, Clock::time_point deliver_at,
                                     bool& notify) {
  // A held claim means its holder will see the new message on its next
  // take — waking the (parked or busy) receiver would be a wasted switch.
  if (claim_ != Claim::kNone) return false;
  if (claim && deliver_at <= Clock::now()) {
    claim_ = Claim::kHelper;
    return true;
  }
  notify = true;
  return false;
}

proto::Message Mailbox::pop_top_locked() {
  // pop_heap moves the earliest entry to the back, where it can be
  // extracted by move — the payload's queue buffer travels, not copies.
  std::pop_heap(heap_.begin(), heap_.end());
  proto::Message message = std::move(heap_.back().message);
  heap_.pop_back();
  return message;
}

std::vector<proto::Message> Mailbox::drain_ready_locked(
    Clock::time_point now) {
  // Drain every message matured by `now` under this one lock hold;
  // later-matured messages wait for the next call.
  std::vector<proto::Message> ready;
  ready.reserve(heap_.size());  // upper bound: one allocation, no regrowth
  while (!heap_.empty() && heap_.front().deliver_at <= now) {
    ready.push_back(pop_top_locked());
  }
  return ready;
}

bool Mailbox::push(proto::Message message, Clock::time_point deliver_at,
                   bool claim) {
  // Explicit schedule point: under the explorer a racing pop/close (or a
  // receiver parking) may be interleaved before the push takes the lock
  // (docs/sched.md).
  sched::yield_point(claim ? "mailbox.claim" : "mailbox.push");
  bool notify = false;
  bool claimed = false;
  {
    MutexLock guard(mutex_);
    if (closed_) return false;
    push_locked(std::move(message), deliver_at);
    claimed = claim_or_notify_locked(claim, deliver_at, notify);
  }
  if (notify) cv_.notify_one();
  return claimed;
}

bool Mailbox::push_all(std::vector<proto::Message> messages,
                       Clock::time_point deliver_at, bool claim) {
  if (messages.empty()) return false;
  sched::yield_point(claim ? "mailbox.claim" : "mailbox.push-all");
  bool notify = false;
  bool claimed = false;
  {
    MutexLock guard(mutex_);
    if (closed_) return false;
    for (proto::Message& message : messages) {
      push_locked(std::move(message), deliver_at);
    }
    claimed = claim_or_notify_locked(claim, deliver_at, notify);
  }
  if (notify) cv_.notify_one();
  return claimed;
}

std::optional<proto::Message> Mailbox::pop() {
  return pop_until(Clock::time_point::max());
}

std::optional<proto::Message> Mailbox::pop_until(Clock::time_point deadline) {
  MutexLock lock(mutex_);
  return_receiver_claim_locked();
  for (;;) {
    // While a producer holds the claim it drains everything itself; the
    // receiver waits for the release (or the deadline).
    Clock::time_point wake = deadline;
    if (claim_ == Claim::kNone) {
      if (!heap_.empty()) {
        const Clock::time_point due = heap_.front().deliver_at;
        if (due <= Clock::now()) {
          claim_ = Claim::kReceiver;
          return pop_top_locked();
        }
        // Wait until the head matures, the deadline passes, or a new
        // (possibly earlier) message arrives.
        wake = std::min(due, deadline);
      } else if (closed_) {
        return std::nullopt;
      }
    }
    if (wake == Clock::time_point::max()) {
      cv_.wait(mutex_);
    } else if (cv_.wait_until(mutex_, wake) == std::cv_status::timeout &&
               Clock::now() >= deadline) {
      // Deadline reached: a head that matured meanwhile still counts.
      if (claim_ == Claim::kNone && !heap_.empty() &&
          heap_.front().deliver_at <= Clock::now()) {
        claim_ = Claim::kReceiver;
        return pop_top_locked();
      }
      return std::nullopt;
    }
  }
}

std::vector<proto::Message> Mailbox::pop_all_ready() {
  MutexLock lock(mutex_);
  return_receiver_claim_locked();
  for (;;) {
    if (claim_ == Claim::kNone) {
      if (!heap_.empty()) {
        const Clock::time_point now = Clock::now();
        if (heap_.front().deliver_at <= now) {
          claim_ = Claim::kReceiver;
          return drain_ready_locked(now);
        }
        cv_.wait_until(mutex_, heap_.front().deliver_at);
        continue;
      }
      if (closed_) return {};
    }
    // Empty, or a producer holds the claim: park until a push, the
    // claim's release, or close() wakes us.
    cv_.wait(mutex_);
  }
}

std::vector<proto::Message> Mailbox::take_claimed() {
  sched::yield_point("mailbox.take");
  bool wake_receiver = false;
  {
    MutexLock guard(mutex_);
    HLOCK_INVARIANT(claim_ == Claim::kHelper,
                    "take_claimed() without holding the claim");
    const Clock::time_point now = Clock::now();
    if (!heap_.empty() && heap_.front().deliver_at <= now) {
      return drain_ready_locked(now);
    }
    // Seeing nothing due and letting go happen under one lock hold: a push
    // after this point finds the mailbox unclaimed and wakes the receiver.
    claim_ = Claim::kNone;
    wake_receiver = !heap_.empty() || closed_;
  }
  if (wake_receiver) cv_.notify_one();
  sched::yield_point("mailbox.release");
  return {};
}

void Mailbox::release_claim() {
  {
    MutexLock guard(mutex_);
    HLOCK_INVARIANT(claim_ == Claim::kHelper,
                    "release_claim() without holding the claim");
    claim_ = Claim::kNone;
  }
  cv_.notify_one();
}

void Mailbox::close() {
  sched::yield_point("mailbox.close");
  {
    MutexLock guard(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::uint64_t Mailbox::pushed() const {
  MutexLock guard(mutex_);
  return pushed_;
}

std::size_t Mailbox::size() const {
  MutexLock guard(mutex_);
  return heap_.size();
}

}  // namespace hlock::transport
