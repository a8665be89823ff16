#include "transport/inproc_transport.hpp"

#include <algorithm>

#include "proto/codec.hpp"
#include "util/check.hpp"

namespace hlock::transport {

namespace {

/// The calling thread's innermost open InlineScope.
thread_local InProcTransport::InlineScope* t_inline_scope = nullptr;

}  // namespace

InProcTransport::InlineScope::InlineScope(InProcTransport* transport)
    : transport_(transport), outer_(t_inline_scope) {
  if (transport_ != nullptr) t_inline_scope = this;
}

InProcTransport::InlineScope::~InlineScope() {
  if (transport_ == nullptr) return;
  t_inline_scope = outer_;
  for (const proto::NodeId node : claims_) {
    transport_->mailbox(node).release_claim();
  }
}

InProcTransport::WaitingClient::WaitingClient(InProcTransport* transport,
                                              proto::NodeId node,
                                              proto::LockId lock) {
  if (transport == nullptr) return;
  transport->mailbox(node);  // range check
  Waiting& waiting = transport->waiting_[node.value()];
  waiting.lock.store(lock.value(), std::memory_order_relaxed);
  calls_ = &waiting.calls;
  calls_->fetch_add(1, std::memory_order_relaxed);
}

void InProcTransport::WaitingClient::end() {
  if (calls_ == nullptr) return;
  calls_->fetch_sub(1, std::memory_order_relaxed);
  calls_ = nullptr;
}

InProcTransport::InProcTransport(const InProcOptions& options)
    : options_(options),
      waiting_(std::make_unique<Waiting[]>(options.node_count)),
      zero_latency_(options.latency.kind() == DistKind::kConstant &&
                    options.latency.mean() == SimTime::ns(0)),
      latency_rng_(Rng{options.seed}.split(0x7A57u)) {
  HLOCK_REQUIRE(options.node_count >= 1,
                "a transport needs at least one node");
  mailboxes_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& InProcTransport::mailbox(proto::NodeId node) {
  HLOCK_REQUIRE(node.value() < mailboxes_.size(), "unknown node id");
  return *mailboxes_[node.value()];
}

bool InProcTransport::inline_eligible(const proto::Message& message) const {
  const proto::MessageKind kind = proto::kind_of(message.payload);
  if (!proto::is_critical_path_kind(kind)) return false;
  // Only a node whose client waits is worth running on the sender's stack;
  // delivering into a busy node early changes what the token protocols
  // send (docs/performance.md, variant table).
  const Waiting& waiting = waiting_[message.to.value()];
  if (waiting.calls.load(std::memory_order_relaxed) == 0) return false;
  // A node pending on this very lock would only queue the request (hier
  // Rule 4.1, Naimi's next pointer), and queueing it there instead of
  // answering it later adds copyset grants and releases.
  const bool request = kind == proto::MessageKind::kHierRequest ||
                       kind == proto::MessageKind::kNaimiRequest;
  return !request ||
         waiting.lock.load(std::memory_order_relaxed) != message.lock.value();
}

InProcTransport::InlineScope* InProcTransport::claiming_scope(
    std::span<const proto::Message> messages) const {
  InlineScope* scope = t_inline_scope;
  if (scope == nullptr || scope->transport_ != this) return nullptr;
  // A frame is claimed as a whole when any of its messages qualifies.
  const bool eligible = std::any_of(
      messages.begin(), messages.end(),
      [this](const proto::Message& m) { return inline_eligible(m); });
  return eligible ? scope : nullptr;
}

Mailbox::Clock::time_point InProcTransport::schedule_delivery(
    proto::NodeId from, proto::NodeId to) {
  // Constant zero latency: every message is due at once, and per-channel
  // FIFO is the mailbox's push order — no lock, no channel lookup.
  if (zero_latency_) return Mailbox::Clock::time_point{};
  MutexLock guard(latency_mutex_);
  const SimTime latency = options_.latency.sample(latency_rng_);
  Mailbox::Clock::time_point deliver_at =
      Mailbox::Clock::now() + std::chrono::nanoseconds(latency.count_ns());
  auto& front = channel_front_[{from, to}];
  if (deliver_at <= front) {
    deliver_at = front + std::chrono::nanoseconds(1);
  }
  front = deliver_at;
  return deliver_at;
}

proto::Message InProcTransport::round_trip(const proto::Message& message) {
  // One scratch buffer per sending thread: capacity persists across
  // sends, so the steady state allocates nothing for the wire image.
  thread_local std::vector<std::byte> scratch;
  scratch.clear();
  proto::encode_into(message, scratch);
  std::optional<proto::Message> decoded = proto::decode(scratch);
  HLOCK_INVARIANT(decoded.has_value() && *decoded == message,
                  "codec round-trip corrupted a message");
  bytes_.fetch_add(scratch.size(), std::memory_order_relaxed);
  return std::move(*decoded);
}

void InProcTransport::send(const proto::Message& message) {
  // The decoded copy is the one that travels; only without the codec does
  // the message itself need copying.
  proto::Message to_deliver =
      options_.codec_roundtrip ? round_trip(message) : message;
  Mailbox& box = mailbox(message.to);
  InlineScope* scope = claiming_scope({&message, 1});
  const Mailbox::Clock::time_point deliver_at =
      schedule_delivery(message.from, message.to);
  if (box.push(std::move(to_deliver), deliver_at, scope != nullptr)) {
    scope->claims_.push_back(message.to);
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
}

void InProcTransport::send_coalesced(std::vector<proto::Message>& messages,
                                     std::size_t begin, std::size_t end) {
  const proto::NodeId from = messages[begin].from;
  const proto::NodeId to = messages[begin].to;
  std::vector<proto::Message> group;
  if (options_.codec_roundtrip) {
    thread_local std::vector<std::byte> scratch;
    scratch.clear();
    proto::encode_batch_into(
        std::span<const proto::Message>{messages.data() + begin,
                                        end - begin},
        scratch);
    std::optional<std::vector<proto::Message>> decoded =
        proto::decode_batch(scratch);
    HLOCK_INVARIANT(decoded.has_value() && decoded->size() == end - begin &&
                        std::equal(decoded->begin(), decoded->end(),
                                   messages.begin() +
                                       static_cast<std::ptrdiff_t>(begin)),
                    "codec round-trip corrupted a batch");
    group = std::move(*decoded);
    bytes_.fetch_add(scratch.size(), std::memory_order_relaxed);
  } else {
    group.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      group.push_back(std::move(messages[i]));
    }
  }
  // One latency sample for the whole batch: it travels as one frame.
  Mailbox& box = mailbox(to);
  InlineScope* scope = claiming_scope(group);
  const Mailbox::Clock::time_point deliver_at = schedule_delivery(from, to);
  if (box.push_all(std::move(group), deliver_at, scope != nullptr)) {
    scope->claims_.push_back(to);
  }
  sent_.fetch_add(end - begin, std::memory_order_relaxed);
}

void InProcTransport::send_batch(std::vector<proto::Message> messages) {
  if (messages.empty()) return;
  if (!options_.batching) {
    for (const proto::Message& message : messages) send(message);
    return;
  }
  // Coalesce consecutive same-channel runs; runs never reorder relative to
  // each other, so per-channel FIFO is exactly what per-message sends give.
  std::size_t begin = 0;
  while (begin < messages.size()) {
    std::size_t end = begin + 1;
    while (end < messages.size() &&
           messages[end].from == messages[begin].from &&
           messages[end].to == messages[begin].to) {
      ++end;
    }
    if (end - begin == 1) {
      send(messages[begin]);
    } else {
      send_coalesced(messages, begin, end);
    }
    begin = end;
  }
}

std::optional<proto::Message> InProcTransport::recv(proto::NodeId node) {
  return mailbox(node).pop();
}

std::vector<proto::Message> InProcTransport::recv_ready(proto::NodeId node) {
  return mailbox(node).pop_all_ready();
}

std::optional<proto::Message> InProcTransport::recv_for(
    proto::NodeId node, std::chrono::milliseconds timeout) {
  return mailbox(node).pop_until(Mailbox::Clock::now() + timeout);
}

void InProcTransport::shutdown() {
  for (auto& box : mailboxes_) box->close();
}

}  // namespace hlock::transport
