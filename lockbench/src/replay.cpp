#include "replay.hpp"

#include <deque>
#include <memory>
#include <span>
#include <stdexcept>

#include "probes.hpp"
#include "proto/codec.hpp"
#include "recovery/manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/instrumented_engine.hpp"
#include "telemetry/registry.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/tcp_transport.hpp"

namespace lockbench {

namespace {

using hlock::core::Effects;
using hlock::proto::Message;
using hlock::runtime::LockEngine;

/// Upgrade calls timed by the probe on workloads without upgrades.
constexpr int kUpgradeProbeCalls = 1000;

/// Ops a client whose grants are all local ends per pump round.
constexpr std::size_t kOpsPerRound = 8;

/// One node's client in the pump: walks its ops' acquisitions (with the
/// midway upgrade), then releases them in reverse.
struct PumpClient {
  enum class State { kIdle, kLocking, kWaitGrant, kUpgrading, kWaitUpgrade,
                     kReleasing };
  explicit PumpClient(OpStream s) : stream(std::move(s)) {}

  OpStream stream;
  std::vector<LockStep> op;
  std::size_t next = 0;
  State state = State::kIdle;
  std::size_t done = 0;

  /// The current acquisition completed (granted, or upgraded).
  void acquired(bool upgrade_done) {
    if (op[next].upgrade_midway && !upgrade_done) {
      state = State::kUpgrading;
      return;
    }
    ++next;
    state = next == op.size() ? State::kReleasing : State::kLocking;
  }
};

class Pump {
 public:
  Pump(const WorkloadSpec& spec, std::uint64_t seed, std::size_t ops_per_node,
       bool instrumented, bool keep_stream)
      : ops_per_node_(ops_per_node), keep_stream_(keep_stream) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      const NodeId self{static_cast<std::uint32_t>(n)};
      std::unique_ptr<LockEngine> engine =
          std::make_unique<hlock::runtime::HierEngine>(self, NodeId{0});
      if (instrumented) {
        engine = std::make_unique<hlock::runtime::InstrumentedEngine>(
            std::move(engine), registry_,
            hlock::runtime::Protocol::kHierarchical, self);
      }
      engines_.push_back(std::move(engine));
      clients_.emplace_back(OpStream(spec, seed, self));
    }
    lamport_.assign(kNodes, 0);
  }

  CoreReplay run() {
    for (;;) {
      bool acted = false;
      for (std::size_t n = 0; n < kNodes; ++n) acted = act(n) || acted;
      const std::size_t deliveries = fifo_.size();
      for (std::size_t i = 0; i < deliveries; ++i) {
        Message message = std::move(fifo_.front());
        fifo_.pop_front();
        const std::size_t to = message.to.value();
        Effects effects = timed(out_.deliver_ns, [&] {
          return engines_[to]->deliver(message);
        });
        handle(to, std::move(effects), false);
      }
      if (!acted && deliveries == 0) break;
    }
    for (const PumpClient& client : clients_) {
      if (client.done != ops_per_node_) {
        throw std::runtime_error("core replay wedged before every op ended");
      }
      out_.ops += client.done;
    }
    const hlock::telemetry::Snapshot snapshot = registry_.snapshot();
    out_.forwards = snapshot.family_sum("hlock_engine_forwards_total");
    out_.freezes = snapshot.family_sum("hlock_engine_freezes_total");
    return std::move(out_);
  }

 private:
  /// Runs client `n` until it waits for a message or has ended
  /// kOpsPerRound ops; false if it could do nothing. A message hop costs a
  /// round, so a client whose grants are local ends several ops per hop,
  /// as on a live cluster where a local op takes a fraction of a remote
  /// round trip.
  bool act(std::size_t n) {
    PumpClient& client = clients_[n];
    const std::size_t limit = client.done + kOpsPerRound;
    bool acted = false;
    while (client.done < limit && step(n)) acted = true;
    return acted;
  }

  /// One engine call for client `n` if it can make progress.
  bool step(std::size_t n) {
    PumpClient& client = clients_[n];
    LockEngine& engine = *engines_[n];
    using State = PumpClient::State;
    if (client.state == State::kIdle) {
      if (client.done == ops_per_node_) return false;
      client.op = client.stream.next();
      client.next = 0;
      client.state = State::kLocking;
    }
    switch (client.state) {
      case State::kLocking: {
        const LockStep& step = client.op[client.next];
        Effects effects = timed(out_.request_ns, [&] {
          return engine.request(step.lock, step.mode);
        });
        client.state = State::kWaitGrant;
        handle(n, std::move(effects), true);
        return true;
      }
      case State::kUpgrading: {
        const LockId lock = client.op[client.next].lock;
        Effects effects =
            timed(out_.upgrade_ns, [&] { return engine.upgrade(lock); });
        client.state = State::kWaitUpgrade;
        handle(n, std::move(effects), false);
        return true;
      }
      case State::kReleasing: {
        const LockId lock = client.op[client.next - 1].lock;
        Effects effects =
            timed(out_.release_ns, [&] { return engine.release(lock); });
        if (--client.next == 0) {
          ++client.done;
          client.state = State::kIdle;
        }
        handle(n, std::move(effects), false);
        return true;
      }
      default:
        return false;
    }
  }

  template <typename Call>
  Effects timed(LatencyHistogram& histogram, Call&& call) {
    const std::uint64_t allocs = thread_allocations();
    const std::int64_t begin = now_ns();
    Effects effects = call();
    const std::int64_t took = now_ns() - begin;
    out_.step_allocs += thread_allocations() - allocs;
    histogram.record(took);
    out_.step_ns += static_cast<double>(took);
    ++out_.steps;
    return effects;
  }

  /// Applies one step's effects: grant bookkeeping, then the outgoing
  /// messages through the codec in the runtime's same-channel runs.
  void handle(std::size_t n, Effects&& effects, bool from_request) {
    PumpClient& client = clients_[n];
    if (effects.entered_cs) {
      ++out_.grants;
      if (from_request) ++out_.local_grants;
      client.acquired(false);
    }
    if (effects.upgraded) {
      ++out_.upgrades;
      client.acquired(true);
    }
    std::vector<Message>& messages = effects.messages;
    for (Message& message : messages) message.lamport = ++lamport_[n];
    std::size_t begin = 0;
    while (begin < messages.size()) {
      std::size_t end = begin + 1;
      while (end < messages.size() && messages[end].to == messages[begin].to) {
        ++end;
      }
      ship(std::span<const Message>(messages).subspan(begin, end - begin));
      begin = end;
    }
  }

  void ship(std::span<const Message> run) {
    const std::uint64_t allocs = thread_allocations();
    const std::int64_t t0 = now_ns();
    buffer_.clear();
    if (run.size() == 1) {
      hlock::proto::encode_into(run.front(), buffer_);
    } else {
      hlock::proto::encode_batch_into(run, buffer_);
    }
    const std::int64_t t1 = now_ns();
    std::vector<Message> decoded;
    if (run.size() == 1) {
      std::optional<Message> one = hlock::proto::decode(buffer_);
      if (one) decoded.push_back(std::move(*one));
    } else if (auto many = hlock::proto::decode_batch(buffer_)) {
      decoded = std::move(*many);
    }
    const std::int64_t t2 = now_ns();
    out_.proto_allocs += thread_allocations() - allocs;
    if (decoded.size() != run.size() ||
        !std::equal(decoded.begin(), decoded.end(), run.begin())) {
      throw std::runtime_error("codec round-trip changed a message");
    }
    out_.encode_ns += static_cast<double>(t1 - t0);
    out_.decode_ns += static_cast<double>(t2 - t1);
    out_.msgs += run.size();
    out_.bytes += buffer_.size();
    if (keep_stream_) out_.stream.push_back(decoded);
    for (Message& message : decoded) fifo_.push_back(std::move(message));
  }

  const std::size_t ops_per_node_;
  const bool keep_stream_;
  hlock::telemetry::Registry registry_;
  std::vector<std::unique_ptr<LockEngine>> engines_;
  std::vector<PumpClient> clients_;
  std::vector<std::uint64_t> lamport_;
  std::deque<Message> fifo_;
  std::vector<std::byte> buffer_;
  CoreReplay out_;
};

/// Times the upgrade call alone: U held at the token root, upgraded, released.
void upgrade_probe(LatencyHistogram& histogram) {
  hlock::runtime::HierEngine engine(NodeId{0}, NodeId{0});
  const LockId lock{0};
  for (int i = 0; i < kUpgradeProbeCalls; ++i) {
    engine.request(lock, LockMode::kU);
    const std::int64_t begin = now_ns();
    const Effects effects = engine.upgrade(lock);
    histogram.record(now_ns() - begin);
    if (!effects.upgraded) {
      throw std::runtime_error("probe upgrade at the token root waited");
    }
    engine.release(lock);
  }
}

}  // namespace

bool CoreReplay::same_counts(const CoreReplay& other) const {
  return ops == other.ops && steps == other.steps && grants == other.grants &&
         local_grants == other.local_grants && msgs == other.msgs &&
         bytes == other.bytes && step_allocs == other.step_allocs &&
         proto_allocs == other.proto_allocs && upgrades == other.upgrades;
}

CoreReplay replay_core(const WorkloadSpec& spec, std::uint64_t seed,
                       std::size_t ops_per_node, bool instrumented,
                       bool keep_stream) {
  CoreReplay replay =
      Pump(spec, seed, ops_per_node, instrumented, keep_stream).run();
  if (replay.upgrade_ns.count() == 0) {
    replay.upgrade_probe = true;
    upgrade_probe(replay.upgrade_ns);
  }
  return replay;
}

TransportReplay replay_transport(
    const std::vector<std::vector<Message>>& stream, std::size_t tcp_sends) {
  TransportReplay out;
  if (stream.empty()) return out;
  const auto push = [](hlock::transport::Transport& transport,
                       const std::vector<Message>& run) {
    std::vector<Message> copy = run;
    const NodeId to = run.front().to;
    const std::int64_t begin = now_ns();
    transport.send_batch(std::move(copy));
    for (std::size_t got = 0; got < run.size();) {
      got += transport.recv_ready(to).size();
    }
    return now_ns() - begin;
  };

  {
    hlock::transport::InProcTransport inproc(hlock::transport::InProcOptions{
        kNodes, hlock::DurationDist::constant(hlock::SimTime::ns(0)), 1, true,
        true});
    double total_ns = 0;
    std::uint64_t msgs = 0;
    for (const std::vector<Message>& run : stream) {
      total_ns += static_cast<double>(push(inproc, run));
      msgs += run.size();
    }
    out.inproc_msg_ns = total_ns / static_cast<double>(msgs);
    inproc.shutdown();
  }

  {
    hlock::transport::TcpTransport tcp(kNodes);
    // Untimed warm-up opens every channel the stream uses.
    const std::size_t warmup = std::min<std::size_t>(stream.size(), 200);
    for (std::size_t i = 0; i < warmup; ++i) push(tcp, stream[i]);
    double total_ns = 0;
    std::uint64_t msgs = 0;
    for (std::size_t i = 0; i < tcp_sends; ++i) {
      const std::vector<Message>& run = stream[i % stream.size()];
      total_ns += static_cast<double>(push(tcp, run));
      msgs += run.size();
    }
    out.tcp_msg_us = total_ns / 1e3 / static_cast<double>(msgs);
    tcp.shutdown();
  }
  return out;
}

RecoveryReplay replay_recovery() {
  constexpr int kTicks = 20'000;
  constexpr int kNotes = 300'000;
  hlock::runtime::HierEngine host(NodeId{0}, NodeId{0});
  hlock::recovery::Options options;
  options.enabled = true;
  hlock::recovery::Manager manager(NodeId{0}, kNodes, options, &host);
  RecoveryReplay out;

  hlock::SimTime now = hlock::SimTime::ms(1);
  const std::int64_t notes_begin = now_ns();
  for (int i = 0; i < kNotes; ++i) {
    manager.note_alive(NodeId{static_cast<std::uint32_t>(1 + i % 3)}, now);
  }
  out.note_alive_ns =
      static_cast<double>(now_ns() - notes_begin) / kNotes;

  double tick_ns = 0;
  for (int i = 0; i < kTicks; ++i) {
    now = now + hlock::SimTime::ms(1);
    for (std::uint32_t peer = 1; peer < kNodes; ++peer) {
      manager.note_alive(NodeId{peer}, now);
    }
    const std::int64_t begin = now_ns();
    hlock::recovery::Outcome outcome = manager.on_tick(now);
    tick_ns += static_cast<double>(now_ns() - begin);
  }
  out.on_tick_ns = tick_ns / kTicks;
  out.suspicions = manager.counters().suspicions;
  return out;
}

}  // namespace lockbench
