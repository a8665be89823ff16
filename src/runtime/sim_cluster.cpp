#include "runtime/sim_cluster.hpp"

#include <utility>

#include "util/check.hpp"

namespace hlock::runtime {

SimCluster::SimCluster(const SimClusterOptions& options)
    : options_(options),
      network_(options.message_latency, Rng{options.seed}.split(0xABCDu)),
      loss_rng_(Rng{options.seed}.split(0x105Eu)) {
  HLOCK_REQUIRE(options.node_count >= 1, "a cluster needs at least one node");
  HLOCK_REQUIRE(options.message_loss_probability >= 0.0 &&
                    options.message_loss_probability <= 1.0,
                "loss probability must be within [0, 1]");
  HLOCK_REQUIRE(options.initial_root.value() < options.node_count,
                "the initial root must be one of the cluster's nodes");
  clocks_.resize(options.node_count);
  engines_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    engines_.push_back(make_engine(
        options.protocol, NodeId{static_cast<std::uint32_t>(i)},
        options.node_count, options.initial_root, options.hier_config,
        options.recovery.enabled));
  }
  alive_.assign(options.node_count, 1);
  if (options.recovery.enabled) {
    managers_.reserve(options.node_count);
    for (std::size_t i = 0; i < options.node_count; ++i) {
      managers_.push_back(std::make_unique<recovery::Manager>(
          NodeId{static_cast<std::uint32_t>(i)}, options.node_count,
          options.recovery, engines_[i].get()));
    }
    halted_ops_.resize(options.node_count);
    schedule_recovery_tick();
  }
}

void SimCluster::set_grant_handler(GrantHandler handler) {
  grant_handler_ = std::move(handler);
}

void SimCluster::set_message_observer(MessageObserver observer) {
  message_observer_ = std::move(observer);
}

void SimCluster::set_event_observer(EventObserver observer) {
  event_observer_ = std::move(observer);
}

LockEngine& SimCluster::engine(NodeId node) {
  HLOCK_REQUIRE(node.value() < engines_.size(), "unknown node id");
  return *engines_[node.value()];
}

core::HierAutomaton& SimCluster::hier_automaton(NodeId node, LockId lock) {
  HLOCK_REQUIRE(options_.protocol == Protocol::kHierarchical,
                "cluster does not run the hierarchical protocol");
  return static_cast<HierEngine&>(engine(node)).automaton(lock);
}

naimi::NaimiAutomaton& SimCluster::naimi_automaton(NodeId node, LockId lock) {
  HLOCK_REQUIRE(options_.protocol == Protocol::kNaimi,
                "cluster does not run the Naimi protocol");
  return static_cast<NaimiEngine&>(engine(node)).automaton(lock);
}

raymond::RaymondAutomaton& SimCluster::raymond_automaton(NodeId node,
                                                         LockId lock) {
  HLOCK_REQUIRE(options_.protocol == Protocol::kRaymond,
                "cluster does not run the Raymond protocol");
  return static_cast<RaymondEngine&>(engine(node)).automaton(lock);
}

bool SimCluster::admit(NodeId node, const PendingOp& op) {
  HLOCK_REQUIRE(node.value() < engines_.size(), "unknown node id");
  if (!alive_[node.value()]) return false;  // crashed nodes ignore the app
  if (recovery_on() && managers_[node.value()]->halted()) {
    halted_ops_[node.value()].push_back(op);
    return false;
  }
  return true;
}

void SimCluster::request(NodeId node, LockId lock, LockMode mode,
                         std::uint8_t priority) {
  if (admit(node, {PendingOp::Kind::kRequest, lock, mode, priority})) {
    apply(node, lock, engine(node).request(lock, mode, priority));
  }
}

void SimCluster::release(NodeId node, LockId lock) {
  if (admit(node, {PendingOp::Kind::kRelease, lock, LockMode::kNL, 0})) {
    apply(node, lock, engine(node).release(lock));
  }
}

void SimCluster::upgrade(NodeId node, LockId lock) {
  if (admit(node, {PendingOp::Kind::kUpgrade, lock, LockMode::kNL, 0})) {
    apply(node, lock, engine(node).upgrade(lock));
  }
}

void SimCluster::kill_at(NodeId node, SimTime at) {
  HLOCK_REQUIRE(node.value() < engines_.size(), "unknown node id");
  HLOCK_REQUIRE(recovery_on(),
                "kill_at() requires recovery to be enabled — without it the "
                "survivors could never regenerate the token");
  simulator_.schedule_at(at, [this, node] { crash(node); });
}

bool SimCluster::alive(NodeId node) const {
  HLOCK_REQUIRE(node.value() < engines_.size(), "unknown node id");
  return alive_[node.value()] != 0;
}

recovery::Manager& SimCluster::manager(NodeId node) {
  HLOCK_REQUIRE(node.value() < engines_.size(), "unknown node id");
  HLOCK_REQUIRE(recovery_on(), "recovery is not enabled on this cluster");
  return *managers_[node.value()];
}

std::uint64_t SimCluster::stale_drops(NodeId node) const {
  HLOCK_REQUIRE(node.value() < engines_.size(), "unknown node id");
  return recovery_on() ? managers_[node.value()]->counters().stale_drops : 0;
}

std::uint64_t SimCluster::total_stale_drops() const {
  std::uint64_t total = 0;
  for (const auto& manager : managers_) {
    total += manager->counters().stale_drops;
  }
  return total;
}

void SimCluster::crash(NodeId node) {
  if (!alive_[node.value()]) return;  // double kill: the first one wins
  alive_[node.value()] = 0;
  // A crash-stop loses all volatile state; whatever was buffered for the
  // node dies with it.
  managers_[node.value()]->discard_backlog();
  halted_ops_[node.value()].clear();
}

void SimCluster::schedule_recovery_tick() {
  // One shared ticker drives every live node's failure detector; it stops
  // rescheduling past the horizon so run_to_completion() terminates.
  const SimTime next = simulator_.now() + options_.recovery.heartbeat_interval;
  if (next > options_.recovery_horizon) return;
  simulator_.schedule_at(next, [this] {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (!alive_[i]) continue;
      apply_outcome(NodeId{static_cast<std::uint32_t>(i)},
                    managers_[i]->on_tick(simulator_.now()));
    }
    schedule_recovery_tick();
  });
}

void SimCluster::emit(NodeId node, std::vector<trace::TraceEvent>& events,
                      std::vector<proto::Message>& messages) {
  // One Lamport tick per step; every event of the step shares it, every
  // send ticks further (obs/lamport.hpp).
  obs::LamportClock& clock = clocks_[node.value()];
  const std::uint64_t step_time = clock.tick();
  if (event_observer_) {
    for (trace::TraceEvent& event : events) {
      event.at = simulator_.now();
      event.lamport = step_time;
      event_observer_(std::move(event));
    }
  }
  for (proto::Message& message : messages) {
    message.lamport = clock.tick();
    transmit(message);
  }
}

void SimCluster::apply(NodeId node, LockId lock, Effects&& effects) {
  emit(node, effects.events, effects.messages);
  if (effects.entered_cs || effects.upgraded) {
    HLOCK_INVARIANT(static_cast<bool>(grant_handler_),
                    "a grant fired but no grant handler is registered");
    grant_handler_(node, lock, effects.upgraded);
  }
}

void SimCluster::apply_outcome(NodeId node, recovery::Outcome&& outcome) {
  // The Manager's own events and messages form one Lamport step; a plain
  // gated delivery has neither and is stamped by apply() alone.
  if (!outcome.events.empty() || !outcome.messages.empty()) {
    emit(node, outcome.events, outcome.messages);
  }
  for (auto& [lock, effects] : outcome.effects) {
    apply(node, lock, std::move(effects));
  }
  if (outcome.unhalted) replay_ops(node);
}

void SimCluster::replay_ops(NodeId node) {
  // The Manager already replayed the node's buffered messages (their
  // effects were applied above); the buffered application operations
  // follow, through the normal paths.
  std::vector<PendingOp> ops = std::move(halted_ops_[node.value()]);
  halted_ops_[node.value()].clear();
  for (const PendingOp& op : ops) {
    switch (op.kind) {
      case PendingOp::Kind::kRequest:
        request(node, op.lock, op.mode, op.priority);
        break;
      case PendingOp::Kind::kRelease:
        release(node, op.lock);
        break;
      case PendingOp::Kind::kUpgrade:
        upgrade(node, op.lock);
        break;
    }
  }
}

void SimCluster::transmit(const proto::Message& message) {
  metrics_.messages().add(proto::kind_of(message.payload));
  if (message_observer_) message_observer_(simulator_.now(), message);
  if (options_.message_loss_probability > 0.0 &&
      loss_rng_.chance(options_.message_loss_probability)) {
    return;  // injected loss: the message vanishes after being counted
  }
  const SimTime at =
      network_.delivery_time(simulator_.now(), message.from, message.to);
  simulator_.schedule_at(at, [this, message] { deliver(message); });
}

void SimCluster::deliver(const proto::Message& message) {
  const std::size_t to = message.to.value();
  if (!alive_[to]) return;  // crashed receivers consume nothing
  clocks_[to].observe(message.lamport);
  if (recovery_on()) {
    // Messages a node sent before its crash still refresh its detector
    // entry, exactly as over a real network.
    apply_outcome(message.to,
                  managers_[to]->on_message(message, simulator_.now()));
    return;
  }
  apply(message.to, message.lock, engine(message.to).deliver(message));
}

}  // namespace hlock::runtime
