#include "runtime/sim_cluster.hpp"

#include <utility>

#include "util/check.hpp"

namespace hlock::runtime {

SimCluster::Node::Node(SimCluster& owner, NodeId id)
    : cluster(owner),
      self(id),
      core(id, owner.options_.node_count,
           make_engine(owner.options_.protocol, id, owner.options_.node_count,
                       owner.options_.initial_root, owner.options_.hier_config,
                       owner.options_.recovery.enabled),
           owner.options_.recovery, clock, *this) {}

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
  nodes_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(*this, NodeId{static_cast<std::uint32_t>(i)}));
  }
  if (options.recovery.enabled) schedule_recovery_tick();
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

SimCluster::Node& SimCluster::node_at(NodeId node) const {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return *nodes_[node.value()];
}

LockEngine& SimCluster::engine(NodeId node) {
  return node_at(node).core.engine();
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

NodeCore* SimCluster::live_core(NodeId node) {
  Node& n = node_at(node);
  return n.alive ? &n.core : nullptr;
}

void SimCluster::request(NodeId node, LockId lock, LockMode mode,
                         std::uint8_t priority) {
  if (NodeCore* core = live_core(node)) core->request(lock, mode, priority);
}

void SimCluster::release(NodeId node, LockId lock) {
  if (NodeCore* core = live_core(node)) core->release(lock);
}

void SimCluster::upgrade(NodeId node, LockId lock) {
  if (NodeCore* core = live_core(node)) core->upgrade(lock);
}

void SimCluster::kill_at(NodeId node, SimTime at) {
  node_at(node);  // validates the id
  HLOCK_REQUIRE(options_.recovery.enabled,
                "kill_at() requires recovery to be enabled — without it the "
                "survivors could never regenerate the token");
  simulator_.schedule_at(at, [this, node] { crash(node); });
}

bool SimCluster::alive(NodeId node) const { return node_at(node).alive; }

recovery::Manager& SimCluster::manager(NodeId node) {
  HLOCK_REQUIRE(options_.recovery.enabled,
                "recovery is not enabled on this cluster");
  return *node_at(node).core.manager();
}

std::uint64_t SimCluster::stale_drops(NodeId node) const {
  const recovery::Manager* manager = node_at(node).core.manager();
  return manager == nullptr ? 0 : manager->counters().stale_drops;
}

std::uint64_t SimCluster::total_stale_drops() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    total += stale_drops(NodeId{static_cast<std::uint32_t>(i)});
  }
  return total;
}

void SimCluster::crash(NodeId node) {
  Node& n = node_at(node);
  if (!n.alive) return;  // double kill: the first one wins
  n.alive = false;
  n.core.crash();
}

void SimCluster::schedule_recovery_tick() {
  // One shared ticker drives every live node's failure detector; it stops
  // rescheduling past the horizon so run_to_completion() terminates.
  const SimTime next = simulator_.now() + options_.recovery.heartbeat_interval;
  if (next > options_.recovery_horizon) return;
  simulator_.schedule_at(next, [this] {
    for (const auto& node : nodes_) {
      if (node->alive) node->core.tick();
    }
    schedule_recovery_tick();
  });
}

void SimCluster::Node::sink(std::vector<trace::TraceEvent>& events) {
  if (!cluster.event_observer_) return;
  for (trace::TraceEvent& event : events) {
    cluster.event_observer_(std::move(event));
  }
}

void SimCluster::Node::send(std::vector<proto::Message>& messages) {
  for (const proto::Message& message : messages) cluster.transmit(message);
}

void SimCluster::Node::grant(LockId lock, bool upgraded) {
  HLOCK_INVARIANT(static_cast<bool>(cluster.grant_handler_),
                  "a grant fired but no grant handler is registered");
  cluster.grant_handler_(self, lock, upgraded);
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
  // Crashed receivers consume nothing.
  if (NodeCore* core = live_core(message.to)) core->receive(message);
}

}  // namespace hlock::runtime
