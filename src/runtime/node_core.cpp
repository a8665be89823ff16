#include "runtime/node_core.hpp"

#include <utility>

namespace hlock::runtime {

NodeCore::NodeCore(NodeId self, std::size_t node_count,
                   std::unique_ptr<LockEngine> engine,
                   const recovery::Options& recovery,
                   obs::AtomicLamportClock& clock, NodePort& port)
    : engine_(std::move(engine)), clock_(clock), port_(port) {
  if (recovery.enabled) {
    manager_ = std::make_unique<recovery::Manager>(self, node_count, recovery,
                                                   engine_.get());
  }
}

void NodeCore::call(const Call& c) {
  if (manager_ != nullptr && manager_->halted()) {
    halted_calls_.push_back(c);
    return;
  }
  switch (c.kind) {
    case Call::Kind::kRequest:
      return apply(c.lock, engine_->request(c.lock, c.mode, c.priority));
    case Call::Kind::kRelease:
      return apply(c.lock, engine_->release(c.lock));
    case Call::Kind::kUpgrade:
      return apply(c.lock, engine_->upgrade(c.lock));
  }
}

void NodeCore::receive(const proto::Message& message) {
  clock_.observe(message.lamport);
  if (manager_ == nullptr) {
    apply(message.lock, engine_->deliver(message));
  } else {
    apply(manager_->on_message(message, port_.now()));
  }
}

void NodeCore::tick() {
  if (manager_ != nullptr) apply(manager_->on_tick(port_.now()));
}

void NodeCore::crash() {
  if (manager_ != nullptr) manager_->discard_backlog();
  halted_calls_.clear();
}

void NodeCore::apply(LockId lock, Effects&& effects) {
  emit(effects.events, effects.messages);
  if (effects.entered_cs || effects.upgraded) {
    port_.grant(lock, effects.upgraded);
  }
}

void NodeCore::apply(recovery::Outcome&& outcome) {
  // A plain gated delivery has no events or messages of its own and is
  // stamped by its effects alone.
  if (!outcome.events.empty() || !outcome.messages.empty()) {
    emit(outcome.events, outcome.messages);
  }
  for (auto& [lock, effects] : outcome.effects) {
    apply(lock, std::move(effects));
  }
  if (!outcome.unhalted) return;
  // Moved out first: a grant handler may issue new calls meanwhile.
  const std::vector<Call> calls = std::exchange(halted_calls_, {});
  for (const Call& c : calls) call(c);
}

void NodeCore::emit(std::vector<trace::TraceEvent>& events,
                    std::vector<proto::Message>& messages) {
  // Events are sunk before the step's messages go out, so a sink's global
  // order respects causality (an exit-cs precedes the enter-cs it enables).
  const std::uint64_t step_time = clock_.tick();
  if (!events.empty()) {
    const SimTime at = port_.now();
    for (trace::TraceEvent& event : events) {
      event.at = at;
      event.lamport = step_time;
    }
    port_.sink(events);
  }
  if (!messages.empty()) {
    for (proto::Message& message : messages) message.lamport = clock_.tick();
    port_.send(messages);
  }
}

}  // namespace hlock::runtime
