#include "runtime/engine.hpp"

#include <algorithm>

namespace hlock::runtime {

namespace {

[[noreturn]] void no_recovery() {
  throw UsageError("this protocol has no crash-recovery support");
}

}  // namespace

std::string to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kHierarchical:
      return "hierarchical";
    case Protocol::kNaimi:
      return "naimi";
    case Protocol::kRaymond:
      return "raymond";
  }
  return "?";
}

recovery::LockReport NaimiTraits::report(const Automaton& a) {
  recovery::LockReport r;
  r.epoch = a.recovery_epoch();
  r.has_token = a.has_token();
  // Naimi's single exclusive mode maps onto kW for the fence's holder
  // bookkeeping (only "inside the CS" counts as holding).
  r.held = a.in_cs() ? LockMode::kW : LockMode::kNL;
  r.waiting = a.requesting();
  if (r.waiting) {
    r.wait_mode = LockMode::kW;
    r.wait_seq = a.pending_seq();
  }
  return r;
}

RaymondTraits::RaymondTraits(NodeId self, std::size_t node_count) {
  HLOCK_REQUIRE(self.value() < node_count, "self must be within the tree");
  position = raymond::balanced_tree(node_count)[self.value()];
  // Non-root holders point toward node 0; the root holds the token.
  if (self == initial_root) position.holder = self;
}

template <typename Traits>
typename Traits::Automaton& BasicEngine<Traits>::automaton(LockId lock) {
  // Single hash lookup on the hot path: try_emplace forwards the
  // constructor arguments and only builds the automaton when the lock is
  // new.
  return std::apply(
      [&](const auto&... args) -> Automaton& {
        return automatons_.try_emplace(lock, args...).first->second;
      },
      traits_.automaton_args(self_, lock, origin_));
}

template <typename Traits>
Effects BasicEngine<Traits>::request(LockId lock, LockMode mode,
                                     std::uint8_t priority) {
  return Traits::request(automaton(lock), mode, priority);
}

template <typename Traits>
Effects BasicEngine<Traits>::release(LockId lock) {
  return automaton(lock).release();
}

template <typename Traits>
Effects BasicEngine<Traits>::upgrade(LockId lock) {
  return Traits::upgrade(automaton(lock));
}

template <typename Traits>
Effects BasicEngine<Traits>::deliver(const proto::Message& message) {
  return automaton(message.lock).on_message(message);
}

template <typename Traits>
bool BasicEngine<Traits>::holds(LockId lock) const {
  const auto it = automatons_.find(lock);
  return it != automatons_.end() && Traits::holds(it->second);
}

template <typename Traits>
std::size_t BasicEngine<Traits>::queued_requests() const {
  std::size_t total = 0;
  for (const auto& [lock, a] : automatons_) total += Traits::queued(a);
  return total;
}

template <typename Traits>
std::size_t BasicEngine<Traits>::tokens_held() const {
  std::size_t total = 0;
  for (const auto& [lock, a] : automatons_) {
    total += Traits::has_token(a) ? 1u : 0u;
  }
  return total;
}

template <typename Traits>
std::vector<LockId> BasicEngine<Traits>::recovery_locks() {
  if constexpr (!Traits::kRecovery) no_recovery();
  std::vector<LockId> locks;
  locks.reserve(automatons_.size());
  for (const auto& [lock, a] : automatons_) locks.push_back(lock);
  std::sort(locks.begin(), locks.end());
  return locks;
}

template <typename Traits>
recovery::LockReport BasicEngine<Traits>::report(LockId lock) {
  if constexpr (Traits::kRecovery) {
    return Traits::report(automaton(lock));
  } else {
    no_recovery();
  }
}

template <typename Traits>
Effects BasicEngine<Traits>::install_fence(LockId lock,
                                           const proto::EpochFence& fence) {
  if constexpr (Traits::kRecovery) {
    return automaton(lock).install_fence(fence);
  } else {
    no_recovery();
  }
}

template <typename Traits>
std::uint32_t BasicEngine<Traits>::recovery_epoch(LockId lock) {
  if constexpr (Traits::kRecovery) {
    // A lock this node has not touched would be lazily created in the
    // origin epoch, so that is its effective epoch: reporting 0 here would
    // make the gate park the first post-recovery message for the lock
    // forever (the node is not halted, so parked messages are never
    // replayed).
    const auto it = automatons_.find(lock);
    return it == automatons_.end() ? origin_.epoch
                                   : it->second.recovery_epoch();
  } else {
    no_recovery();
  }
}

template <typename Traits>
void BasicEngine<Traits>::set_default_origin(NodeId root,
                                             std::uint32_t epoch) {
  if constexpr (!Traits::kRecovery) no_recovery();
  origin_ = Origin{root, epoch};
}

template class BasicEngine<HierTraits>;
template class BasicEngine<NaimiTraits>;
template class BasicEngine<RaymondTraits>;

std::unique_ptr<LockEngine> make_engine(Protocol protocol, NodeId self,
                                        std::size_t node_count,
                                        NodeId initial_root,
                                        const core::HierConfig& hier_config,
                                        bool recovery) {
  switch (protocol) {
    case Protocol::kHierarchical:
      return std::make_unique<HierEngine>(self, initial_root, hier_config);
    case Protocol::kNaimi:
      return std::make_unique<NaimiEngine>(self, initial_root);
    case Protocol::kRaymond:
      HLOCK_REQUIRE(!recovery,
                    "crash recovery is not supported for the Raymond baseline");
      HLOCK_REQUIRE(initial_root == NodeId{0},
                    "the Raymond tree is rooted at node 0");
      return std::make_unique<RaymondEngine>(self, node_count);
  }
  HLOCK_INVARIANT(false, "unknown protocol");
  return nullptr;
}

}  // namespace hlock::runtime
