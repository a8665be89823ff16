// Per-node protocol engines.
//
// A LockEngine bundles all per-lock automatons of one node behind a
// protocol-agnostic interface, so cluster harnesses and workload drivers
// run identically over the hierarchical protocol and the Naimi and Raymond
// baselines. As in the paper, a node runs one independent automaton per
// lock, so an engine is only a lazily filled map of automatons: one
// template, BasicEngine, owns that map for every protocol, and a small
// traits struct per protocol supplies what differs (how an automaton is
// built, how the operations map onto it, what counts as holding, a token
// or a queued request, and the crash-recovery report). Every engine in a
// cluster must agree on the initial token holder (`initial_root`), which
// starts as the root of every lock's probable-owner tree (a star, as in the
// paper's "initially, the root is the token owner").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/effects.hpp"
#include "core/hier_automaton.hpp"
#include "naimi/naimi_automaton.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "raymond/raymond_automaton.hpp"
#include "recovery/host.hpp"
#include "util/check.hpp"

namespace hlock::runtime {

using core::Effects;
using proto::LockId;
using proto::LockMode;
using proto::NodeId;

/// Which protocol a cluster of engines runs.
enum class Protocol {
  kHierarchical,  ///< the paper's multi-mode protocol (src/core)
  kNaimi,         ///< the Naimi-Tréhel baseline (src/naimi)
  kRaymond,       ///< Raymond's static-tree baseline (src/raymond)
};

/// Returns "hierarchical", "naimi" or "raymond".
std::string to_string(Protocol protocol);

/// True for single-exclusive-mode protocols (Naimi, Raymond), which ignore
/// request modes and map any workload onto exclusive acquisitions.
inline bool is_mode_less(Protocol protocol) {
  return protocol != Protocol::kHierarchical;
}

/// Protocol-agnostic face of one node: issue requests, releases, upgrades
/// and deliver incoming messages; every call returns the effects to apply.
///
/// Engines double as the recovery::Host of the node's recovery::Manager
/// (docs/recovery.md). A protocol without crash recovery (Raymond's static
/// tree cannot re-root) rejects the Host calls with UsageError.
class LockEngine : public recovery::Host {
 public:
  ~LockEngine() override = default;

  /// Requests `lock` in `mode` (mode and priority are ignored by mode-less
  /// protocols).
  virtual Effects request(LockId lock, LockMode mode,
                          std::uint8_t priority = 0) = 0;
  /// Releases the held lock.
  virtual Effects release(LockId lock) = 0;
  /// Upgrades U -> W (Rule 7); only meaningful for the hierarchical
  /// protocol — mode-less engines reject it.
  virtual Effects upgrade(LockId lock) = 0;
  /// Delivers one incoming message to the addressed lock's automaton.
  Effects deliver(const proto::Message& message) override = 0;
  /// True if this node currently holds `lock` (in any mode).
  virtual bool holds(LockId lock) const = 0;
  /// Requests queued locally at this node across all locks (telemetry;
  /// waiting lists threaded through remote nodes count at the node that
  /// queues them).
  virtual std::size_t queued_requests() const = 0;
  /// Locks whose token currently rests at this node (telemetry).
  virtual std::size_t tokens_held() const = 0;
};

/// Where lazily created automatons root their token tree, and the recovery
/// epoch they start in. Rebased by set_default_origin() after a crash
/// recovery (the pre-crash root may be dead).
struct Origin {
  NodeId root;
  std::uint32_t epoch = 0;
};

/// The hierarchical protocol's engine parameters and automaton mapping.
struct HierTraits {
  using Automaton = core::HierAutomaton;
  static constexpr bool kRecovery = true;

  HierTraits(NodeId /*self*/, NodeId root, core::HierConfig hier_config = {})
      : initial_root(root), config(hier_config) {}

  NodeId initial_root;
  core::HierConfig config;

  /// Constructor arguments of `lock`'s automaton at `self`.
  std::tuple<NodeId, LockId, bool, NodeId, const core::HierConfig&,
             std::uint32_t>
  automaton_args(NodeId self, LockId lock, const Origin& origin) const {
    const bool is_root = self == origin.root;
    return {self,   lock,   is_root, is_root ? NodeId::none() : origin.root,
            config, origin.epoch};
  }
  static Effects request(Automaton& a, LockMode mode, std::uint8_t priority) {
    return a.request(mode, priority);
  }
  static Effects upgrade(Automaton& a) { return a.upgrade(); }
  static bool holds(const Automaton& a) { return a.held() != LockMode::kNL; }
  static bool has_token(const Automaton& a) { return a.is_token(); }
  static std::size_t queued(const Automaton& a) { return a.queue().size(); }
  static recovery::LockReport report(const Automaton& a) {
    return recovery::hier_report(a);
  }
};

/// The Naimi-Tréhel baseline (single exclusive mode).
struct NaimiTraits {
  using Automaton = naimi::NaimiAutomaton;
  static constexpr bool kRecovery = true;

  NaimiTraits(NodeId /*self*/, NodeId root) : initial_root(root) {}

  NodeId initial_root;

  std::tuple<NodeId, LockId, bool, NodeId, std::uint32_t> automaton_args(
      NodeId self, LockId lock, const Origin& origin) const {
    const bool is_root = self == origin.root;
    return {self, lock, is_root, is_root ? NodeId::none() : origin.root,
            origin.epoch};
  }
  static Effects request(Automaton& a, LockMode /*mode*/,
                         std::uint8_t /*priority*/) {
    return a.request();
  }
  [[noreturn]] static Effects upgrade(Automaton& /*a*/) {
    throw UsageError("the Naimi baseline has no upgrade operation");
  }
  static bool holds(const Automaton& a) { return a.in_cs(); }
  static bool has_token(const Automaton& a) { return a.has_token(); }
  /// Naimi's waiting list is distributed: each node knows only its own
  /// successor, so "queued here" = a non-none next pointer.
  static std::size_t queued(const Automaton& a) {
    return a.next().is_none() ? 0u : 1u;
  }
  static recovery::LockReport report(const Automaton& a);
};

/// Raymond's static-tree baseline on a balanced binary tree rooted at node
/// 0 (the initial token holder of every lock). Its tree cannot re-root, so
/// it has no crash recovery.
struct RaymondTraits {
  using Automaton = raymond::RaymondAutomaton;
  static constexpr bool kRecovery = false;

  RaymondTraits(NodeId self, std::size_t node_count);

  NodeId initial_root{0};
  raymond::TreeNode position;  ///< this node's place in the static tree

  std::tuple<NodeId, LockId, NodeId, const std::vector<NodeId>&>
  automaton_args(NodeId self, LockId lock, const Origin& /*origin*/) const {
    return {self, lock, position.holder, position.neighbors};
  }
  static Effects request(Automaton& a, LockMode /*mode*/,
                         std::uint8_t /*priority*/) {
    return a.request();
  }
  [[noreturn]] static Effects upgrade(Automaton& /*a*/) {
    throw UsageError("Raymond's baseline has no upgrade operation");
  }
  static bool holds(const Automaton& a) { return a.in_cs(); }
  static bool has_token(const Automaton& a) { return a.has_token(); }
  static std::size_t queued(const Automaton& a) {
    return a.request_queue().size();
  }
};

/// One node's engine for the protocol `Traits` describes: the lazily
/// filled per-lock automaton map, its default origin and the recovery Host
/// over it. Member definitions live in engine.cpp, instantiated for the
/// three protocols.
template <typename Traits>
class BasicEngine final : public LockEngine {
 public:
  using Automaton = typename Traits::Automaton;

  /// `args` are the protocol's engine parameters after `self` — see the
  /// HierEngine / NaimiEngine / RaymondEngine constructors below.
  template <typename... Args>
  explicit BasicEngine(NodeId self, Args&&... args)
      : self_(self),
        traits_(self, std::forward<Args>(args)...),
        origin_{traits_.initial_root, 0} {
    HLOCK_REQUIRE(!origin_.root.is_none(), "a cluster needs an initial root");
  }

  Effects request(LockId lock, LockMode mode,
                  std::uint8_t priority = 0) override;
  Effects release(LockId lock) override;
  Effects upgrade(LockId lock) override;
  Effects deliver(const proto::Message& message) override;
  bool holds(LockId lock) const override;
  std::size_t queued_requests() const override;
  std::size_t tokens_held() const override;

  // recovery::Host; UsageError unless Traits::kRecovery.
  std::vector<LockId> recovery_locks() override;
  recovery::LockReport report(LockId lock) override;
  Effects install_fence(LockId lock,
                        const proto::EpochFence& fence) override;
  std::uint32_t recovery_epoch(LockId lock) override;
  void set_default_origin(NodeId root, std::uint32_t epoch) override;

  /// Direct access for invariant checks and tests; creates the automaton
  /// if this node has not touched the lock yet.
  Automaton& automaton(LockId lock);

 private:
  const NodeId self_;
  const Traits traits_;
  Origin origin_;
  std::unordered_map<LockId, Automaton> automatons_;
};

extern template class BasicEngine<HierTraits>;
extern template class BasicEngine<NaimiTraits>;
extern template class BasicEngine<RaymondTraits>;

/// Engine running the paper's hierarchical multi-mode protocol:
/// HierEngine(self, initial_root, core::HierConfig config = {}).
using HierEngine = BasicEngine<HierTraits>;
/// Engine running the Naimi-Tréhel baseline: NaimiEngine(self,
/// initial_root).
using NaimiEngine = BasicEngine<NaimiTraits>;
/// Engine running Raymond's baseline: RaymondEngine(self, node_count).
using RaymondEngine = BasicEngine<RaymondTraits>;

/// Builds `self`'s engine for a `node_count`-node cluster running
/// `protocol` — the one place that checks what a protocol supports
/// (Raymond's tree is rooted at node 0 and has no crash recovery).
/// `hier_config` is ignored by the baselines.
std::unique_ptr<LockEngine> make_engine(Protocol protocol, NodeId self,
                                        std::size_t node_count,
                                        NodeId initial_root,
                                        const core::HierConfig& hier_config,
                                        bool recovery);

}  // namespace hlock::runtime
