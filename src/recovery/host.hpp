// Engine-side interface of the crash-recovery layer.
//
// The recovery::Manager is protocol-agnostic: it gathers per-lock state
// reports, elects a new token root, broadcasts epoch fences and gates every
// incoming protocol message without knowing whether the node runs the
// hierarchical protocol or the Naimi baseline. Everything protocol-specific
// happens behind this Host interface, implemented by runtime::LockEngine
// (Raymond's static-tree baseline has no recovery story and rejects it) and
// by the model checker's single-lock adapter. See docs/recovery.md for the
// full walkthrough.
#pragma once

#include <cstdint>
#include <vector>

#include "core/effects.hpp"
#include "proto/ids.hpp"
#include "proto/lock_mode.hpp"
#include "proto/message.hpp"

namespace hlock::core {
class HierAutomaton;
}  // namespace hlock::core

namespace hlock::recovery {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

/// One lock's state as reported to the recovery coordinator. The reporting
/// node has halted protocol processing, so these fields account for every
/// old-epoch message it will ever act on; the coordinator reconstructs the
/// lock's global state purely from these reports.
struct LockReport {
  std::uint32_t epoch = 0;        ///< reporter's current recovery epoch
  bool has_token = false;
  LockMode held = LockMode::kNL;  ///< Naimi reports kW while inside its CS
  bool waiting = false;           ///< a request is pending at the reporter
  LockMode wait_mode = LockMode::kNL;
  std::uint64_t wait_seq = 0;
  std::uint8_t wait_priority = 0;
  bool upgrading = false;  ///< Rule 7 upgrade in flight (hier only; such a
                           ///< node reports waiting=false — the fence
                           ///< preserves the upgrade at the root instead of
                           ///< queueing its pending W)
};

/// What the Manager needs from the node's protocol engine. All calls are
/// made under whatever serialization the runtime already provides for the
/// engine (managers never synchronize themselves).
class Host {
 public:
  virtual ~Host() = default;

  /// Lock ids this node holds protocol state for, in ascending id order
  /// (determinism: report message sequences must be identical across runs).
  virtual std::vector<LockId> recovery_locks() = 0;

  /// This node's report for `lock`.
  virtual LockReport report(LockId lock) = 0;

  /// Applies a fence to `lock`'s automaton (creating it if this node never
  /// touched the lock); returns the automaton's effects, which the runtime
  /// applies exactly like any protocol step.
  virtual core::Effects install_fence(LockId lock,
                                      const proto::EpochFence& fence) = 0;

  /// `lock`'s current recovery epoch, used by the Manager's gate to route
  /// incoming protocol messages: older epoch = stale drop, newer epoch =
  /// park until the local fence arrives. A lock this node has never touched
  /// reports the epoch its automaton would be created in (the one from the
  /// last set_default_origin), never 0 — 0 would park the first
  /// post-recovery message for a fresh lock forever.
  virtual std::uint32_t recovery_epoch(LockId lock) = 0;

  /// Delivers one protocol message that passed the gate to the addressed
  /// lock's automaton (creating it if needed); returns its effects, which
  /// the runtime applies exactly like any protocol step.
  virtual core::Effects deliver(const proto::Message& message) = 0;

  /// Sets the origin for locks first touched after a recovery: their lazily
  /// created automatons root at `root` and start in `epoch` (the pre-crash
  /// default root may be dead).
  virtual void set_default_origin(NodeId root, std::uint32_t epoch) = 0;
};

/// The hierarchical automaton's report. One mapping for every Host that
/// runs the hierarchical protocol (runtime::HierEngine and the model
/// checker's adapter).
LockReport hier_report(const core::HierAutomaton& automaton);

}  // namespace hlock::recovery
