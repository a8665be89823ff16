#include "recovery/host.hpp"

#include "core/hier_automaton.hpp"

namespace hlock::recovery {

LockReport hier_report(const core::HierAutomaton& automaton) {
  LockReport r;
  r.epoch = automaton.recovery_epoch();
  r.has_token = automaton.is_token();
  r.held = automaton.held();
  r.upgrading = automaton.upgrading();
  // An upgrader does not report as waiting: its pending W is preserved as
  // an in-flight Rule 7 upgrade at the root, not re-queued.
  r.waiting = !automaton.upgrading() && automaton.pending() != LockMode::kNL;
  if (r.waiting) {
    r.wait_mode = automaton.pending();
    r.wait_seq = automaton.pending_seq();
    r.wait_priority = automaton.pending_priority();
  }
  return r;
}

}  // namespace hlock::recovery
