// Protocol messages.
//
// Both protocols (the hierarchical multi-mode protocol of the paper and the
// Naimi-Tréhel baseline) communicate exclusively through the Message
// envelope below. Payloads are a closed std::variant so transports and the
// simulator can route and count messages without knowing protocol details,
// while automatons dispatch exhaustively (a new payload type is a compile
// error in every switch).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "proto/ids.hpp"
#include "proto/lock_mode.hpp"

namespace hlock::proto {

/// One request waiting in a local queue: who wants the lock, in which mode
/// and at which priority. `seq` is the issuer-side sequence number, carried
/// for diagnostics and FIFO-fairness checks in tests (the queue order
/// itself defines FIFO within a priority level).
///
/// `priority` (0 = default, larger = more urgent) implements the prioritized
/// token-based extension of Mueller's prior work the paper builds on
/// (its refs [15, 16]): queues order by priority first, FIFO within equal
/// priorities. All-zero priorities reduce to the paper's pure FIFO.
struct QueuedRequest {
  NodeId requester;
  LockMode mode = LockMode::kNL;
  std::uint64_t seq = 0;
  std::uint8_t priority = 0;

  bool operator==(const QueuedRequest&) const = default;
};

// ---- Hierarchical protocol payloads (paper §3.2-§3.4) ----

/// A lock request travelling up the probable-owner (parent) chain toward a
/// node able to grant it (Rules 2-4). `requester` is the origin, which may
/// differ from the envelope sender when the request has been forwarded.
/// `priority` as in QueuedRequest.
struct HierRequest {
  NodeId requester;
  LockMode mode = LockMode::kNL;
  std::uint64_t seq = 0;
  std::uint8_t priority = 0;

  bool operator==(const HierRequest&) const = default;
};

/// A copy grant (Rule 3): the sender admits the requester into its copyset
/// in `mode`; the requester becomes a child of the sender.
///
/// `epoch` versions the parent-child relationship: the granter increments
/// it on every grant and stamps its copyset entry; the child stamps all
/// subsequent RELEASE messages with it. A release that crosses a newer
/// grant in flight carries an older epoch and is discarded by the parent —
/// without this, a weaken-to-NL release generated just before a re-grant
/// would make the parent evict a child that holds the lock.
/// `entry_mode` is the resulting copyset entry (stronger_of of the previous
/// entry and `mode`), so the child can mirror the parent's record exactly.
struct HierGrant {
  LockMode mode = LockMode::kNL;
  LockMode entry_mode = LockMode::kNL;
  std::uint32_t epoch = 0;

  bool operator==(const HierGrant&) const = default;
};

/// Token transfer (Rule 3 case 2, owned < requested): the requester becomes
/// the new token node and the parent of the old token node.
struct HierToken {
  /// Mode granted to the requester (its pending mode).
  LockMode granted_mode = LockMode::kNL;
  /// The old token node's owned mode after the handover; kNL if it neither
  /// holds the lock nor has holding children, in which case it does not
  /// join the new token's copyset.
  LockMode sender_owned = LockMode::kNL;
  /// The old token's local queue, in FIFO order; responsibility for these
  /// requests moves with the token.
  std::vector<QueuedRequest> queue;

  bool operator==(const HierToken&) const = default;
};

/// Release notification (Rule 5.2): the sending child's owned mode weakened
/// to `new_owned` (kNL removes it from the parent's copyset). `epoch` is
/// the epoch of the grant that created/refreshed the relationship (see
/// HierGrant); the parent discards releases whose epoch does not match its
/// current entry.
struct HierRelease {
  LockMode new_owned = LockMode::kNL;
  std::uint32_t epoch = 0;

  bool operator==(const HierRelease&) const = default;
};

/// Freeze notification (Rule 6): the receiver must stop granting the listed
/// modes until its own owned mode drains to kNL (or it re-enters a copyset
/// via a fresh grant). Propagated transitively down the copyset.
struct HierFreeze {
  ModeSet modes;

  bool operator==(const HierFreeze&) const = default;
};

// ---- Crash-recovery payloads (src/recovery, docs/recovery.md) ----
//
// These four kinds never reach a protocol automaton: runtimes route them to
// the node's recovery::Manager. They are protocol-agnostic — the same
// report/fence exchange recovers the hierarchical protocol and the Naimi
// baseline.

/// Failure-detector liveness probe, broadcast periodically to every peer a
/// node believes alive. Any received message refreshes the sender's
/// last-heard time; heartbeats exist so an idle cluster still detects
/// crashes.
struct Heartbeat {
  bool operator==(const Heartbeat&) const = default;
};

/// Gossip that `dead` is believed crashed. A receiver that did not already
/// suspect `dead` adopts the suspicion (and re-gossips), so one node's
/// timeout converges the whole cluster onto the same dead set.
struct Suspect {
  NodeId dead;

  bool operator==(const Suspect&) const = default;
};

/// One node's per-lock state report to the recovery coordinator (the lowest
/// live node id). A campaign is identified by its sorted `dead` set; the
/// coordinator gathers complete reports from every live node before minting
/// fences. The reporter has halted protocol processing for the duration, so
/// the report reflects every message it will ever act on in the old epoch.
///
/// `lock_count` reports span one message per lock the reporter has touched;
/// `lock_count == 0` is the report of a node with no per-lock state (the
/// envelope's lock id is then a placeholder).
struct ElectToken {
  std::vector<NodeId> dead;     ///< campaign id: sorted suspected-dead set
  std::uint32_t lock_count = 0;  ///< per-lock reports this node sends
  std::uint32_t lock_index = 0;  ///< position of this report in [0, count)
  std::uint32_t epoch = 0;       ///< reporter's current recovery epoch
  bool has_token = false;
  LockMode held = LockMode::kNL;  ///< Naimi reports kW while inside its CS
  bool waiting = false;           ///< a request is pending at the reporter
  LockMode wait_mode = LockMode::kNL;
  std::uint64_t wait_seq = 0;
  std::uint8_t wait_priority = 0;
  bool upgrading = false;  ///< a Rule 7 upgrade is in flight (hier only)

  bool operator==(const ElectToken&) const = default;
};

/// One surviving holder recorded in an EpochFence: the node and the mode it
/// holds (its copyset entry at the new root).
struct FenceHolder {
  NodeId node;
  LockMode mode = LockMode::kNL;

  bool operator==(const FenceHolder&) const = default;
};

/// The coordinator's per-lock recovery verdict, broadcast to every live
/// node: enter `epoch`, re-root the lock's tree as a star at `new_root`
/// (which mints/keeps the token), install `holders` as the root's copyset
/// and `queue` as the root's waiting queue. Applied only when `epoch`
/// exceeds the local epoch, so duplicated or reordered fences are no-ops.
///
/// `fence_index`/`fence_count` let receivers know when a campaign's fence
/// set is complete (unhalt point); `fence_count == 0` is the fence of a
/// campaign with no per-lock state anywhere (unhalt only, placeholder lock).
struct EpochFence {
  std::vector<NodeId> dead;  ///< campaign id: sorted suspected-dead set
  std::uint32_t epoch = 0;
  NodeId new_root;
  std::vector<FenceHolder> holders;
  std::vector<QueuedRequest> queue;
  std::uint32_t fence_index = 0;
  std::uint32_t fence_count = 0;

  bool operator==(const EpochFence&) const = default;
};

// ---- Naimi-Tréhel baseline payloads (paper §2) ----

/// A mutual-exclusion request routed along probable-owner links with path
/// reversal; `requester` queues at the current tail of the distributed list.
struct NaimiRequest {
  NodeId requester;
  std::uint64_t seq = 0;

  bool operator==(const NaimiRequest&) const = default;
};

/// The token: possession is the right to enter the critical section.
struct NaimiToken {
  bool operator==(const NaimiToken&) const = default;
};

/// All payloads a Message can carry. Variant order must match MessageKind.
using Payload = std::variant<HierRequest, HierGrant, HierToken, HierRelease,
                             HierFreeze, NaimiRequest, NaimiToken, Heartbeat,
                             Suspect, ElectToken, EpochFence>;

/// Payload discriminator, used by stats counters and the codec. Values are
/// wire-stable.
enum class MessageKind : std::uint8_t {
  kHierRequest = 0,
  kHierGrant = 1,
  kHierToken = 2,
  kHierRelease = 3,
  kHierFreeze = 4,
  kNaimiRequest = 5,
  kNaimiToken = 6,
  kHeartbeat = 7,
  kSuspect = 8,
  kElectToken = 9,
  kEpochFence = 10,
};

/// Number of distinct MessageKind values.
inline constexpr std::size_t kMessageKindCount = 11;

/// True for the payload kinds routed to the recovery manager instead of a
/// protocol automaton (and exempt from the envelope epoch gate).
inline bool is_recovery_kind(MessageKind kind) {
  return kind >= MessageKind::kHeartbeat;
}

/// True for the payload kinds on an acquire's critical path: the requests
/// and the grants/tokens that answer them. Only these may be delivered
/// inline by their sender (docs/transports.md, run-to-completion delivery);
/// releases, freezes and recovery traffic always go through the receiver.
inline bool is_critical_path_kind(MessageKind kind) {
  return kind == MessageKind::kHierRequest ||
         kind == MessageKind::kHierGrant || kind == MessageKind::kHierToken ||
         kind == MessageKind::kNaimiRequest ||
         kind == MessageKind::kNaimiToken;
}

/// Returns the discriminator of a payload.
MessageKind kind_of(const Payload& payload);

/// "REQUEST", "GRANT", "TOKEN", "RELEASE", "FREEZE", "NREQUEST", "NTOKEN".
std::string to_string(MessageKind kind);

/// The envelope every transport routes: point-to-point, per-lock.
///
/// Beyond routing, the envelope carries two observability fields that cross
/// the wire with the payload (src/obs): `request`, the application-level
/// lock request this message causally serves (the origin request for
/// REQUEST, the request being satisfied for GRANT/TOKEN; none for RELEASE/
/// FREEZE, which serve no single request), and `lamport`, a Lamport clock
/// stamped by the runtime at send time and merged at receive time so span
/// events from different nodes order causally even under reordering
/// transports. Automatons fill `request`; runtimes own `lamport`.
/// The recovery epoch (`epoch` below) versions the whole per-lock protocol
/// state across crash recoveries (docs/recovery.md): automatons stamp every
/// outgoing protocol message with their current epoch and drop mismatched
/// ones, so a message minted before a crash fence can never corrupt the
/// regenerated state. Distinct from HierGrant::epoch, which versions one
/// parent-child copyset relationship between consecutive grants. Recovery
/// kinds (is_recovery_kind) leave it 0 — they carry their own campaign ids.
struct Message {
  NodeId from;
  NodeId to;
  LockId lock;
  Payload payload;
  RequestId request = RequestId::none();
  std::uint64_t lamport = 0;
  std::uint32_t epoch = 0;

  bool operator==(const Message&) const = default;
};

/// One-line rendering for traces: "node1->node2 lock0 REQUEST(node1, R)".
std::string to_string(const Message& m);

}  // namespace hlock::proto
