#ifndef JXP_CORE_STATE_IO_H_
#define JXP_CORE_STATE_IO_H_

#include <string>

#include "common/statusor.h"
#include "core/jxp_peer.h"

namespace jxp {
namespace core {

/// Persistence of a peer's JXP state — fragment, score list, world node —
/// so a peer can stop and later resume exactly where it left off (peers are
/// long-running processes; the paper's algorithm "in principle, runs
/// forever").
///
/// Format: a line-based text file with a version header and a trailing
/// FNV-1a checksum over everything before it. Loading verifies the
/// checksum and every structural invariant, returning Corruption on any
/// mismatch: the world node must be in the page-sorted layout SavePeerState
/// writes, and the local scores plus the world score must sum to 1.

/// Writes `peer`'s state to `path` (atomically: temp file + rename).
Status SavePeerState(const JxpPeer& peer, const std::string& path);

/// Restores a peer saved with SavePeerState. `options` supplies the runtime
/// options (they are not persisted; all peers of a network share them).
StatusOr<JxpPeer> LoadPeerState(const std::string& path, const JxpOptions& options);

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_STATE_IO_H_
