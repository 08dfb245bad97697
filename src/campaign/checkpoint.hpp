// Resumable campaign state (JSON checkpoint files).
//
// A checkpoint stores the outcomes of every *finished* scenario (its
// index and read/write outcome strings; the reference rows are
// recomputed from the run's oracle table) together with a fingerprint
// of the network and campaign configuration, and a format version
// (kCheckpointVersion).  Loading rejects checkpoints written for a
// different network or config (the resumed campaign would silently mix
// incompatible results otherwise), rejects a different format version
// and tolerates a missing file (fresh start).  Rejection is a typed
// Status, not an exception: a truncated, hand-edited, stale or
// wrong-version state file must degrade into "checkpoint ignored,
// restarting" — it would otherwise abort the multi-hour campaign it
// exists to protect.
// Saving is atomic: write to `<path>.tmp`, then rename — a deadline
// that fires mid-write can never leave a torn state file behind.
#pragma once

#include <string>

#include "campaign/campaign.hpp"
#include "support/status.hpp"

namespace rrsn::campaign {

/// Checkpoint file format version this engine reads and writes.
/// Version 1 had no version or mode field and stored single-fault
/// records only; version 2 added both plus pair/transient scenario
/// support; version 3 stores `index`, `read` and `write` per record and
/// drops the reference rows version 2 kept alongside them.
inline constexpr std::uint64_t kCheckpointVersion = 3;

/// FNV-1a hash over the canonical netlist text and the config fields
/// that change probe outcomes (mode, sample, sample fraction, seed,
/// transient rounds, retarget bounds, excluded primitives).  Checkpoint
/// path / batch size / cancellation / callbacks are excluded: they
/// affect scheduling, not results.
std::uint64_t campaignFingerprint(const rsn::Network& net,
                                  const CampaignConfig& config);

/// Writes finished records of `result` to `path` atomically (staged
/// `<path>.tmp`, every write checked, fsync before rename).  A failure
/// — full disk, unwritable directory, short write — is a typed
/// non-OK Status and leaves any previous checkpoint at `path` intact;
/// it never silently commits a truncated file that would only be
/// rejected at reload.
Status saveCheckpoint(const std::string& path, std::uint64_t fingerprint,
                      const CampaignResult& result);

/// Outcome of a checkpoint load: how many finished records were merged
/// into the result, and why the file was ignored if none were.
struct CheckpointLoad {
  Status status;              ///< non-OK: file ignored, result untouched
  std::size_t restored = 0;   ///< finished records merged (0 if ignored)
};

/// Merges finished records from the checkpoint at `path` into `result`.
/// A missing file is OK with 0 restored (fresh start).  An unreadable,
/// torn or hand-edited file yields kDataLoss; a fingerprint or
/// dimension mismatch (different network / config) yields
/// kFailedPrecondition.  On any non-OK status `result` is untouched —
/// partial corrupt records are never merged.
CheckpointLoad loadCheckpoint(const std::string& path,
                              std::uint64_t fingerprint,
                              CampaignResult& result);

}  // namespace rrsn::campaign
