// Permanent-fault model for RSN scan primitives (Sec. IV-B).
//
// Two fault classes cover every scan primitive:
//  * SegmentBreak — a defect in a scan segment breaks the integrity of
//    every scan path traversing it (modeled as removing the vertex);
//  * MuxStuck(v)  — a "stuck-at-id" defect makes a multiplexer select
//    input branch v permanently, independent of its address port.
// A SIB is a 1-bit segment plus a mux, so its faults are exactly the
// combination: the register can break (SegmentBreak) and the mux can be
// stuck-at-asserted / stuck-at-deasserted (MuxStuck on the content /
// bypass branch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rsn/flat.hpp"
#include "rsn/network.hpp"

namespace rrsn::fault {

enum class FaultKind : std::uint8_t { SegmentBreak, MuxStuck };

/// One permanent fault at one scan primitive.
struct Fault {
  FaultKind kind = FaultKind::SegmentBreak;
  std::uint32_t prim = rsn::kNone;  ///< SegmentId or MuxId
  std::uint32_t stuckBranch = 0;    ///< MuxStuck only: the selected branch

  static Fault segmentBreak(rsn::SegmentId seg) {
    return {FaultKind::SegmentBreak, seg, 0};
  }
  static Fault muxStuck(rsn::MuxId mux, std::uint32_t branch) {
    return {FaultKind::MuxStuck, mux, branch};
  }

  bool operator==(const Fault&) const = default;
};

/// True iff `a` and `b` cannot be present together: two stuck faults on
/// one mux describe contradictory hardware, so pair spaces exclude them
/// (breaks cannot collide — the universe has one break per segment).
inline bool contradictory(const Fault& a, const Fault& b) {
  return a.kind == FaultKind::MuxStuck && b.kind == FaultKind::MuxStuck &&
         a.prim == b.prim;
}

/// Human-readable fault name, e.g. "break(seg_i2)" or "stuck(m0=1)".
std::string describe(const rsn::Network& net, const Fault& f);

/// The faulty primitive as a typed reference (Segment for breaks, Mux
/// for stucks) — the key for hardening masks and linear-id lookups.
rsn::PrimitiveRef refOf(const Fault& f);

/// Fills `sel` (flat.selWordCount() words in the arena's selectable
/// layout) with the base selectable sets under `f` (nullptr =
/// fault-free): every branch selectable, except a stuck mux which keeps
/// only its stuck branch.  Throws Error when `f` names a segment, mux
/// or branch the arena does not have.
void baseSelectable(const rsn::FlatNetwork& flat, const Fault* f,
                    std::uint64_t* sel);

/// Enumerates the complete single-fault universe of a network: one
/// SegmentBreak per segment and one MuxStuck per mux input branch.
class FaultUniverse {
 public:
  explicit FaultUniverse(const rsn::Network& net);

  const std::vector<Fault>& faults() const { return faults_; }
  std::size_t size() const { return faults_.size(); }

  /// All faults located at one primitive (1 for a segment, k for a
  /// k-input mux).
  std::vector<Fault> faultsAt(rsn::PrimitiveRef ref) const;

 private:
  const rsn::Network* net_;
  std::vector<Fault> faults_;
  std::vector<std::uint32_t> muxArity_;
};

}  // namespace rrsn::fault
