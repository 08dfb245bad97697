// Cycle-level RSN scan simulator.
//
// Models the capture–shift–update (CSU) access protocol of IEEE Std 1687:
// every scan segment has a shift register and a shadow update register;
// multiplexer addresses are driven by the update value of their control
// segment (or set externally for TAP-controlled muxes).  Capture
// overwrites the path's shift registers before anything reads them, so
// the simulator keeps only update registers and computes a CSU's shift
// in closed form.  Faults use three-valued logic: a broken segment
// poisons every bit shifted through it with X; a stuck multiplexer
// ignores its address.  Any number of simultaneous permanent faults can
// be injected (the multi-fault campaigns probe defect pairs), and a
// one-shot *transient upset* can be armed: after a chosen CSU round
// completes, one segment's update register is corrupted to X for that
// single event — the segment behaves normally afterwards, but the
// corruption persists in its state until overwritten.
//
// The simulator is the ground truth the structural analysis is tested
// against, and powers the paper's two application scenarios in
// examples/ (post-silicon data extraction, runtime instrument access).
#pragma once

#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "rsn/network.hpp"

namespace rrsn::sim {

/// Three-valued scan bit.
enum class Bit : std::uint8_t { Zero = 0, One = 1, X = 2 };

inline Bit bitOf(bool b) { return b ? Bit::One : Bit::Zero; }
char toChar(Bit b);
std::vector<Bit> bitsFromString(const std::string& s);  // '0','1','x'
std::string toString(const std::vector<Bit>& bits);

inline constexpr std::uint32_t kInvalidSelection =
    static_cast<std::uint32_t>(-1);

/// The active scan path under the current configuration.
struct PathInfo {
  std::vector<rsn::SegmentId> segments;  ///< scan-in -> scan-out order
  std::size_t totalBits = 0;
};

/// One-shot soft error: after CSU round `round` (counted from arming,
/// round 0 = the first CSU) completes, every cell of `segment`'s update
/// register is corrupted to X.  The upset then disappears — only its
/// footprint in the register state remains.
struct TransientUpset {
  rsn::SegmentId segment = rsn::kNone;
  std::uint32_t round = 0;

  bool operator==(const TransientUpset&) const = default;
};

class ScanSimulator {
 public:
  explicit ScanSimulator(const rsn::Network& net);

  const rsn::Network& network() const { return *net_; }

  /// Returns to the power-up state: all update registers zero, no
  /// instrument value, no fault, no pending upset, all external
  /// addresses zero.  Registers are rewritten in place.
  void reset();

  /// Restores the power-up *configuration* only: update registers and
  /// external mux addresses return to their reset values.  This is the
  /// 1687-style reconfiguration sequence a controller applies to recover
  /// from a transient upset — the next accesses rewrite the data path,
  /// they do not need a power cycle.  Instrument values, injected
  /// permanent faults and a still-pending upset are untouched.
  void resetConfiguration();

  /// Injects a single permanent fault (replacing all previous ones).
  void injectFault(const fault::Fault& f) { faults_.assign(1, f); }
  /// Injects a set of simultaneous permanent faults (replacing all
  /// previous ones).  Two stuck faults on the same mux are contradictory
  /// hardware; the first one in the list wins deterministically.
  void injectFaults(std::vector<fault::Fault> faults) {
    faults_ = std::move(faults);
  }
  const std::vector<fault::Fault>& injectedFaults() const { return faults_; }

  /// Arms a one-shot transient upset (replacing any pending one) and
  /// restarts the CSU round counter it is measured against.
  void armTransientUpset(const TransientUpset& upset);
  /// True while an armed upset has not fired yet.
  bool transientPending() const { return upset_.has_value(); }

  /// Address of a TAP-controlled mux (controlSegment == kNone).
  void setExternalAddress(rsn::MuxId m, std::uint32_t branch);

  /// Value the attached instrument presents at the next capture.
  /// Must match the segment length.
  void setInstrumentValue(rsn::InstrumentId i, std::vector<Bit> value);

  /// Update-register content of the instrument's segment — what the
  /// instrument receives from the RSN.
  const std::vector<Bit>& instrumentUpdate(rsn::InstrumentId i) const;

  /// Update-register content of any segment.
  const std::vector<Bit>& segmentUpdate(rsn::SegmentId s) const;

  /// Resolved selection of a mux under the current configuration and
  /// fault: branch index, or kInvalidSelection if the address is X.
  std::uint32_t muxSelection(rsn::MuxId m) const;

  /// Active scan path; nullopt if some on-path mux address is X.
  std::optional<PathInfo> activePath() const;

  /// One capture–shift–update access on the active path.  `in` must have
  /// exactly path.totalBits entries; the returned vector contains the
  /// bits that left through scan-out (captured image, scan-out-nearest
  /// cell first).  Throws ValidationError if there is no valid path.
  /// Closed form of the B clocks, path cells 0..B-1 from scan-in, lo/hi
  /// the lowest/highest broken cell: output bit t is X iff hi >= B-1-t,
  /// else captured cell B-1-t; cell k updates to X iff lo <= k, else to
  /// in[B-1-k].  O(B).
  std::vector<Bit> csu(const std::vector<Bit>& in);

  /// Shift-in image builder: the input stream that loads `image` (one
  /// entry per path bit, scan-in-nearest first) into the path registers.
  static std::vector<Bit> shiftInForImage(const std::vector<Bit>& image);

  /// Position of a segment's cells in the concatenated path image;
  /// nullopt if the segment is not on the given path.
  static std::optional<std::size_t> offsetOf(const rsn::Network& net,
                                             const PathInfo& path,
                                             rsn::SegmentId seg);

 private:
  /// What an access can observe of a segment (no shift register).
  struct SegmentState {
    std::vector<Bit> update;
    std::vector<Bit> instrumentValue;  ///< empty: capture update instead
  };

  std::uint32_t resolveSelection(rsn::MuxId m) const;
  bool walkPath(rsn::NodeId node, PathInfo& path) const;
  bool isBroken(rsn::SegmentId s) const;

  const rsn::Network* net_;
  std::vector<SegmentState> state_;
  std::vector<std::uint32_t> externalAddress_;
  std::vector<fault::Fault> faults_;
  std::optional<TransientUpset> upset_;
  std::uint64_t roundsSinceArm_ = 0;
};

}  // namespace rrsn::sim
