#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace rrsn::sim {

char toChar(Bit b) {
  switch (b) {
    case Bit::Zero: return '0';
    case Bit::One: return '1';
    case Bit::X: return 'x';
  }
  return '?';
}

std::vector<Bit> bitsFromString(const std::string& s) {
  std::vector<Bit> out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '0': out.push_back(Bit::Zero); break;
      case '1': out.push_back(Bit::One); break;
      case 'x':
      case 'X': out.push_back(Bit::X); break;
      default:
        throw ParseError(std::string("invalid scan bit '") + c + "'");
    }
  }
  return out;
}

std::string toString(const std::vector<Bit>& bits) {
  std::string out;
  out.reserve(bits.size());
  for (Bit b : bits) out.push_back(toChar(b));
  return out;
}

ScanSimulator::ScanSimulator(const rsn::Network& net)
    : net_(&net), state_(net.segments().size()) {
  for (rsn::SegmentId s = 0; s < state_.size(); ++s)
    state_[s].update.resize(net.segment(s).length);
  reset();
}

void ScanSimulator::reset() {
  for (SegmentState& st : state_) st.instrumentValue.clear();
  resetConfiguration();
  faults_.clear();
  upset_.reset();
  roundsSinceArm_ = 0;
}

void ScanSimulator::resetConfiguration() {
  for (SegmentState& st : state_)
    std::fill(st.update.begin(), st.update.end(), Bit::Zero);
  externalAddress_.assign(net_->muxes().size(), 0);
}

void ScanSimulator::armTransientUpset(const TransientUpset& upset) {
  RRSN_CHECK(upset.segment < net_->segments().size(),
             "transient upset segment id out of range");
  upset_ = upset;
  roundsSinceArm_ = 0;
}

void ScanSimulator::setExternalAddress(rsn::MuxId m, std::uint32_t branch) {
  RRSN_CHECK(m < externalAddress_.size(), "mux id out of range");
  RRSN_CHECK(net_->mux(m).controlSegment == rsn::kNone,
             "mux '" + net_->mux(m).name +
                 "' is controlled by a segment, not externally");
  externalAddress_[m] = branch;
}

void ScanSimulator::setInstrumentValue(rsn::InstrumentId i,
                                       std::vector<Bit> value) {
  const rsn::SegmentId seg = net_->instrument(i).segment;
  RRSN_CHECK(value.size() == net_->segment(seg).length,
             "instrument value length mismatch");
  state_[seg].instrumentValue = std::move(value);
}

const std::vector<Bit>& ScanSimulator::instrumentUpdate(
    rsn::InstrumentId i) const {
  return segmentUpdate(net_->instrument(i).segment);
}

const std::vector<Bit>& ScanSimulator::segmentUpdate(rsn::SegmentId s) const {
  RRSN_CHECK(s < state_.size(), "segment id out of range");
  return state_[s].update;
}

std::uint32_t ScanSimulator::resolveSelection(rsn::MuxId m) const {
  // A stuck mux ignores its address entirely.
  for (const fault::Fault& f : faults_)
    if (f.kind == fault::FaultKind::MuxStuck && f.prim == m)
      return f.stuckBranch;

  const rsn::SegmentId ctrl = net_->mux(m).controlSegment;
  if (ctrl == rsn::kNone) return externalAddress_[m];

  // Interpret the control segment's update register as an unsigned
  // little-endian integer (cell 0 = LSB); X anywhere makes it invalid.
  std::uint64_t value = 0;
  const auto& bits = state_[ctrl].update;
  for (std::size_t i = 0; i < bits.size() && i < 64; ++i) {
    if (bits[i] == Bit::X) return kInvalidSelection;
    if (bits[i] == Bit::One) value |= 1ULL << i;
  }
  return static_cast<std::uint32_t>(value);
}

std::uint32_t ScanSimulator::muxSelection(rsn::MuxId m) const {
  RRSN_CHECK(m < net_->muxes().size(), "mux id out of range");
  return resolveSelection(m);
}

bool ScanSimulator::walkPath(rsn::NodeId nodeId, PathInfo& path) const {
  const auto& n = net_->structure().node(nodeId);
  switch (n.kind) {
    case rsn::NodeKind::Wire:
      return true;
    case rsn::NodeKind::Segment:
      path.segments.push_back(n.prim);
      path.totalBits += net_->segment(n.prim).length;
      return true;
    case rsn::NodeKind::Serial:
      for (rsn::NodeId c : n.children)
        if (!walkPath(c, path)) return false;
      return true;
    case rsn::NodeKind::MuxJoin: {
      const std::uint32_t sel = resolveSelection(n.prim);
      if (sel == kInvalidSelection || sel >= n.children.size()) return false;
      return walkPath(n.children[sel], path);
    }
  }
  throw Error("unreachable structure node kind");
}

std::optional<PathInfo> ScanSimulator::activePath() const {
  PathInfo path;
  if (!walkPath(net_->structure().root(), path)) return std::nullopt;
  return path;
}

std::vector<Bit> ScanSimulator::csu(const std::vector<Bit>& in) {
  static const obs::MetricId kCsuRounds = obs::counter("sim.csu_rounds");
  obs::count(kCsuRounds);
  const auto path = activePath();
  if (!path)
    throw ValidationError(
        "no valid scan path: a mux address is X or out of range");
  RRSN_CHECK(in.size() == path->totalBits,
             "shift-in stream length does not match the active path (" +
                 std::to_string(in.size()) + " vs " +
                 std::to_string(path->totalBits) + " bits)");

  // lo and one past hi of the broken cells; no break: lo = B, hiEnd = 0.
  const std::size_t bits = path->totalBits;
  std::size_t lo = bits, hiEnd = 0, offset = 0;
  for (rsn::SegmentId s : path->segments) {
    const std::size_t len = state_[s].update.size();
    if (isBroken(s)) {
      lo = std::min(lo, offset);
      hiEnd = offset + len;
    }
    offset += len;
  }

  // Instrument segments capture the instrument value, plain segments
  // their update value.  Captured cell k leaves across cells k..B-1 and
  // the bit fed for cell k crosses cells 0..k; a broken cell X-poisons
  // what it holds or passes.
  std::vector<Bit> out(bits);
  std::size_t k = 0;
  for (rsn::SegmentId s : path->segments) {
    SegmentState& st = state_[s];
    const std::vector<Bit>& captured =
        st.instrumentValue.empty() ? st.update : st.instrumentValue;
    for (std::size_t j = 0; j < st.update.size(); ++j, ++k) {
      out[bits - 1 - k] = k < hiEnd ? Bit::X : captured[j];
      st.update[j] = k >= lo ? Bit::X : in[bits - 1 - k];
    }
  }

  // A pending transient upset fires once the configured CSU round has
  // completed: the target segment's update register, on or off the
  // active path, is corrupted to X.  The upset is consumed; subsequent
  // rounds operate on clean silicon again.
  if (upset_ && roundsSinceArm_ == upset_->round) {
    std::vector<Bit>& update = state_[upset_->segment].update;
    std::fill(update.begin(), update.end(), Bit::X);
    upset_.reset();
  }
  ++roundsSinceArm_;
  return out;
}

bool ScanSimulator::isBroken(rsn::SegmentId s) const {
  for (const fault::Fault& f : faults_)
    if (f.kind == fault::FaultKind::SegmentBreak && f.prim == s) return true;
  return false;
}

std::vector<Bit> ScanSimulator::shiftInForImage(const std::vector<Bit>& image) {
  // The bit fed at clock t ends at register index (B-1-t), so the stream
  // is the image reversed.
  return {image.rbegin(), image.rend()};
}

std::optional<std::size_t> ScanSimulator::offsetOf(const rsn::Network& net,
                                                   const PathInfo& path,
                                                   rsn::SegmentId seg) {
  std::size_t offset = 0;
  for (rsn::SegmentId s : path.segments) {
    if (s == seg) return offset;
    offset += net.segment(s).length;
  }
  return std::nullopt;
}

}  // namespace rrsn::sim
