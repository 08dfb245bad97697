#include "fault/fault.hpp"

namespace rrsn::fault {

std::string describe(const rsn::Network& net, const Fault& f) {
  if (f.kind == FaultKind::SegmentBreak)
    return "break(" + net.segment(f.prim).name + ")";
  return "stuck(" + net.mux(f.prim).name + "=" +
         std::to_string(f.stuckBranch) + ")";
}

rsn::PrimitiveRef refOf(const Fault& f) {
  return {f.kind == FaultKind::SegmentBreak ? rsn::PrimitiveRef::Kind::Segment
                                            : rsn::PrimitiveRef::Kind::Mux,
          f.prim};
}

void baseSelectable(const rsn::FlatNetwork& flat, const Fault* f,
                    std::uint64_t* sel) {
  const auto muxArity = flat.muxArity();
  const auto selOffset = flat.selOffset();
  if (f != nullptr && f->kind == FaultKind::SegmentBreak)
    RRSN_CHECK(f->prim < flat.segmentCount(), "broken segment out of range");
  if (f != nullptr && f->kind == FaultKind::MuxStuck) {
    RRSN_CHECK(f->prim < flat.muxCount(), "stuck mux out of range");
    RRSN_CHECK(f->stuckBranch < muxArity[f->prim],
               "stuck branch out of range");
  }
  for (std::size_t m = 0; m < muxArity.size(); ++m) {
    // Every word full, except the last keeps bits [0, arity % 64).
    const std::uint32_t arity = muxArity[m];
    const std::size_t words = (static_cast<std::size_t>(arity) + 63) / 64;
    for (std::size_t w = 0; w < words; ++w)
      sel[selOffset[m] + w] = w + 1 < words || arity % 64 == 0
                                  ? ~0ULL
                                  : (1ULL << (arity % 64)) - 1;
  }
  if (f != nullptr && f->kind == FaultKind::MuxStuck) {
    const std::uint32_t m = f->prim;
    const std::size_t words = (static_cast<std::size_t>(muxArity[m]) + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) sel[selOffset[m] + w] = 0;
    sel[selOffset[m] + (f->stuckBranch >> 6)] = 1ULL << (f->stuckBranch & 63);
  }
}

FaultUniverse::FaultUniverse(const rsn::Network& net) : net_(&net) {
  muxArity_.assign(net.muxes().size(), 0);
  net.structure().preOrder([&](rsn::NodeId id) {
    const auto& n = net.structure().node(id);
    if (n.kind == rsn::NodeKind::MuxJoin)
      muxArity_[n.prim] = static_cast<std::uint32_t>(n.children.size());
  });
  for (rsn::SegmentId s = 0; s < net.segments().size(); ++s)
    faults_.push_back(Fault::segmentBreak(s));
  for (rsn::MuxId m = 0; m < net.muxes().size(); ++m)
    for (std::uint32_t b = 0; b < muxArity_[m]; ++b)
      faults_.push_back(Fault::muxStuck(m, b));
}

std::vector<Fault> FaultUniverse::faultsAt(rsn::PrimitiveRef ref) const {
  std::vector<Fault> out;
  if (ref.kind == rsn::PrimitiveRef::Kind::Segment) {
    out.push_back(Fault::segmentBreak(ref.index));
  } else {
    RRSN_CHECK(ref.index < muxArity_.size(), "mux index out of range");
    for (std::uint32_t b = 0; b < muxArity_[ref.index]; ++b)
      out.push_back(Fault::muxStuck(ref.index, b));
  }
  return out;
}

}  // namespace rrsn::fault
