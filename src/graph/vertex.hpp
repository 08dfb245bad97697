// Vertex ids of the lowered scan graph.  rsn::FlatNetwork owns the only
// graph of a network and documents how its vertices are numbered.
#pragma once

#include <cstdint>

namespace rrsn::graph {

using VertexId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

}  // namespace rrsn::graph
