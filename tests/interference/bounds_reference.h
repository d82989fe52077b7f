#pragma once
// Reference for interf::interference_bounds: the randomized MAC's per-edge
// bound computed the direct way, from the materialized interference sets —
//   I_e = max(1, |I(e)|, max{ |I(e')| : e' in I(e) }).
// Shared by the interference oracle test and the MAC tests.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace thetanet::interf::testing {

inline std::vector<std::uint32_t> bounds_from_sets(
    const std::vector<std::vector<graph::EdgeId>>& sets) {
  std::vector<std::uint32_t> bounds(sets.size());
  for (std::size_t e = 0; e < sets.size(); ++e) {
    auto b = std::max<std::size_t>(1, sets[e].size());
    for (const graph::EdgeId ep : sets[e]) b = std::max(b, sets[ep].size());
    bounds[e] = static_cast<std::uint32_t>(b);
  }
  return bounds;
}

}  // namespace thetanet::interf::testing
