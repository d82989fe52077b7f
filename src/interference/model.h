#pragma once
// The pairwise (protocol-model) interference machinery of Section 2.4.
//
// A bidirectional exchange over edge e = (X, Y) has interference region
//   IR(e) = C(X, (1+Delta)|XY|)  union  C(Y, (1+Delta)|XY|)
// (open disks). Edge e' *interferes with* e when IR(e') contains an endpoint
// of e; the interference set is the symmetric closure
//   I(e) = { e' : e' interferes with e, or e interferes with e' },
// and the interference number of a topology is max_e |I(e)|. Lemma 2.10
// bounds this by O(log n) whp for uniform-random deployments; bench E4
// measures it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "topology/deployment.h"

namespace thetanet::interf {

struct InterferenceModel {
  double delta = 1.0;  ///< guard-zone parameter Delta > 0

  /// Radius of the two disks forming IR(e) for an edge of length `len`.
  double guard_radius(double len) const { return (1.0 + delta) * len; }

  /// True iff IR of edge (a1, a2) contains point p (open-disk test).
  bool region_covers(geom::Vec2 a1, geom::Vec2 a2, geom::Vec2 p) const;

  /// Directed test: does e' (x1,x2) interfere with e (y1,y2)? I.e. does
  /// IR(e') contain an endpoint of e.
  bool interferes(geom::Vec2 x1, geom::Vec2 x2, geom::Vec2 y1,
                  geom::Vec2 y2) const;

  /// Symmetric membership test for the interference set I(e).
  bool in_interference_set(geom::Vec2 x1, geom::Vec2 x2, geom::Vec2 y1,
                           geom::Vec2 y2) const {
    return interferes(x1, x2, y1, y2) || interferes(y1, y2, x1, x2);
  }
};

/// |I(e)| for every edge of g (positions from the deployment). Uses a grid
/// over nodes so the cost is proportional to the true interference mass, not
/// m^2.
std::vector<std::uint32_t> interference_set_sizes(const graph::Graph& g,
                                                  const topo::Deployment& d,
                                                  const InterferenceModel& m);

/// The per-edge bound of the randomized MAC (Section 3.3):
///   I_e = max(1, max{ |I(e')| : e' in I(e) or e' = e }),
/// equal to reducing interference_sets over interference_set_sizes, but
/// without materializing any set: one count-only walk tallies the sizes,
/// a second walk re-discovers each edge's candidates and spreads the sizes
/// across them by max. Transient memory is one E-sized uint32 array per
/// chunk of detail::tally_grain(E) edges (at most 64 chunks) and no pair
/// storage; the result is bit-identical for any thread count.
std::vector<std::uint32_t> interference_bounds(const graph::Graph& g,
                                               const topo::Deployment& d,
                                               const InterferenceModel& m);

/// Full interference sets (edge ids, each set ascending), same discovery
/// walk. Heavier — it sorts and scatters every interfering pair; for
/// callers that need the actual sets (schedule_transform).
std::vector<std::vector<graph::EdgeId>> interference_sets(
    const graph::Graph& g, const topo::Deployment& d,
    const InterferenceModel& m);

namespace detail {

/// Chunk size of the walks that keep one E-sized tally per chunk until the
/// fold (interference_bounds, interference_sets): max(16384, ceil(E / 64)).
/// A small network runs as one inline chunk; a large one holds at most 64
/// partials, 256 bytes per edge, instead of E / 16384 of them. The grain
/// depends only on E, so the chunking — and every result — is the same for
/// any thread count.
std::size_t tally_grain(std::size_t num_edges);

}  // namespace detail

/// max_e |I(e)| — the interference number of the topology.
std::uint32_t interference_number(const graph::Graph& g,
                                  const topo::Deployment& d,
                                  const InterferenceModel& m);

/// Given the set of edges chosen to transmit simultaneously, mark which
/// transmissions fail: transmission on e fails iff some other chosen e'
/// interferes with e (Section 2.4's success condition). Returns a parallel
/// vector, true = failed.
std::vector<bool> failed_transmissions(std::span<const graph::EdgeId> chosen,
                                       const graph::Graph& g,
                                       const topo::Deployment& d,
                                       const InterferenceModel& m);

}  // namespace thetanet::interf
