// Oracle for interference_bounds, the randomized MAC's per-edge I_e. The
// streaming two-walk kernel must equal the bound reduced from the
// materialized interference sets (bounds_reference.h) exactly, across the
// guard-zone sweep, on uniform, clustered, collinear and coincident
// layouts, on the empty and single-edge graphs, for several pool sizes,
// and on an instance large enough that the elementwise-max merge spans
// several chunks.

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.h"
#include "bounds_reference.h"
#include "interference/model.h"
#include "topology/distributions.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"

namespace thetanet::interf {
namespace {

void expect_bounds_match_sets(const graph::Graph& g,
                              const topo::Deployment& d, double delta) {
  const InterferenceModel m{delta};
  const std::vector<std::uint32_t> expect =
      testing::bounds_from_sets(interference_sets(g, d, m));
  const int saved = tn::num_threads();
  for (const int threads : {1, 2, 7}) {
    tn::set_num_threads(threads);
    const std::vector<std::uint32_t> bounds = interference_bounds(g, d, m);
    tn::set_num_threads(saved);
    ASSERT_EQ(bounds, expect) << "delta=" << delta << " threads=" << threads;
  }
}

topo::Deployment with_range(std::vector<geom::Vec2> pts, double range) {
  topo::Deployment d;
  d.positions = std::move(pts);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

class BoundsOracle : public ::testing::TestWithParam<double> {};

TEST_P(BoundsOracle, UniformMatchesSets) {
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    geom::Rng rng(seed);
    const topo::Deployment d =
        with_range(topo::uniform_square(60, 1.0, rng), 0.3);
    const graph::Graph g = topo::build_transmission_graph(d);
    ASSERT_GT(g.num_edges(), 0u);
    expect_bounds_match_sets(g, d, GetParam());
  }
}

TEST_P(BoundsOracle, ClusteredMatchesSets) {
  // Dense clusters next to sparse gaps: short intra-cluster edges whose
  // small regions are covered by the long bridging edges, so many pairs
  // are discovered from one side only.
  geom::Rng rng(34);
  const topo::Deployment d =
      with_range(topo::clustered(120, 5, 0.03, 1.0, rng), 0.35);
  const graph::Graph g = topo::gabriel_graph(d);
  ASSERT_GT(g.num_edges(), 0u);
  expect_bounds_match_sets(g, d, GetParam());
}

TEST_P(BoundsOracle, CollinearMatchesSets) {
  geom::Rng rng(35);
  std::vector<geom::Vec2> pts;
  for (int c = 0; c < 6; ++c)
    for (int k = 0; k < 5; ++k)
      pts.push_back({0.4 * c + rng.uniform(0.0, 0.03), 0.0});
  const topo::Deployment d = with_range(std::move(pts), 0.5);
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_GT(g.num_edges(), 0u);
  expect_bounds_match_sets(g, d, GetParam());
}

TEST_P(BoundsOracle, CoincidentPointsMatchSets) {
  // Zero-length edges have an empty region of their own, so every pair
  // they belong to is discovered from the other edge only.
  geom::Rng rng(36);
  std::vector<geom::Vec2> pts = topo::uniform_square(14, 1.0, rng);
  for (int s = 0; s < 3; ++s)
    for (int k = 0; k < 4; ++k) pts.push_back({0.25 + 0.25 * s, 0.4});
  const topo::Deployment d = with_range(std::move(pts), 0.45);
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_GT(g.num_edges(), 0u);
  expect_bounds_match_sets(g, d, GetParam());
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, BoundsOracle,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

TEST(BoundsOracleEdgeCases, EmptyGraphHasNoBounds) {
  const topo::Deployment d = with_range({{0.0, 0.0}, {0.1, 0.0}}, 0.2);
  const graph::Graph empty(2);
  EXPECT_TRUE(interference_bounds(empty, d, InterferenceModel{1.0}).empty());
}

TEST(BoundsOracleEdgeCases, SingleEdgeHasBoundOne) {
  // |I(e)| = 0, so the bound is the floor of 1.
  const topo::Deployment d = with_range({{0.0, 0.0}, {0.1, 0.0}}, 0.2);
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(interference_bounds(g, d, InterferenceModel{1.0}),
            std::vector<std::uint32_t>{1});
}

TEST(BoundsOracleEdgeCases, ManyChunksMatchSets) {
  // More edges than one 16384-edge chunk, so the per-chunk partials of
  // both walks are merged.
  geom::Rng rng(37);
  const topo::Deployment d =
      with_range(topo::uniform_square(12000, 1.0, rng), 0.05);
  const graph::Graph g = topo::gabriel_graph(d);
  ASSERT_GT(g.num_edges(), 16384u);
  expect_bounds_match_sets(g, d, 1.0);
}

TEST(BoundsOracleEdgeCases, TallyGrainCapsTheChunkCount) {
  // Up to 64 * 16384 edges the grain is 16384 (build-1e5's 650 624 ΘALG
  // edges: 40 chunks); above it the chunk count stays at 64, so the walks'
  // per-chunk E-sized partials cost at most 256 bytes per edge.
  EXPECT_EQ(detail::tally_grain(1), 16384u);
  EXPECT_EQ(detail::tally_grain(650624), 16384u);
  EXPECT_EQ(detail::tally_grain(64u * 16384u), 16384u);
  EXPECT_EQ(detail::tally_grain(64u * 16384u + 1), 16385u);
  for (const std::size_t ne :
       {std::size_t{1} << 20, std::size_t{6500000}, std::size_t{100000007}}) {
    const std::size_t g = detail::tally_grain(ne);
    EXPECT_GE(g, 16384u);
    EXPECT_LE((ne + g - 1) / g, 64u) << ne;
  }
}

}  // namespace
}  // namespace thetanet::interf
