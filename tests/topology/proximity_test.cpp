#include "topology/proximity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "geom/angles.h"
#include "geom/predicates.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"
#include "topology/distributions.h"
#include "topology/metrics.h"
#include "topology/transmission_graph.h"

namespace thetanet::topo {
namespace {

Deployment random_deployment(std::size_t n, double range, geom::Rng& rng) {
  Deployment d;
  d.positions = uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

std::set<std::pair<graph::NodeId, graph::NodeId>> edge_set(
    const graph::Graph& g) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> s;
  for (const graph::Edge& e : g.edges()) s.insert(std::minmax(e.u, e.v));
  return s;
}

TEST(Proximity, GabrielMatchesBruteForce) {
  geom::Rng rng(41);
  const Deployment d = random_deployment(80, 0.5, rng);
  const graph::Graph gg = gabriel_graph(d);
  for (graph::NodeId u = 0; u < d.size(); ++u)
    for (graph::NodeId v = u + 1; v < d.size(); ++v) {
      if (d.distance(u, v) > d.max_range) {
        ASSERT_FALSE(gg.has_edge(u, v));
        continue;
      }
      bool empty = true;
      for (graph::NodeId w = 0; w < d.size() && empty; ++w) {
        if (w == u || w == v) continue;
        if (geom::in_gabriel_disk(d.positions[u], d.positions[v],
                                  d.positions[w]))
          empty = false;
      }
      ASSERT_EQ(gg.has_edge(u, v), empty) << u << "," << v;
    }
}

TEST(Proximity, RngIsSubgraphOfGabriel) {
  geom::Rng rng(42);
  const Deployment d = random_deployment(150, 0.4, rng);
  const auto gabriel = edge_set(gabriel_graph(d));
  const auto rngg = edge_set(relative_neighborhood_graph(d));
  for (const auto& e : rngg) EXPECT_TRUE(gabriel.count(e));
  EXPECT_LT(rngg.size(), gabriel.size());
}

TEST(Proximity, MstIsSubgraphOfRng) {
  geom::Rng rng(43);
  const Deployment d = random_deployment(120, 0.5, rng);
  const auto rngg = edge_set(relative_neighborhood_graph(d));
  const auto mst = edge_set(euclidean_mst(d));
  for (const auto& e : mst) EXPECT_TRUE(rngg.count(e));
}

TEST(Proximity, GabrielIsSubgraphOfRestrictedDelaunay) {
  geom::Rng rng(44);
  const Deployment d = random_deployment(100, 0.5, rng);
  const auto rdg = edge_set(restricted_delaunay_graph(d));
  const auto gabriel = edge_set(gabriel_graph(d));
  for (const auto& e : gabriel) EXPECT_TRUE(rdg.count(e));
}

TEST(Proximity, GabrielHasOptimalEnergyPaths) {
  // For kappa >= 2, the Gabriel graph contains a minimum-energy path between
  // every pair — its energy-stretch against G* is exactly 1.
  geom::Rng rng(45);
  const Deployment d = random_deployment(100, 0.45, rng);
  const graph::Graph gstar = build_transmission_graph(d);
  if (!graph::is_connected(gstar)) GTEST_SKIP();
  const graph::Graph gg = gabriel_graph(d);
  const graph::StretchStats s =
      graph::pairwise_stretch(gg, gstar, graph::Weight::kCost);
  EXPECT_FALSE(s.disconnected);
  EXPECT_NEAR(s.max, 1.0, 1e-9);
}

TEST(Proximity, RestrictedDelaunayOmitsLongEdges) {
  geom::Rng rng(46);
  const Deployment d = random_deployment(150, 0.2, rng);
  const graph::Graph rdg = restricted_delaunay_graph(d);
  for (const graph::Edge& e : rdg.edges()) EXPECT_LE(e.length, d.max_range);
}

TEST(Proximity, KnnGraphDegreeAndSymmetry) {
  geom::Rng rng(47);
  const Deployment d = random_deployment(150, 0.5, rng);
  const std::size_t k = 4;
  const graph::Graph g = knn_graph(d, k);
  // Symmetric closure: degree can exceed k (nodes chosen by many others)
  // but each node contributes at most k outgoing choices.
  EXPECT_LE(g.num_edges(), k * d.size());
  for (const graph::Edge& e : g.edges()) EXPECT_LE(e.length, d.max_range);
}

/// Brute-force k-NN oracle: every in-range v != u ordered by (squared
/// distance, id), the first k kept, the directed choices unioned.
std::set<std::pair<graph::NodeId, graph::NodeId>> brute_knn(const Deployment& d,
                                                           std::size_t k) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> s;
  for (graph::NodeId u = 0; u < d.size(); ++u) {
    std::vector<std::pair<double, graph::NodeId>> near;
    for (graph::NodeId v = 0; v < d.size(); ++v)
      if (v != u && d.distance(u, v) <= d.max_range)
        near.emplace_back(geom::dist_sq(d.positions[u], d.positions[v]), v);
    std::sort(near.begin(), near.end());
    for (std::size_t i = 0; i < std::min(k, near.size()); ++i)
      s.insert(std::minmax(u, near[i].second));
  }
  return s;
}

void expect_knn_matches_oracle(const Deployment& d, std::size_t k,
                               const char* what) {
  const graph::Graph g = knn_graph(d, k);
  ASSERT_EQ(g.num_nodes(), d.size()) << what;
  EXPECT_EQ(edge_set(g), brute_knn(d, k)) << what << " k=" << k;
}

TEST(Proximity, KnnGraphMatchesBruteForce) {
  geom::Rng rng(48);
  for (const std::size_t n : {0UL, 1UL, 2UL, 40UL, 200UL}) {
    const Deployment d = random_deployment(n, 0.2, rng);
    for (const std::size_t k : {0UL, 1UL, 3UL, 8UL})
      expect_knn_matches_oracle(d, k, "uniform");
  }

  // Coincident points: distance 0, so ids alone order them.
  Deployment coincident;
  coincident.positions = {{0.5, 0.5}, {0.5, 0.5}, {0.2, 0.2}, {0.5, 0.5},
                          {0.5, 0.5}, {0.55, 0.5}, {0.2, 0.2}};
  coincident.max_range = 0.1;
  for (const std::size_t k : {1UL, 2UL, 3UL, 4UL})
    expect_knn_matches_oracle(coincident, k, "coincident");

  // Equal-distance ties: four exact unit neighbours (and two at sqrt(2))
  // around node 0; the smaller ids win.
  Deployment ties;
  ties.positions = {{0, 0}, {0, -1}, {1, 1}, {1, 0}, {-1, 0}, {0, 1}, {-1, -1}};
  ties.max_range = 2.0;
  for (const std::size_t k : {1UL, 2UL, 3UL, 5UL})
    expect_knn_matches_oracle(ties, k, "ties");

  // A neighbour exactly at max_range is in range: |(3, 4)| == 5 exactly.
  Deployment at_range;
  at_range.positions = {{0, 0}, {3, 4}, {10, 0}};
  at_range.max_range = 5.0;
  expect_knn_matches_oracle(at_range, 1, "exact range");
  EXPECT_TRUE(knn_graph(at_range, 1).has_edge(0, 1));
  // The same with max_range set to a pair's rounded distance, for which
  // dist_sq can exceed max_range * max_range by an ulp.
  Deployment rounded = random_deployment(60, 0.2, rng);
  for (graph::NodeId v = 1; v < 30; ++v) {
    rounded.max_range = rounded.distance(0, v);
    expect_knn_matches_oracle(rounded, 60, "pair distance as range");
    EXPECT_TRUE(knn_graph(rounded, 60).has_edge(0, v)) << v;
  }

  // Exponential chain: spacing doubles along the line, so a short range
  // forces the grid to widen its cells over a 2^29-wide box.
  Deployment chain;
  for (int i = 0; i < 30; ++i) chain.positions.push_back({std::ldexp(1.0, i), 0});
  for (const double range : {4.0, 1024.0, std::ldexp(1.0, 30)}) {
    chain.max_range = range;
    for (const std::size_t k : {1UL, 2UL, 5UL})
      expect_knn_matches_oracle(chain, k, "chain");
  }

  // k >= n: every in-range pair.
  const Deployment small = random_deployment(25, 0.4, rng);
  for (const std::size_t k : {24UL, 25UL, 100UL}) {
    expect_knn_matches_oracle(small, k, "k >= n");
    EXPECT_EQ(edge_set(knn_graph(small, k)),
              edge_set(build_transmission_graph(small)));
  }
}

TEST(Proximity, KnnGraphCanBeDisconnected) {
  // Two distant tight clusters: 2-NN edges never cross the gap even though
  // G* (with a big range) would connect them — the intro's observation that
  // k-nearest neighbours do not guarantee connectivity.
  Deployment d;
  d.positions = {{0, 0},    {0.1, 0}, {0, 0.1},
                 {5, 5},    {5.1, 5}, {5, 5.1}};
  d.max_range = 10.0;
  d.kappa = 2.0;
  const graph::Graph g = knn_graph(d, 2);
  EXPECT_FALSE(graph::is_connected(g));
  EXPECT_TRUE(graph::is_connected(build_transmission_graph(d)));
}

TEST(Proximity, GabrielDegreeCanBeLinear) {
  // A star: center with rim nodes placed so every diametral disk is empty.
  // Gabriel keeps all spokes -> Omega(n) degree (the paper's objection).
  Deployment d;
  d.positions.push_back({0, 0});
  const std::size_t rim = 24;
  for (std::size_t i = 0; i < rim; ++i) {
    const double a = geom::kTwoPi * static_cast<double>(i) /
                     static_cast<double>(rim);
    d.positions.push_back({std::cos(a), std::sin(a)});
  }
  d.max_range = 1.1;
  d.kappa = 2.0;
  const graph::Graph g = gabriel_graph(d);
  EXPECT_EQ(g.degree(0), rim);
}

TEST(Proximity, MstIsTreeWhenConnected) {
  geom::Rng rng(48);
  const Deployment d = random_deployment(100, 0.4, rng);
  const graph::Graph gstar = build_transmission_graph(d);
  if (!graph::is_connected(gstar)) GTEST_SKIP();
  const graph::Graph mst = euclidean_mst(d);
  EXPECT_EQ(mst.num_edges(), d.size() - 1);
  EXPECT_TRUE(graph::is_connected(mst));
}

TEST(Metrics, DegreeStats) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(0, 2, 1.0, 1.0);
  g.add_edge(0, 3, 1.0, 1.0);
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.max, 3U);
  EXPECT_DOUBLE_EQ(s.mean, 1.5);
  ASSERT_EQ(s.histogram.size(), 4U);
  EXPECT_EQ(s.histogram[1], 3U);
  EXPECT_EQ(s.histogram[3], 1U);
}

TEST(Metrics, EdgeLengthStats) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 3.0, 9.0);
  const EdgeLengthStats s = edge_length_stats(g);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.total, 4.0);
}

}  // namespace
}  // namespace thetanet::topo
