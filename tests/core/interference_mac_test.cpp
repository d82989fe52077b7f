#include "core/interference_mac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numbers>

#include "../interference/bounds_reference.h"
#include "core/theta_topology.h"
#include "topology/distributions.h"

namespace thetanet::core {
namespace {

struct MacFixture {
  topo::Deployment d;
  graph::Graph topo;
  interf::InterferenceModel model{1.0};

  explicit MacFixture(std::uint64_t seed, std::size_t n = 150,
                      double range = 0.18) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, 1.0, rng);
    d.max_range = range;
    d.kappa = 2.0;
    topo = ThetaTopology(d, std::numbers::pi / 6.0).graph();
  }
};

TEST(RandomizedMac, BoundsDominatePerEdgeSetSizes) {
  const MacFixture f(71);
  const RandomizedMac mac(f.topo, f.d, f.model);
  // I_e = max(1, |I(e)|, max |I(e')| over e' in I(e)) exactly, reduced from
  // the materialized sets; the MAC's activation probability is 1/(2 I_e).
  const std::vector<std::uint32_t> expect = interf::testing::bounds_from_sets(
      interf::interference_sets(f.topo, f.d, f.model));
  std::uint32_t max_bound = 0;
  for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) {
    ASSERT_EQ(mac.activation_prob(e),
              1.0 / (2.0 * static_cast<double>(expect[e])))
        << "edge " << e;
    max_bound = std::max(max_bound, expect[e]);
  }
  EXPECT_EQ(mac.interference_bound(), max_bound);
}

TEST(RandomizedMac, ActivationFrequencyMatchesProbability) {
  const MacFixture f(72, 80, 0.22);
  const RandomizedMac mac(f.topo, f.d, f.model);
  ASSERT_GT(f.topo.num_edges(), 0U);
  geom::Rng rng(99);
  std::vector<std::size_t> activations(f.topo.num_edges(), 0);
  const int rounds = 100000;
  for (int i = 0; i < rounds; ++i) {
    const std::vector<graph::EdgeId> active = mac.activate(rng);
    ASSERT_TRUE(std::adjacent_find(active.begin(), active.end(),
                                   std::greater_equal<>()) == active.end())
        << "round " << i << " is not strictly ascending";
    for (const graph::EdgeId e : active) ++activations[e];
  }
  // Per edge, and summed: the mean active count per round is sum_e p_e,
  // which resolves a few percent of bias that no single edge can.
  double sum_p = 0.0, var = 0.0;
  std::size_t total = 0;
  for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) {
    const double expected = mac.activation_prob(e);
    const double observed =
        static_cast<double>(activations[e]) / static_cast<double>(rounds);
    EXPECT_NEAR(observed, expected,
                5.0 * std::sqrt(expected * (1.0 - expected) / rounds))
        << "edge " << e;
    sum_p += expected;
    var += expected * (1.0 - expected);
    total += activations[e];
  }
  EXPECT_NEAR(static_cast<double>(total) / rounds, sum_p,
              5.0 * std::sqrt(var / rounds));
}

// Probabilities 1/(2 I) for bounds on both sides of every dyadic class
// boundary up to I = 64 (I = 1, 2^c and 2^(c+1) - 1), interleaved so each
// class's edges are not contiguous ids. Every class holds an edge with
// I = 2^c, the class's largest probability, whose accept ratio is exactly 1;
// the others (I = 3, 63, ...) need the thinning draw.
std::vector<double> boundary_probs() {
  const std::uint32_t bounds[] = {1,  64, 2,  63, 3,  32, 4,  31, 7,  16,
                                  8,  15, 1,  2,  4,  8,  16, 32, 64, 5};
  std::vector<double> prob;
  for (const std::uint32_t b : bounds)
    prob.push_back(1.0 / (2.0 * static_cast<double>(b)));
  return prob;
}

TEST(WakeSampler, EveryEdgeWakesAtItsProbabilityAcrossClassBoundaries) {
  const std::vector<double> prob = boundary_probs();
  const detail::WakeSampler wake(prob);
  EXPECT_EQ(wake.num_classes(), 7U);  // I in [1,2), [2,4), ..., [64,128)
  geom::Rng rng(5);
  const int rounds = 200000;
  std::vector<std::size_t> hits(prob.size(), 0);
  for (int i = 0; i < rounds; ++i) {
    const std::vector<graph::EdgeId> active = wake.sample(rng);
    ASSERT_TRUE(std::adjacent_find(active.begin(), active.end(),
                                   std::greater_equal<>()) == active.end());
    for (const graph::EdgeId e : active) ++hits[e];
  }
  for (std::size_t e = 0; e < prob.size(); ++e) {
    const double p = prob[e];
    const double observed =
        static_cast<double>(hits[e]) / static_cast<double>(rounds);
    EXPECT_NEAR(observed, p, 5.0 * std::sqrt(p * (1.0 - p) / rounds))
        << "edge " << e << " (I = " << 1.0 / (2.0 * p) << ")";
  }
}

TEST(WakeSampler, PairsWakeIndependently) {
  const std::vector<double> prob = boundary_probs();
  const detail::WakeSampler wake(prob);
  // The first four pairs are neighbours in one class's edge list (I = 1/1,
  // 2/3, 4/7 and 63/32); the rest span two classes, down to I = 1 against
  // I = 64.
  const std::pair<graph::EdgeId, graph::EdgeId> pairs[] = {
      {0, 12}, {2, 4}, {6, 8}, {3, 5}, {0, 2}, {4, 7}, {0, 1}, {9, 10}};
  geom::Rng rng(6);
  const int rounds = 200000;
  std::vector<std::size_t> joint(std::size(pairs), 0);
  std::vector<bool> on(prob.size());
  for (int i = 0; i < rounds; ++i) {
    std::fill(on.begin(), on.end(), false);
    for (const graph::EdgeId e : wake.sample(rng)) on[e] = true;
    for (std::size_t k = 0; k < std::size(pairs); ++k)
      if (on[pairs[k].first] && on[pairs[k].second]) ++joint[k];
  }
  for (std::size_t k = 0; k < std::size(pairs); ++k) {
    const double pp = prob[pairs[k].first] * prob[pairs[k].second];
    const double observed =
        static_cast<double>(joint[k]) / static_cast<double>(rounds);
    EXPECT_NEAR(observed, pp, 5.0 * std::sqrt(pp * (1.0 - pp) / rounds))
        << "edges " << pairs[k].first << ", " << pairs[k].second;
  }
}

TEST(WakeSampler, EmptyAndSingleEdge) {
  geom::Rng rng(8);
  const detail::WakeSampler none(std::vector<double>{});
  EXPECT_EQ(none.num_classes(), 0U);
  EXPECT_TRUE(none.sample(rng).empty());

  const detail::WakeSampler one(std::vector<double>{0.25});
  EXPECT_EQ(one.num_classes(), 1U);
  std::size_t hits = 0;
  const int rounds = 40000;
  for (int i = 0; i < rounds; ++i) {
    const std::vector<graph::EdgeId> active = one.sample(rng);
    ASSERT_LE(active.size(), 1U);
    if (!active.empty()) {
      EXPECT_EQ(active.front(), 0U);
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / rounds, 0.25,
              5.0 * std::sqrt(0.25 * 0.75 / rounds));

  const detail::WakeSampler sure(std::vector<double>{1.0});
  EXPECT_EQ(sure.sample(rng), std::vector<graph::EdgeId>{0});
}

TEST(RandomizedMac, EmptyGraphActivatesNothing) {
  topo::Deployment d;
  d.positions = {{0, 0}, {0.5, 0}};
  d.max_range = 1.0;
  d.kappa = 2.0;
  const graph::Graph g(2);
  const RandomizedMac mac(g, d, interf::InterferenceModel{1.0});
  geom::Rng rng(3);
  EXPECT_TRUE(mac.activate(rng).empty());
  EXPECT_EQ(mac.interference_bound(), 1U);
}

// Lemma 3.2: an active edge interferes with other *active* edges with
// probability at most 1/2.
TEST(RandomizedMac, Lemma32CollisionProbabilityAtMostHalf) {
  const MacFixture f(73);
  const RandomizedMac mac(f.topo, f.d, f.model);
  const auto sets = interf::interference_sets(f.topo, f.d, f.model);
  geom::Rng rng(7);
  std::vector<std::size_t> active_count(f.topo.num_edges(), 0);
  std::vector<std::size_t> collided(f.topo.num_edges(), 0);
  const int rounds = 30000;
  std::vector<bool> is_active(f.topo.num_edges());
  for (int round = 0; round < rounds; ++round) {
    const auto active = mac.activate(rng);
    std::fill(is_active.begin(), is_active.end(), false);
    for (const graph::EdgeId e : active) is_active[e] = true;
    for (const graph::EdgeId e : active) {
      ++active_count[e];
      for (const graph::EdgeId ep : sets[e])
        if (is_active[ep]) {
          ++collided[e];
          break;
        }
    }
  }
  // Aggregate check (per-edge samples are small for rarely-active edges).
  std::size_t total_active = 0, total_collided = 0;
  for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) {
    total_active += active_count[e];
    total_collided += collided[e];
    if (active_count[e] >= 200) {
      EXPECT_LE(static_cast<double>(collided[e]) /
                    static_cast<double>(active_count[e]),
                0.55)
          << "edge " << e;
    }
  }
  ASSERT_GT(total_active, 0U);
  EXPECT_LE(static_cast<double>(total_collided) /
                static_cast<double>(total_active),
            0.5);
}

TEST(RandomizedMac, ResolveFlagsInterferingPlannedTransmissions) {
  topo::Deployment d;
  d.positions = {{0, 0}, {0.5, 0}, {0.7, 0}, {1.2, 0}, {10, 0}, {10.5, 0}};
  d.max_range = 0.6;
  d.kappa = 2.0;
  graph::Graph g(6);
  g.add_edge(0, 1, 0.5, 0.25);
  g.add_edge(2, 3, 0.5, 0.25);
  g.add_edge(4, 5, 0.5, 0.25);
  const RandomizedMac mac(g, d, interf::InterferenceModel{1.0});
  std::vector<PlannedTx> txs(3);
  txs[0] = {0, 0, 1, 5, 1.0};
  txs[1] = {1, 2, 3, 5, 1.0};
  txs[2] = {2, 4, 5, 0, 1.0};
  const auto failed = mac.resolve(txs);
  EXPECT_TRUE(failed[0]);   // edges 0 and 1 are 0.2 apart: mutual kill
  EXPECT_TRUE(failed[1]);
  EXPECT_FALSE(failed[2]);  // edge 2 is 9 units away
}

TEST(SlottedAloha, ActivationFrequencyMatchesP) {
  const MacFixture f(74, 60, 0.25);
  const SlottedAlohaMac mac(f.topo, f.d, f.model, 0.1);
  geom::Rng rng(1);
  std::size_t total = 0;
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i) total += mac.activate(rng).size();
  const double per_edge = static_cast<double>(total) /
                          (static_cast<double>(rounds) *
                           static_cast<double>(f.topo.num_edges()));
  EXPECT_NEAR(per_edge, 0.1, 0.01);
}

TEST(SlottedAloha, ResolveUsesSameInterferenceModel) {
  const MacFixture f(75, 60, 0.25);
  const SlottedAlohaMac amac(f.topo, f.d, f.model, 0.5);
  const RandomizedMac imac(f.topo, f.d, f.model);
  // Same planned transmissions must fail identically under both MACs (the
  // collision physics is shared; only activation policy differs).
  std::vector<PlannedTx> txs;
  for (graph::EdgeId e = 0;
       e < std::min<graph::EdgeId>(
               10, static_cast<graph::EdgeId>(f.topo.num_edges()));
       ++e)
    txs.push_back({e, f.topo.edge(e).u, f.topo.edge(e).v, 0, 1.0});
  EXPECT_EQ(amac.resolve(txs), imac.resolve(txs));
}

TEST(SlottedAloha, FullProbabilityActivatesEverything) {
  const MacFixture f(76, 40, 0.3);
  const SlottedAlohaMac mac(f.topo, f.d, f.model, 1.0);
  geom::Rng rng(2);
  EXPECT_EQ(mac.activate(rng).size(), f.topo.num_edges());
}

TEST(RandomizedMac, DegenerateSingleEdge) {
  topo::Deployment d;
  d.positions = {{0, 0}, {0.5, 0}};
  d.max_range = 1.0;
  d.kappa = 2.0;
  graph::Graph g(2);
  g.add_edge(0, 1, 0.5, 0.25);
  const RandomizedMac mac(g, d, interf::InterferenceModel{1.0});
  EXPECT_EQ(mac.interference_bound(), 1U);  // floor of 1, never divides by 0
  EXPECT_DOUBLE_EQ(mac.activation_prob(0), 0.5);
  geom::Rng rng(4);
  std::size_t hits = 0;
  const int rounds = 40000;
  for (int i = 0; i < rounds; ++i) hits += mac.activate(rng).size();
  EXPECT_NEAR(static_cast<double>(hits) / rounds, 0.5,
              5.0 * std::sqrt(0.25 / rounds));
}

}  // namespace
}  // namespace thetanet::core
