// Oracle equivalence for the SoA routing hot path: the production
// BalancingRouter (plan_into over every edge, and plan_all_edges_into over
// the bitset-derived candidate set) must plan the exact same transmissions,
// round for round, as the brute-force map-based ReferenceRouter — across
// workloads, gamma settings and TN_NUM_THREADS in {1, 2, 4} (the
// bit-identity contract).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/balancing_router.h"
#include "geom/rng.h"
#include "obs/timeseries.h"
#include "routing/injection.h"
#include "routing/reference_router.h"

namespace thetanet::core {
namespace {

graph::Graph random_graph(std::size_t n, double p, geom::Rng& rng) {
  graph::Graph g(n);
  for (graph::NodeId u = 0; u < n; ++u)
    for (graph::NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) {
        const double len = rng.uniform(0.1, 1.0);
        g.add_edge(u, v, len, len * len);
      }
  return g;
}

std::vector<double> costs_of(const graph::Graph& g) {
  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;
  return costs;
}

struct Workload {
  const char* name;
  route::InjectionSpec spec;
  BalancingParams params;
};

struct FastResult {
  std::vector<PlannedTx> txs;  // concatenated over all rounds
  route::RunMetrics m;
};

FastResult run_fast(const graph::Graph& g, std::span<const double> costs,
                    const Workload& w, route::Time rounds, bool sparse) {
  BalancingRouter router(g.num_nodes(), w.params);
  route::InjectionEngine engine(g, w.spec);
  FastResult r;
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < all.size(); ++e) all[e] = e;
  std::vector<PlannedTx> txs;
  std::vector<route::Packet> arrivals;
  const std::vector<bool> no_failures;
  for (route::Time t = 0; t < rounds; ++t) {
    if (sparse) {
      router.plan_all_edges_into(g, costs, txs);
    } else {
      router.plan_into(g, all, costs, txs);
    }
    router.execute(txs, no_failures, costs, t, r.m);
    engine.step(t, r.m, arrivals);
    for (const route::Packet& p : arrivals) router.inject(p, r.m);
    router.end_step(r.m);
    r.txs.insert(r.txs.end(), txs.begin(), txs.end());
  }
  r.m.leftover_packets = router.packets_in_flight();
  return r;
}

struct RefResult {
  std::vector<route::ReferenceTx> txs;
  route::RunMetrics m;
};

RefResult run_reference(const graph::Graph& g, std::span<const double> costs,
                        const Workload& w, route::Time rounds) {
  route::ReferenceRouter router(g.num_nodes(), w.params.threshold,
                                w.params.gamma, w.params.max_height);
  route::InjectionEngine engine(g, w.spec);
  RefResult r;
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < all.size(); ++e) all[e] = e;
  std::vector<route::Packet> arrivals;
  const std::vector<bool> no_failures;
  for (route::Time t = 0; t < rounds; ++t) {
    const std::vector<route::ReferenceTx> txs = router.plan(g, all, costs);
    router.execute(txs, no_failures, costs, t, r.m);
    engine.step(t, r.m, arrivals);
    for (const route::Packet& p : arrivals) router.inject(p, r.m);
    router.end_step(r.m);
    r.txs.insert(r.txs.end(), txs.begin(), txs.end());
  }
  r.m.leftover_packets = router.packets_in_flight();
  return r;
}

void expect_same_plan(const std::vector<route::ReferenceTx>& ref,
                      const std::vector<PlannedTx>& fast) {
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].edge, fast[i].edge) << "tx " << i;
    EXPECT_EQ(ref[i].from, fast[i].from) << "tx " << i;
    EXPECT_EQ(ref[i].to, fast[i].to) << "tx " << i;
    EXPECT_EQ(ref[i].dest, fast[i].dest) << "tx " << i;
    EXPECT_EQ(ref[i].benefit, fast[i].benefit) << "tx " << i;  // bit-exact
  }
}

void expect_same_txs(const std::vector<PlannedTx>& a,
                     const std::vector<PlannedTx>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edge, b[i].edge) << "tx " << i;
    EXPECT_EQ(a[i].from, b[i].from) << "tx " << i;
    EXPECT_EQ(a[i].to, b[i].to) << "tx " << i;
    EXPECT_EQ(a[i].dest, b[i].dest) << "tx " << i;
    EXPECT_EQ(a[i].benefit, b[i].benefit) << "tx " << i;
  }
}

void expect_identical(const FastResult& a, const FastResult& b) {
  expect_same_txs(a.txs, b.txs);
  EXPECT_EQ(a.m.deliveries, b.m.deliveries);
  EXPECT_EQ(a.m.attempted_tx, b.m.attempted_tx);
  EXPECT_EQ(a.m.injected_accepted, b.m.injected_accepted);
  EXPECT_EQ(a.m.leftover_packets, b.m.leftover_packets);
  EXPECT_EQ(a.m.peak_buffer, b.m.peak_buffer);
  EXPECT_EQ(a.m.total_energy, b.m.total_energy);  // same accumulation order
}

void expect_same_metrics(const route::RunMetrics& ref,
                         const route::RunMetrics& fast) {
  EXPECT_EQ(ref.injected_offered, fast.injected_offered);
  EXPECT_EQ(ref.injected_accepted, fast.injected_accepted);
  EXPECT_EQ(ref.dropped_at_injection, fast.dropped_at_injection);
  EXPECT_EQ(ref.deliveries, fast.deliveries);
  EXPECT_EQ(ref.total_hops_delivered, fast.total_hops_delivered);
  EXPECT_EQ(ref.sum_latency, fast.sum_latency);
  EXPECT_EQ(ref.delivered_cost, fast.delivered_cost);
  EXPECT_EQ(ref.total_energy, fast.total_energy);
  EXPECT_EQ(ref.attempted_tx, fast.attempted_tx);
  EXPECT_EQ(ref.skipped_tx, fast.skipped_tx);
  EXPECT_EQ(ref.dropped_in_transit, fast.dropped_in_transit);
  EXPECT_EQ(ref.peak_buffer, fast.peak_buffer);
  EXPECT_EQ(ref.leftover_packets, fast.leftover_packets);
}

std::vector<Workload> workloads() {
  std::vector<Workload> ws;
  {
    Workload w{"poisson", {}, {0.5, 0.0, 8}};
    w.spec.process = route::InjectionSpec::Process::kPoisson;
    w.spec.rate = 3.0;
    w.spec.seed = 11;
    ws.push_back(w);
  }
  {
    Workload w{"hotspot_gamma", {}, {1.0, 0.8, 6}};
    w.spec.process = route::InjectionSpec::Process::kHotspot;
    w.spec.rate = 4.0;
    w.spec.num_destinations = 3;
    w.spec.seed = 12;
    ws.push_back(w);
  }
  {
    Workload w{"bursty_closed", {}, {0.5, 0.2, 4}};
    w.spec.process = route::InjectionSpec::Process::kBursty;
    w.spec.rate = 2.0;
    w.spec.burst_len = 16;
    w.spec.gap_len = 48;
    w.spec.window = 64;
    w.spec.seed = 13;
    ws.push_back(w);
  }
  {
    Workload w{"adversarial", {}, {1.0, 0.0, 8}};
    w.spec.process = route::InjectionSpec::Process::kAdversarialCut;
    w.spec.rate = 0.4;
    w.spec.seed = 14;
    ws.push_back(w);
  }
  return ws;
}

TEST(RouterEquivalence, SmallGraphOracleAndThreads) {
  geom::Rng rng(0x5eed);
  const graph::Graph g = random_graph(48, 0.25, rng);
  const std::vector<double> costs = costs_of(g);
  constexpr route::Time kRounds = 300;
  const int saved = tn::num_threads();
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    const RefResult ref = run_reference(g, costs, w, kRounds);
    FastResult base;
    bool have_base = false;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      tn::set_num_threads(threads);
      const FastResult dense = run_fast(g, costs, w, kRounds, false);
      const FastResult sparse = run_fast(g, costs, w, kRounds, true);
      expect_same_plan(ref.txs, dense.txs);
      expect_same_metrics(ref.m, dense.m);
      expect_identical(dense, sparse);
      if (!have_base) {
        base = dense;
        have_base = true;
      } else {
        expect_identical(base, dense);
      }
    }
  }
  tn::set_num_threads(saved);
}

// The one oracle comparison on a dense instance (>= 4096 edges, passed in
// full to plan_into): plan_into and plan_all_edges_into must match
// ReferenceRouter step for step, and stay bit-identical with the pool at 1,
// 2 and 4 workers.
TEST(RouterEquivalence, DenseGraphOracleAndThreads) {
  geom::Rng rng(0xfeed);
  const graph::Graph g = random_graph(160, 0.45, rng);
  ASSERT_GE(g.num_edges(), 4096U);
  const std::vector<double> costs = costs_of(g);
  constexpr route::Time kRounds = 60;
  Workload w{"poisson_dense", {}, {0.5, 0.1, 6}};
  w.spec.process = route::InjectionSpec::Process::kPoisson;
  w.spec.rate = 24.0;
  w.spec.seed = 21;

  const int saved = tn::num_threads();
  const RefResult ref = run_reference(g, costs, w, kRounds);
  FastResult base;
  bool have_base = false;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    tn::set_num_threads(threads);
    const FastResult dense = run_fast(g, costs, w, kRounds, false);
    const FastResult sparse = run_fast(g, costs, w, kRounds, true);
    expect_same_plan(ref.txs, dense.txs);
    expect_same_metrics(ref.m, dense.m);
    expect_identical(dense, sparse);
    if (!have_base) {
      base = dense;
      have_base = true;
    } else {
      expect_identical(base, dense);
    }
  }
  tn::set_num_threads(saved);
}

// A graph on n nodes with exactly m edges, drawn from the shuffled node
// pairs so that edge ids are not ordered by endpoint.
graph::Graph graph_with_edges(std::size_t n, std::size_t m, geom::Rng& rng) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId u = 0; u < n; ++u)
    for (graph::NodeId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  EXPECT_GE(pairs.size(), m);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  graph::Graph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double len = rng.uniform(0.1, 1.0);
    g.add_edge(pairs[i].first, pairs[i].second, len, len * len);
  }
  return g;
}

// Sum of the router.active_edges series: plan_all_edges_into adds its
// candidate count to it, so the delta across one call is that count.
std::uint64_t active_edges_total() {
  std::uint64_t total = 0;
  for (const obs::SeriesSnapshot& s : obs::SeriesRegistry::global().snapshot())
    if (s.name == std::string_view("router.active_edges"))
      for (const std::uint64_t v : s.upoints) total += v;
  return total;
}

std::uint64_t edges_with_buffered_endpoint(const BalancingRouter& router,
                                           const graph::Graph& g) {
  std::vector<bool> active(g.num_nodes(), false);
  router.buffers().for_each_active_node(
      [&](graph::NodeId v) { active[v] = true; });
  std::uint64_t count = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    if (active[g.edge_u(e)] || active[g.edge_v(e)]) ++count;
  return count;
}

enum class Traffic { kIdle, kLoaded };

// One round on `g`. Idle keeps one packet buffered, placed on an endpoint of
// the highest edge id (the partial last bitset word); loaded offers a packet
// at every node. plan_all_edges_into must plan exactly what plan_into over
// every edge plans, from a candidate set of exactly the edges with a
// buffering endpoint (no duplicate, no stale bit); then the plan executes.
void compare_round(BalancingRouter& router, const graph::Graph& g,
                   Traffic traffic, route::Time t, geom::Rng& rng,
                   route::RunMetrics& m) {
  const std::size_t n = g.num_nodes();
  const auto packet = [&](graph::NodeId src) {
    auto dst = static_cast<graph::NodeId>(rng.uniform_index(n - 1));
    if (dst >= src) ++dst;
    return route::Packet{m.injected_offered, src, dst, t, 0.0, 0};
  };
  if (traffic == Traffic::kLoaded) {
    for (graph::NodeId v = 0; v < n; ++v) router.inject(packet(v), m);
  } else if (router.packets_in_flight() == 0) {
    const graph::EdgeId last = static_cast<graph::EdgeId>(g.num_edges() - 1);
    router.inject(packet(t % 2 == 0 ? g.edge_u(last) : g.edge_v(last)), m);
  }
  ASSERT_GT(router.packets_in_flight(), 0U);

  const std::vector<double> costs = costs_of(g);
  std::vector<graph::EdgeId> all(g.num_edges());
  std::iota(all.begin(), all.end(), graph::EdgeId{0});
  std::vector<PlannedTx> full;
  std::vector<PlannedTx> sparse;
  router.plan_into(g, all, costs, full);
  const std::uint64_t before = active_edges_total();
  router.plan_all_edges_into(g, costs, sparse);
  EXPECT_EQ(active_edges_total() - before,
            edges_with_buffered_endpoint(router, g));
  expect_same_txs(full, sparse);
  router.execute(sparse, {}, costs, t, m);
  router.end_step(m);
}

// plan_all_edges_into reads its candidates out of an edge bitset word by
// word: edge counts just below, at and just above a word boundary, and one
// past 4096, under idle and loaded traffic.
TEST(RouterEquivalence, SparsePlanMatchesFullPlanAcrossWordBoundaries) {
  for (const std::size_t num_edges : {63U, 64U, 65U, 4133U}) {
    for (const Traffic traffic : {Traffic::kIdle, Traffic::kLoaded}) {
      SCOPED_TRACE(testing::Message()
                   << num_edges << " edges, "
                   << (traffic == Traffic::kIdle ? "idle" : "loaded"));
      geom::Rng rng(0xb175e7 + num_edges);
      const graph::Graph g =
          graph_with_edges(num_edges < 4096 ? 16 : 96, num_edges, rng);
      BalancingRouter router(g.num_nodes(), {0.5, 0.1, 8});
      route::RunMetrics m;
      for (route::Time t = 0; t < 40; ++t) {
        compare_round(router, g, traffic, t, rng, m);
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(m.attempted_tx, 0U);
    }
  }
}

// One router alternating between two graphs on the same nodes, the larger
// one's bitset words covering edge ids the smaller one lacks: the bitset
// grows once, and no bit set for one graph survives into a call on the other.
TEST(RouterEquivalence, SparsePlanBitsetAcrossGraphSwitches) {
  geom::Rng rng(0x5a17c4);
  const graph::Graph small = graph_with_edges(96, 65, rng);
  const graph::Graph large = graph_with_edges(96, 4133, rng);
  for (const Traffic traffic : {Traffic::kIdle, Traffic::kLoaded}) {
    SCOPED_TRACE(traffic == Traffic::kIdle ? "idle" : "loaded");
    BalancingRouter router(96, {0.5, 0.1, 8});
    route::RunMetrics m;
    for (route::Time t = 0; t < 40; ++t) {
      compare_round(router, t % 2 == 0 ? small : large, traffic, t, rng, m);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(m.attempted_tx, 0U);
  }
}

}  // namespace
}  // namespace thetanet::core
