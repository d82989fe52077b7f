// The benchmark's own tests: span arithmetic, determinism of the generated
// inputs, and a tiny run of every workload against the metric names that
// BENCHMARK.json declares.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "pipeline.h"

namespace pipebench {
namespace {

SpanRecord span(const char* layer, std::uint64_t start, std::uint64_t end,
                int parent) {
  SpanRecord s;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // round [0,100): plan [10,30) and execute [20,50) overlap, end_step
  // [90,120) sticks out of the round. Covered: [10,50) + [90,100) = 50.
  const std::vector<SpanRecord> batch = {
      span("round", 0, 100, -1), span("plan", 10, 30, 0),
      span("execute", 20, 50, 0), span("end_step", 90, 120, 0),
      span("inner", 12, 18, 1)};
  const std::vector<std::uint64_t> self = self_times(batch);
  ASSERT_EQ(self.size(), 5U);
  EXPECT_EQ(self[0], 50U);
  EXPECT_EQ(self[1], 14U);  // 20 minus its child's 6
  EXPECT_EQ(self[2], 30U);
  EXPECT_EQ(self[3], 30U);
  EXPECT_EQ(self[4], 6U);
}

TEST(SelfTime, NestedSequentialChildrenLeaveTheGaps) {
  const std::vector<SpanRecord> batch = {
      span("setup", 100, 200, -1), span("a", 100, 130, 0),
      span("b", 140, 190, 0)};
  EXPECT_EQ(self_times(batch)[0], 20U);
}

TEST(Fold, AccumulatesCountTotalAndSelfPerLayer) {
  Totals totals;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t t = 1000U * static_cast<std::uint64_t>(round);
    fold({span("round", t, t + 100, -1), span("plan", t + 10, t + 40, 0),
          span("plan", t + 50, t + 60, 0)},
         totals);
  }
  const LayerTotals round = totals.get("round");
  EXPECT_EQ(round.count, 3U);
  EXPECT_EQ(round.total_ns, 300U);
  EXPECT_EQ(round.self_ns, 180U);
  const LayerTotals plan = totals.get("plan");
  EXPECT_EQ(plan.count, 6U);
  EXPECT_EQ(plan.total_ns, 120U);
  EXPECT_EQ(plan.self_ns, 120U);
  EXPECT_EQ(totals.get("absent").count, 0U);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.5), 3.0);
  EXPECT_EQ(percentile(v, 0.99), 5.0);
  EXPECT_EQ(percentile(v, 0.2), 1.0);
  EXPECT_EQ(percentile(v, 0.21), 2.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.0);
  std::vector<float> empty;
  EXPECT_EQ(percentile(empty, 0.5), 0.0);
}

TEST(Ledger, RecordsParentsAndKeepsABoundedSample) {
  Ledger ledger(2);
  for (std::uint32_t round = 0; round < 5; ++round) {
    ledger.set_run(round);
    {
      Scope r(&ledger, "round");
      Scope a(&ledger, "plan");
    }
    ledger.end_batch();
  }
  ASSERT_EQ(ledger.sample().size(), 2U);
  const std::vector<SpanRecord>& first = ledger.sample()[0];
  ASSERT_EQ(first.size(), 2U);
  EXPECT_EQ(first[0].parent, -1);
  EXPECT_EQ(first[1].parent, 0);
  EXPECT_EQ(ledger.sample()[1][0].run, 1U);
  EXPECT_LE(first[0].start_ns, first[1].start_ns);
  EXPECT_GE(first[0].end_ns, first[1].end_ns);
  EXPECT_EQ(ledger.totals().get("round").count, 5U);
  EXPECT_EQ(ledger.totals().get("plan").count, 5U);
  EXPECT_NE(ledger.spans_json().find("\"name\":\"plan\""), std::string::npos);
  Scope off(nullptr, "nothing");  // a null ledger records nothing
}

// The workload scaled down to run in about a second.
Workload tiny(const char* name) {
  const Workload* full = find_workload(name);
  EXPECT_NE(full, nullptr);
  Workload w = *full;
  w.n = w.route_nodes > 0 ? 3000 : w.route_with_mac ? 64 : 96;
  w.instances = 2;
  w.setups = 3;
  return w;
}

TEST(Determinism, SameSeedGivesSameInputsAndChecksums) {
  for (const Workload& full : workloads()) {
    const Workload w = tiny(full.name);
    EXPECT_EQ(instance_seed(w, 7), instance_seed(w, 7));
    EXPECT_NE(instance_seed(w, 7), instance_seed(w, 8));
    const auto a = build_network(w, instance_seed(w, 7), nullptr);
    const auto b = build_network(w, instance_seed(w, 7), nullptr);
    EXPECT_EQ(a->deployment.positions.size(), w.n);
    EXPECT_EQ(network_checksum(*a), network_checksum(*b)) << w.name;
    const graph::Graph ga = routing_graph(w, *a, 7);
    const graph::Graph gb = routing_graph(w, *b, 7);
    EXPECT_EQ(edges_checksum(ga), edges_checksum(gb));
    std::vector<float> scratch;
    const core::RandomizedMac* mac_a = w.route_with_mac ? a->mac.get() : nullptr;
    const core::RandomizedMac* mac_b = w.route_with_mac ? b->mac.get() : nullptr;
    const Episode ea = route_episode(w, ga, mac_a, 7, nullptr, scratch);
    Ledger ledger(1);
    const Episode eb = route_episode(w, gb, mac_b, 7, &ledger, scratch);
    EXPECT_EQ(ea.checksum, eb.checksum) << w.name;
    EXPECT_EQ(ea.m.deliveries, eb.m.deliveries);
    EXPECT_EQ(ea.m.sum_latency, eb.m.sum_latency);
    EXPECT_EQ(ea.m.attempted_tx, eb.m.attempted_tx);
    EXPECT_EQ(check_episode(ea), "") << w.name;
  }
}

TEST(Checks, LivelockAndConservationFail) {
  Episode e;
  e.m.injected_offered = e.m.injected_accepted = 10;
  e.in_flight = 10;
  EXPECT_NE(check_episode(e).find("livelock"), std::string::npos);
  e.m.deliveries = 3;
  EXPECT_NE(check_episode(e).find("conservation"), std::string::npos);
  e.in_flight = 7;
  EXPECT_EQ(check_episode(e), "");
  e.m.attempted_tx = 4;
  e.m.failed_tx = 3;
  EXPECT_NE(check_episode(e).find("Lemma 3.2"), std::string::npos);
}

std::vector<std::string> declared(const std::string& section) {
  std::ifstream in(PIPEBENCH_MANIFEST);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto begin = text.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const auto end = text.find(']', begin);
  const std::string part = text.substr(begin, end - begin);
  std::vector<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(part.begin(), part.end(), name_re);
       it != std::sregex_iterator(); ++it)
    names.push_back((*it)[1]);
  return names;
}

std::vector<std::string> names(const RunResult& r) {
  std::vector<std::string> out;
  for (const Metric& m : r.metrics) out.push_back(m.name);
  return out;
}

TEST(Smoke, EveryWorkloadRunsCorrectlyAndReportsTheDeclaredMetrics) {
  const std::vector<std::string> e2e = declared("end_to_end");
  const std::vector<std::string> layers = declared("per_layer");
  ASSERT_FALSE(e2e.empty());
  ASSERT_FALSE(layers.empty());
  std::set<std::string> workload_names;
  for (const std::string& n : declared("workloads")) workload_names.insert(n);
  for (const Workload& full : workloads()) {
    EXPECT_EQ(workload_names.count(full.name), 1U) << full.name;
    const Workload w = tiny(full.name);
    const RunResult plain = run_workload(w, 3, 0.01, false);
    EXPECT_TRUE(plain.correct) << w.name << ": " << plain.problems.size();
    EXPECT_GT(plain.attempted, 0U);
    EXPECT_EQ(names(plain), e2e) << w.name;
    for (const Metric& m : plain.metrics) EXPECT_GT(m.value, 0.0) << m.name;
    const RunResult traced = run_workload(w, 3, 0.01, true);
    EXPECT_TRUE(traced.correct) << w.name;
    EXPECT_EQ(names(traced), layers) << w.name;
    EXPECT_NE(traced.trace_json.find("\"host\""), std::string::npos);
  }
}

}  // namespace
}  // namespace pipebench
