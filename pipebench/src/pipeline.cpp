#include "pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <thread>

#include "alloc_meter.h"
#include "common/parallel.h"
#include "core/balancing_router.h"
#include "geom/rng.h"
#include "graph/connectivity.h"
#include "obs/span.h"
#include "routing/injection.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"
#include "verify/invariants.h"

namespace pipebench {

using namespace thetanet;

namespace {

constexpr double kTheta = std::numbers::pi / 9.0;

// Each workload draws its inputs from its own stream of the seed.
constexpr std::uint64_t kDeploySalt = 0x6465706c6f79ULL;
constexpr std::uint64_t kTrafficSalt = 0x74726166666963ULL;
constexpr std::uint64_t kMacSalt = 0x6d6163ULL;
constexpr std::uint64_t kBallSalt = 0x62616c6cULL;
constexpr std::uint64_t kInstanceSalt = 0x696e7374ULL;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// Untraced/traced episode pairs in a traced run.
constexpr int kTracedPairs = 3;

constexpr Workload kWorkloads[] = {
    // name, n, delta, build_mac, route_with_mac, route_nodes,
    // rate, window, T, rounds, instances, setups
    {"build-1e5", 100000, 1.0, true, false, 64, 4.0, 512, 1.5, 250, 256, 3},
    {"route-loaded", 256, 1.0, false, false, 0, 4.0, 2048, 1.5, 500, 24, 31},
    {"route-mac", 256, 0.25, true, true, 0, 4.0, 1024, 0.5, 25000, 8, 31},
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  geom::Rng rng(seed ^ salt);
  return rng();
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  }
};

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t find_span_ns(const std::vector<obs::SpanSnapshot>& nodes,
                           std::string_view name) {
  std::uint64_t total = 0;
  for (const obs::SpanSnapshot& s : nodes) {
    if (s.name == name) total += s.wall_ns;
    total += find_span_ns(s.children, name);
  }
  return total;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

namespace {

topo::Deployment deploy(const Workload& w, std::uint64_t instance) {
  geom::Rng rng(instance);
  topo::Deployment d;
  d.positions = topo::uniform_square(w.n, 1.0, rng);
  d.max_range = 1.6 * std::sqrt(std::log(static_cast<double>(w.n)) /
                                static_cast<double>(w.n));
  d.kappa = kKappa;
  return d;
}

}  // namespace

std::uint64_t instance_seed(const Workload& w, std::uint64_t seed) {
  std::uint64_t s = mix_seed(seed, kDeploySalt);
  // A 10^5-node draw is connected with overwhelming probability, and the
  // check below would cost a G* build; small draws are redrawn until
  // connected.
  if (w.route_nodes > 0) return s;
  for (int attempt = 0; attempt < 64; ++attempt, ++s)
    if (graph::is_connected(topo::build_transmission_graph(deploy(w, s))))
      return s;
  return s;
}

std::unique_ptr<Network> build_network(const Workload& w,
                                       std::uint64_t instance,
                                       Ledger* ledger) {
  auto net = std::make_unique<Network>();
  Scope setup(ledger, "setup");
  {
    Scope s(ledger, "topology.deploy");
    net->deployment = deploy(w, instance);
  }
  {
    Scope s(ledger, "topology.transmission_graph");
    net->gstar = topo::build_transmission_graph(net->deployment);
  }
  {
    Scope s(ledger, "graph.connectivity");
    net->gstar_connected = graph::is_connected(net->gstar);
  }
  {
    Scope s(ledger, "core.theta");
    net->theta =
        std::make_unique<core::ThetaTopology>(net->deployment, kTheta);
  }
  if (w.build_mac) {
    Scope s(ledger, "core.mac.build");
    net->mac = std::make_unique<core::RandomizedMac>(
        net->theta->graph(), net->deployment,
        interf::InterferenceModel{w.delta});
  }
  return net;
}

std::string check_network(const Network& net) {
  const verify::CheckReport r = verify::check_theta_invariants(
      net.theta->graph(), net.deployment, kTheta, net.gstar,
      net.theta.get());
  return r.pass() ? std::string() : r.to_string();
}

std::uint64_t edges_checksum(const graph::Graph& g) {
  Fnv f;
  f.mix(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    f.mix((static_cast<std::uint64_t>(g.edge_u(e)) << 32) | g.edge_v(e));
  return f.h;
}

std::uint64_t bounds_checksum(const core::RandomizedMac& mac,
                              std::size_t edges) {
  Fnv f;
  f.mix(mac.interference_bound());
  for (graph::EdgeId e = 0; e < edges; ++e)
    f.mix(static_cast<std::uint64_t>(1.0 / mac.activation_prob(e)));
  return f.h;
}

std::uint64_t network_checksum(const Network& net) {
  Fnv f;
  f.mix(edges_checksum(net.theta->graph()));
  if (net.mac)
    f.mix(bounds_checksum(*net.mac, net.theta->graph().num_edges()));
  return f.h;
}

namespace {

// The first `limit` nodes of a BFS of g from `from`, in BFS order.
std::vector<graph::NodeId> bfs(const graph::Graph& g, graph::NodeId from,
                               std::size_t limit) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<graph::NodeId> order{from};
  seen[from] = true;
  for (std::size_t head = 0; head < order.size() && order.size() < limit;
       ++head) {
    for (const graph::Half& h : g.neighbors(order[head])) {
      if (seen[h.to]) continue;
      seen[h.to] = true;
      order.push_back(h.to);
      if (order.size() == limit) break;
    }
  }
  return order;
}

}  // namespace

graph::Graph routing_graph(const Workload& w, const Network& net,
                           std::uint64_t seed) {
  const graph::Graph& n = net.theta->graph();
  if (w.route_nodes == 0) return n;
  // Centre the ball on the highest-degree node near a seeded start, so the
  // maximum-degree node that collects the traffic sits in its middle rather
  // than on its rim.
  geom::Rng rng(mix_seed(seed, kBallSalt));
  const auto start = static_cast<graph::NodeId>(
      rng.uniform_index(n.num_nodes()));
  graph::NodeId centre = start;
  for (const graph::NodeId v : bfs(n, start, w.route_nodes))
    if (n.degree(v) > n.degree(centre)) centre = v;
  const std::vector<graph::NodeId> order = bfs(n, centre, w.route_nodes);
  std::vector<graph::NodeId> local(n.num_nodes(), graph::kInvalidNode);
  for (std::size_t i = 0; i < order.size(); ++i)
    local[order[i]] = static_cast<graph::NodeId>(i);
  graph::Graph ball(order.size());
  for (graph::EdgeId e = 0; e < n.num_edges(); ++e) {
    const graph::NodeId u = local[n.edge_u(e)];
    const graph::NodeId v = local[n.edge_v(e)];
    if (u == graph::kInvalidNode || v == graph::kInvalidNode) continue;
    const graph::Edge edge = n.edge(e);
    ball.add_edge(u, v, edge.length, edge.cost);
  }
  ball.finalize();
  return ball;
}

Episode route_episode(const Workload& w, const graph::Graph& g,
                      const core::RandomizedMac* mac, std::uint64_t seed,
                      Ledger* ledger, std::vector<float>& round_us) {
  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;

  // Poisson arrivals at w.rate per round from every node, converging on the
  // maximum-degree node: the library's convergecast process scales its rate
  // by that node's degree, so divide it back out.
  route::InjectionSpec spec;
  spec.process = route::InjectionSpec::Process::kAdversarialCut;
  spec.rate = w.rate / static_cast<double>(std::max<std::size_t>(1, g.max_degree()));
  spec.window = w.window;
  spec.seed = mix_seed(seed, kTrafficSalt);
  route::InjectionEngine injection(g, spec);
  core::BalancingRouter router(
      g.num_nodes(), core::BalancingParams{w.threshold, kGamma, kMaxHeight});
  geom::Rng mac_rng(mix_seed(seed, kMacSalt));

  Episode ep;
  round_us.clear();
  round_us.reserve(w.rounds);
  std::vector<graph::EdgeId> active;
  std::vector<core::PlannedTx> txs;
  std::vector<bool> failed;
  std::vector<route::Packet> arrivals;
  Fnv f;
  const auto nodes = static_cast<double>(g.num_nodes());
  for (std::uint64_t t = 0; t < w.rounds; ++t) {
    const auto now = static_cast<route::Time>(t);
    const Clock::time_point t0 = Clock::now();
    {
      Scope round(ledger, "round");
      if (w.route_with_mac) {
        {
          Scope s(ledger, "core.mac.activate");
          active = mac->activate(mac_rng);
        }
        {
          Scope s(ledger, "core.router.plan");
          router.plan_into(g, active, costs, txs);
        }
        {
          Scope s(ledger, "core.mac.resolve");
          failed = mac->resolve(txs);
        }
      } else {
        Scope s(ledger, "core.router.plan");
        router.plan_all_edges_into(g, costs, txs);
      }
      {
        Scope s(ledger, "core.router.execute");
        router.execute(txs, failed, costs, now, ep.m);
      }
      {
        Scope s(ledger, "routing.injection");
        injection.step(now, ep.m, arrivals);
        for (const route::Packet& p : arrivals) router.inject(p, ep.m);
      }
      {
        Scope s(ledger, "core.router.end_step");
        router.end_step(ep.m);
      }
    }
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t ns = ns_between(t0, t1);
    round_us.push_back(static_cast<float>(ns) / 1e3F);
    ep.wall_s += static_cast<double>(ns) / 1e9;
    if (ledger != nullptr) ledger->end_batch();

    f.mix(txs.size());
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const core::PlannedTx& tx = txs[i];
      f.mix((static_cast<std::uint64_t>(tx.edge) << 32) | tx.dest);
      f.mix((static_cast<std::uint64_t>(tx.from) << 1) |
            (failed.empty() ? 0U : static_cast<unsigned>(failed[i])));
    }
    ep.active_edges += active.size();
    ep.planned_tx += txs.size();
    ep.occupancy_sum += static_cast<double>(router.packets_in_flight()) / nodes;
  }
  ep.in_flight = router.packets_in_flight();
  ep.m.leftover_packets = ep.in_flight;
  ep.checksum = f.h;
  return ep;
}

std::string check_episode(const Episode& e) {
  char buf[256];
  const route::RunMetrics& m = e.m;
  if (m.injected_accepted !=
      m.deliveries + m.dropped_in_transit + e.in_flight) {
    std::snprintf(buf, sizeof buf,
                  "packet conservation: accepted %zu != delivered %zu + "
                  "dropped in transit %zu + in flight %llu",
                  m.injected_accepted, m.deliveries, m.dropped_in_transit,
                  static_cast<unsigned long long>(e.in_flight));
    return buf;
  }
  if (m.injected_offered != m.injected_accepted + m.dropped_at_injection)
    return "packet conservation: offered != accepted + dropped at injection";
  if (2 * m.failed_tx > m.attempted_tx) {
    std::snprintf(buf, sizeof buf,
                  "Lemma 3.2: %zu of %zu attempted transmissions collided",
                  m.failed_tx, m.attempted_tx);
    return buf;
  }
  if (e.livelocked()) {
    std::snprintf(buf, sizeof buf,
                  "livelock: %llu packets outstanding, 0 delivered",
                  static_cast<unsigned long long>(e.in_flight));
    return buf;
  }
  return {};
}

namespace {

void add(RunResult& r, std::string name, double value, const char* unit) {
  r.metrics.push_back({std::move(name), value, unit});
}

void problem(RunResult& r, const std::string& what) {
  if (what.empty()) return;
  r.correct = false;
  r.problems.push_back(what);
}

// Offered packets are the operations; losses (and, on a livelock, every
// outstanding packet) are the failures.
void count_episode(RunResult& r, const Episode& e) {
  r.attempted += e.offered();
  r.failed += e.lost() + (e.livelocked() ? e.in_flight : 0);
  problem(r, check_episode(e));
}

void compare(RunResult& r, const char* what, std::uint64_t a,
             std::uint64_t b) {
  if (a == b) return;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s checksum differs: %016llx vs %016llx",
                what, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  problem(r, buf);
}

// Seeds of the run's instances, one stream per (seed, instance index); the
// odd multiplier keeps nearby seeds from sharing instances.
std::uint64_t traffic_seed(std::uint64_t seed, int k) {
  return mix_seed(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(k),
                  kInstanceSalt);
}

// The deployment of instance k (all instances share one network when the
// workload routes on balls of it).
std::uint64_t network_seed(const Workload& w, std::uint64_t seed, int k) {
  return instance_seed(w, w.route_nodes > 0 ? seed : traffic_seed(seed, k));
}

// A routed instance: the graph its traffic runs on, the MAC if any, and the
// seed of its traffic and MAC draws.
struct Instance {
  graph::Graph g{0};
  const core::RandomizedMac* mac = nullptr;
  std::uint64_t seed = 0;
};

Instance make_instance(const Workload& w, const Network& net,
                       std::uint64_t seed) {
  // A ball's edge ids are its own, so it always routes with the ideal MAC.
  const bool mac = w.route_with_mac && w.route_nodes == 0;
  return {routing_graph(w, net, seed), mac ? net.mac.get() : nullptr, seed};
}

// Builds `w`'s network once, timed, and checks it. The operation of a
// set-up is the build; it fails if its check fails.
std::unique_ptr<Network> checked_build(const Workload& w, std::uint64_t seed,
                                       RunResult& r,
                                       std::vector<double>& setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto net = build_network(w, seed, nullptr);
  setup_s.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e9);
  r.attempted += 1;
  const std::string bad = check_network(*net);
  if (!bad.empty()) r.failed += 1;
  problem(r, bad);
  return net;
}

RunResult run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  RunResult r;
  std::vector<double> setup_s;
  // Set-ups, timed: one per network (the large one, or one small network
  // per instance), then repeats of the first until the set-up median has
  // `setups` samples. All of them come before routing: the seconds after a
  // 10^5-node set-up frees its gigabytes can run markedly slower (seen on a
  // VM that hands freed pages back to its hypervisor), so a set-up between
  // sweeps slows the sweeps after it.
  const bool balls = w.route_nodes > 0;
  const int networks = balls ? 1 : w.instances;
  std::vector<std::uint64_t> net_seeds;
  for (int k = 0; k < networks; ++k)
    net_seeds.push_back(network_seed(w, seed, k));
  std::vector<std::unique_ptr<Network>> nets;
  for (int i = 0; i < networks; ++i)
    nets.push_back(checked_build(w, net_seeds[static_cast<std::size_t>(i)], r,
                                 setup_s));
  std::vector<Instance> instances;
  for (int k = 0; k < w.instances; ++k) {
    const auto i = static_cast<std::size_t>(k);
    instances.push_back(
        balls ? make_instance(w, *nets.front(), traffic_seed(seed, k))
              : make_instance(w, *nets[i], net_seeds[i]));
  }
  const std::uint64_t first_sum = network_checksum(*nets.front());
  for (int repeat = networks; repeat < w.setups; ++repeat) {
    // A ball instance owns its graph, so the large network can go first.
    if (balls) nets.front().reset();
    auto net = checked_build(w, net_seeds.front(), r, setup_s);
    compare(r, "set-up repeat", first_sum, network_checksum(*net));
    if (balls) nets.front() = std::move(net);
  }

  // Sweeps over the instances until `seconds` of routing are spent (set-ups
  // excluded), and at least three sweeps.
  std::vector<float> best;  // per round, all instances back to back
  std::vector<float> round_us;
  std::vector<Episode> first;
  double spent_s = 0.0;
  for (std::size_t sweep = 0; sweep < 3 || spent_s < seconds; ++sweep) {
    std::size_t at = 0;
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const Instance& in = instances[k];
      Episode e = route_episode(w, in.g, in.mac, in.seed, nullptr, round_us);
      spent_s += e.wall_s;
      if (sweep == 0) {
        best.insert(best.end(), round_us.begin(), round_us.end());
        count_episode(r, e);
        first.push_back(std::move(e));
        continue;
      }
      compare(r, "planned-transmission repeat", first[k].checksum,
              e.checksum);
      for (std::size_t i = 0; i < round_us.size(); ++i)
        best[at + i] = std::min(best[at + i], round_us[i]);
      at += round_us.size();
    }
  }

  std::uint64_t deliveries = 0, sum_latency = 0, attempted_tx = 0;
  for (const Episode& e : first) {
    r.plan_checksums.push_back(e.checksum);
    deliveries += e.m.deliveries;
    sum_latency += e.m.sum_latency;
    attempted_tx += e.m.attempted_tx;
  }
  double best_s = 0.0;
  for (const float us : best) best_s += static_cast<double>(us) / 1e6;
  add(r, "setup_s", median(setup_s), "s");
  add(r, "peak_rss_mb", peak_rss_mb(), "MB");
  add(r, "goodput_pps", ratio(static_cast<double>(deliveries), best_s),
      "1/s");
  add(r, "round_us_p50", percentile(best, 0.50), "us");
  add(r, "latency_rounds_mean",
      ratio(static_cast<double>(sum_latency), static_cast<double>(deliveries)),
      "rounds");
  add(r, "tx_per_delivery",
      ratio(static_cast<double>(attempted_tx),
            static_cast<double>(deliveries)),
      "tx");
  return r;
}

RunResult run_traced(const Workload& w, std::uint64_t seed) {
  RunResult r;
  const std::uint64_t instance = network_seed(w, seed, 0);
  const int pool = tn::num_threads();
  alloc_meter::set_enabled(true);
  obs::reset_spans();

  // Construction: one traced set-up of the first instance at the default
  // pool size.
  Ledger build(16);
  build.set_run(1);
  const std::unique_ptr<Network> net = build_network(w, instance, &build);
  build.end_batch();
  const std::uint64_t sets_ns = find_span_ns(obs::span_snapshot(),
                                             "interference.sets");
  r.attempted += 1;
  {
    const std::string bad = check_network(*net);
    if (!bad.empty()) r.failed += 1;
    problem(r, bad);
  }

  // The same parallel layers again on one thread; the MAC's working memory
  // is read around this second constructor call.
  std::uint64_t tx1_ns = 0, theta1_ns = 0, mac1_ns = 0;
  std::int64_t mac_bytes = 0;
  tn::set_num_threads(1);
  {
    Clock::time_point t0 = Clock::now();
    const graph::Graph gstar = topo::build_transmission_graph(net->deployment);
    tx1_ns = ns_between(t0, Clock::now());
    compare(r, "G* 1-thread", edges_checksum(net->gstar),
            edges_checksum(gstar));
    t0 = Clock::now();
    const core::ThetaTopology theta(net->deployment, kTheta);
    theta1_ns = ns_between(t0, Clock::now());
    compare(r, "ThetaALG 1-thread", edges_checksum(net->theta->graph()),
            edges_checksum(theta.graph()));
    if (w.build_mac) {
      alloc_meter::reset_peak();
      const std::int64_t before = alloc_meter::live_bytes();
      t0 = Clock::now();
      const core::RandomizedMac mac(theta.graph(), net->deployment,
                                    interf::InterferenceModel{w.delta});
      mac1_ns = ns_between(t0, Clock::now());
      mac_bytes = alloc_meter::peak_bytes() - before;
      const std::size_t edges = theta.graph().num_edges();
      compare(r, "MAC bounds 1-thread", bounds_checksum(*net->mac, edges),
              bounds_checksum(mac, edges));
    }
  }
  tn::set_num_threads(pool);

  // Routing on the first instance: the same episode untraced and traced,
  // alternately, kTracedPairs times. Per-layer times are the traced
  // episodes' means; the overhead compares each kind's fastest episode; the
  // round-time tail takes each round's fastest untraced time.
  const Instance in = make_instance(
      w, *net, w.route_nodes > 0 ? traffic_seed(seed, 0) : instance);
  std::vector<float> round_us, best;
  Ledger rounds(64);
  Episode traced;
  double plain_s = 0.0, traced_s = 0.0;
  for (int pair = 0; pair < kTracedPairs; ++pair) {
    const Episode plain =
        route_episode(w, in.g, in.mac, in.seed, nullptr, round_us);
    if (pair == 0) best = round_us;
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], round_us[i]);
    rounds.set_run(static_cast<std::uint32_t>(2 + pair));
    traced = route_episode(w, in.g, in.mac, in.seed, &rounds, round_us);
    compare(r, "planned-transmission traced-vs-untraced", plain.checksum,
            traced.checksum);
    plain_s = pair == 0 ? plain.wall_s : std::min(plain_s, plain.wall_s);
    traced_s = pair == 0 ? traced.wall_s : std::min(traced_s, traced.wall_s);
  }
  count_episode(r, traced);
  r.plan_checksums.push_back(traced.checksum);
  alloc_meter::set_enabled(false);

  const Totals& bt = build.totals();
  const Totals& rt = rounds.totals();
  const double n = static_cast<double>(w.n);
  const double tx_ms = ms(bt.get("topology.transmission_graph").total_ns);
  const double theta_ms = ms(bt.get("core.theta").total_ns);
  const double mac_ms = ms(bt.get("core.mac.build").total_ns);
  add(r, "topology.deploy.ms", ms(bt.get("topology.deploy").total_ns), "ms");
  add(r, "topology.transmission_graph.ms", tx_ms, "ms");
  add(r, "topology.transmission_graph.speedup_4v1", ratio(ms(tx1_ns), tx_ms),
      "x");
  add(r, "topology.gstar.edges", static_cast<double>(net->gstar.num_edges()),
      "count");
  add(r, "graph.connectivity.ms", ms(bt.get("graph.connectivity").total_ns),
      "ms");
  add(r, "core.theta.build_ms", theta_ms, "ms");
  add(r, "core.theta.speedup_4v1", ratio(ms(theta1_ns), theta_ms), "x");
  add(r, "core.theta.edges",
      static_cast<double>(net->theta->graph().num_edges()), "count");
  add(r, "core.theta.max_degree",
      static_cast<double>(net->theta->graph().max_degree()), "count");
  add(r, "core.mac.build_ms", mac_ms, "ms");
  add(r, "core.mac.build_speedup_4v1", ratio(ms(mac1_ns), mac_ms), "x");
  add(r, "core.mac.build_bytes_per_node",
      static_cast<double>(mac_bytes) / n, "bytes");
  add(r, "interference.I",
      net->mac ? static_cast<double>(net->mac->interference_bound()) : 0.0,
      "count");
  add(r, "interference.sets.ms", ms(sets_ns), "ms");

  const auto rounds_d = static_cast<double>(w.rounds);
  const auto per_round = [&](const char* layer) {
    return static_cast<double>(rt.get(layer).total_ns) / rounds_d /
           kTracedPairs;
  };
  const route::RunMetrics& m = traced.m;
  add(r, "core.mac.activate.ns_per_round", per_round("core.mac.activate"),
      "ns");
  add(r, "core.mac.active_edges_per_round",
      static_cast<double>(traced.active_edges) / rounds_d, "count");
  add(r, "core.router.plan.ns_per_round", per_round("core.router.plan"), "ns");
  add(r, "core.router.planned_tx_per_round",
      static_cast<double>(traced.planned_tx) / rounds_d, "count");
  add(r, "core.mac.resolve.ns_per_round", per_round("core.mac.resolve"), "ns");
  add(r, "core.mac.collision_frac",
      ratio(static_cast<double>(m.failed_tx),
            static_cast<double>(m.attempted_tx)),
      "frac");
  add(r, "core.router.execute.ns_per_round", per_round("core.router.execute"),
      "ns");
  add(r, "core.router.skipped_frac",
      ratio(static_cast<double>(m.skipped_tx),
            static_cast<double>(traced.planned_tx)),
      "frac");
  add(r, "routing.injection.ns_per_round", per_round("routing.injection"),
      "ns");
  add(r, "core.router.end_step.ns_per_round",
      per_round("core.router.end_step"), "ns");
  add(r, "core.router.occupancy_mean", traced.occupancy_sum / rounds_d,
      "pkt/node");
  add(r, "core.router.peak_buffer", static_cast<double>(m.peak_buffer),
      "count");
  add(r, "routing.round_us_p99", percentile(best, 0.99), "us");
  add(r, "routing.loss_frac",
      ratio(static_cast<double>(traced.lost()),
            static_cast<double>(traced.offered())),
      "frac");
  add(r, "trace.overhead_pct",
      100.0 * ratio(traced_s - plain_s, plain_s), "pct");

  char head[256];
  std::snprintf(head, sizeof head,
                "{\"workload\":\"%s\",\"seed\":%llu,\"pool\":%d,"
                "\"gstar_connected\":%s,\"checksum\":\"%016llx\","
                "\"host\":",
                w.name, static_cast<unsigned long long>(seed), pool,
                net->gstar_connected ? "true" : "false",
                static_cast<unsigned long long>(traced.checksum));
  r.trace_json = std::string(head) + host_fingerprint_json() +
                 ",\"construction\":" + build.spans_json() +
                 ",\"rounds\":" + rounds.spans_json() + "}\n";
  return r;
}

}  // namespace

RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       bool trace) {
  return trace ? run_traced(w, seed) : run_untraced(w, seed, seconds);
}

std::string host_fingerprint_json() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"cpu_model\":\"%s\",\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"pool_size\":%d}",
                std::thread::hardware_concurrency(),
                json_escape(cpu_model()).c_str(),
                json_escape(kCompiler).c_str(), PIPEBENCH_BUILD_TYPE,
                tn::num_threads());
  return buf;
}

}  // namespace pipebench
