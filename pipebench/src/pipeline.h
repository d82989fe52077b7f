#pragma once
// The benchmarked pipeline: deployment -> G* -> connectivity -> ThetaALG ->
// randomized MAC (set-up), then (T, gamma)-balancing routing rounds. Every
// layer is reached through the library's public functions; the optional
// Ledger times each call from outside.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/interference_mac.h"
#include "core/theta_topology.h"
#include "graph/graph.h"
#include "ledger.h"
#include "routing/metrics.h"
#include "topology/deployment.h"

namespace pipebench {

namespace core = thetanet::core;
namespace graph = thetanet::graph;
namespace route = thetanet::route;
namespace topo = thetanet::topo;

struct Workload {
  const char* name = "";
  std::size_t n = 0;             ///< deployment size
  double delta = 1.0;            ///< interference guard zone
  bool build_mac = false;        ///< construct RandomizedMac during set-up
  bool route_with_mac = false;   ///< route through it (else the ideal MAC)
  std::size_t route_nodes = 0;   ///< > 0: route on BFS balls this large,
                                 ///< always with the ideal MAC
  double rate = 1.0;             ///< Poisson arrivals per round
  std::uint32_t window = 0;      ///< closed-loop cap on outstanding packets
  double threshold = 1.0;        ///< T
  std::uint64_t rounds = 0;      ///< rounds per routing episode
  int instances = 1;             ///< routed networks (or balls) per run
  int setups = 1;                ///< set-ups per untraced run (at least)
};

/// The benchmark's workloads, in BENCHMARK.json order.
std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

constexpr double kGamma = 0.0;
constexpr std::size_t kMaxHeight = 32;
constexpr double kKappa = 2.0;

/// The seed of the deployment a workload seed stands for: n uniform points
/// in the unit square, max_range = 1.6 sqrt(ln n / n), kappa = 2. Routed
/// instances are redrawn (deterministically) until G* is connected, so that
/// every source can reach the sink.
std::uint64_t instance_seed(const Workload& w, std::uint64_t seed);

/// One set-up's output. Not movable: the ThetaALG and MAC objects point
/// into the deployment and graphs.
struct Network {
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  topo::Deployment deployment;
  graph::Graph gstar{0};
  bool gstar_connected = false;  ///< the connectivity layer's answer
  std::unique_ptr<core::ThetaTopology> theta;
  std::unique_ptr<core::RandomizedMac> mac;
};

/// One set-up, deployment generation included. Spans go to `ledger` when
/// it is non-null.
std::unique_ptr<Network> build_network(const Workload& w,
                                       std::uint64_t instance, Ledger* ledger);

/// Correctness of one set-up: Lemma 2.1 via verify::check_theta_invariants.
/// Returns an empty string on success, else a description.
std::string check_network(const Network& net);

/// Order-sensitive checksums of a graph's edge list, of a MAC's per-edge
/// bounds over its graph's `edges` edges, and of a set-up's ThetaALG edges
/// plus MAC bounds.
std::uint64_t edges_checksum(const graph::Graph& g);
std::uint64_t bounds_checksum(const core::RandomizedMac& mac,
                              std::size_t edges);
std::uint64_t network_checksum(const Network& net);

/// The graph the routing phase runs on: ThetaALG's N itself, or the
/// subgraph induced by the first `route_nodes` nodes of a BFS from a node
/// the seed picks.
graph::Graph routing_graph(const Workload& w, const Network& net,
                           std::uint64_t seed);

struct Episode {
  route::RunMetrics m;
  std::uint64_t in_flight = 0;      ///< packets buffered at the end
  std::uint64_t checksum = 0;       ///< FNV-1a over every planned tx
  double wall_s = 0.0;              ///< sum of the timed round regions
  std::uint64_t active_edges = 0;   ///< MAC-activated edges, summed
  std::uint64_t planned_tx = 0;     ///< planned transmissions, summed
  double occupancy_sum = 0.0;       ///< packets per node after each round

  std::uint64_t offered() const { return m.injected_offered; }
  std::uint64_t lost() const {
    return m.dropped_at_injection + m.dropped_in_transit;
  }
  /// Packets outstanding and nothing delivered: the router is livelocked.
  bool livelocked() const { return m.deliveries == 0 && in_flight > 0; }
};

/// One routing episode of w.rounds rounds from empty buffers. The MAC is
/// used iff w.route_with_mac (it must then belong to `g`). `round_us` is
/// scratch for the per-round times, reused across episodes so that the
/// benchmark's own memory stays flat.
Episode route_episode(const Workload& w, const graph::Graph& g,
                      const core::RandomizedMac* mac, std::uint64_t seed,
                      Ledger* ledger, std::vector<float>& round_us);

/// Correctness of one episode: packet conservation, Lemma 3.2's collision
/// bound, and liveness. Empty string on success.
std::string check_episode(const Episode& e);

/// One metric as the benchmark reports it.
struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Planned-transmission checksum of each instance's episode (traced: the
  /// first instance only), for comparison across runs and thread counts.
  std::vector<std::uint64_t> plan_checksums;
  std::vector<std::string> problems;  ///< failed checks, for stderr
  std::string trace_json;             ///< traced runs only
};

/// The whole benchmark for one workload. Untraced: the timed set-ups, then
/// sweeps of one routing episode per instance until `seconds` of routing
/// are spent (at least three sweeps), reporting the end-to-end metrics. Traced: one
/// traced set-up of the first instance plus its 1-thread repeat, then one
/// untraced and one traced episode on it, reporting the per-layer metrics.
RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       bool trace);

/// nproc, CPU model, compiler, build type and pool size as a JSON object.
std::string host_fingerprint_json();

}  // namespace pipebench
