#pragma once
// The randomized symmetry-breaking MAC of Section 3.3. Every edge e of the
// topology knows an upper bound
//
//     I_e = max { |I(e')| : e' in I(e) or e' = e }
//
// on the interference number of any edge it interferes with, and
// self-activates each step with probability 1/(2 * I_e). Lemma 3.2: an
// active edge then collides with other active edges with probability at
// most 1/2. Active edges are handed to the (T, gamma)-balancing router;
// the combination is the (T, gamma, I)-balancing algorithm of Theorem 3.3.
//
// The bounds come from interf::interference_bounds, two streaming walks
// over the interference neighbourhoods (set sizes, then their max over
// each edge's partners) that keep per-edge counters only — the sets
// themselves are never built. A step's activation does not flip one coin
// per edge: detail::WakeSampler jumps from one woken candidate to the next
// by geometric skips, so a step costs O(#classes + #active), where
// #classes <= bit_width(I).

#include <cstddef>
#include <span>
#include <vector>

#include "core/balancing_router.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "interference/model.h"
#include "topology/deployment.h"

namespace thetanet::core {

namespace detail {

/// Samples a subset of edges in which edge e is present independently with
/// probability prob[e], without a coin per edge. The edges are grouped by
/// the dyadic class of their probability, (2^(k-1), 2^k]; each class
/// carries its largest probability q. A step walks each class's ascending
/// edge list by geometric gaps floor(log1p(-u) / log1p(-q)), which visits
/// every edge independently with probability q, and keeps a visited edge
/// with probability prob[e] / q in (1/2, 1] (no draw when it is 1). Cost
/// per step: one draw per class plus at most two per visited edge.
class WakeSampler {
 public:
  WakeSampler() = default;
  /// Every prob[e] must lie in (0, 1].
  explicit WakeSampler(std::span<const double> prob);

  /// The edges present this step, ascending.
  std::vector<graph::EdgeId> sample(geom::Rng& rng) const;

  std::size_t num_classes() const { return classes_.size(); }

 private:
  struct Class {
    std::size_t begin, end;  ///< range of edges_ / accept_
    double q;                ///< largest probability in the class
    double inv_log1p_neg_q;  ///< 1 / log1p(-q); unused when q == 1
    double none;             ///< (1 - q)^(end - begin): no edge is visited
  };
  std::vector<Class> classes_;
  std::vector<graph::EdgeId> edges_;  ///< grouped by class, ascending in each
  std::vector<double> accept_;        ///< prob[e] / q, parallel to edges_
};

}  // namespace detail

class RandomizedMac {
 public:
  RandomizedMac(const graph::Graph& topo, const topo::Deployment& d,
                const interf::InterferenceModel& model);

  /// I = max_e I_e (the worst bound any edge uses).
  std::uint32_t interference_bound() const { return max_bound_; }

  /// The per-edge activation probability 1/(2 * I_e).
  double activation_prob(graph::EdgeId e) const { return prob_[e]; }

  /// Sample this step's active edge set.
  std::vector<graph::EdgeId> activate(geom::Rng& rng) const;

  /// Collision outcome for the transmissions the router actually makes:
  /// tx i fails iff some other transmitting edge interferes with it
  /// (Section 2.4 success condition).
  std::vector<bool> resolve(std::span<const PlannedTx> txs) const;

 private:
  const graph::Graph* topo_;
  const topo::Deployment* deployment_;
  interf::InterferenceModel model_;
  std::vector<double> prob_;  ///< 1/(2 * I_e) per edge, I_e >= 1
  std::uint32_t max_bound_ = 1;
  detail::WakeSampler wake_;
};

/// Ablation baseline: interference-oblivious slotted ALOHA. Every edge
/// self-activates with the same fixed probability p, ignoring the
/// interference structure entirely. Contrast with RandomizedMac: without
/// the 1/(2*I_e) scaling, Lemma 3.2's <= 1/2 collision guarantee evaporates
/// — at p anywhere near the ALOHA throughput optimum, dense regions jam
/// (bench E7b measures the collapse).
class SlottedAlohaMac {
 public:
  SlottedAlohaMac(const graph::Graph& topo, const topo::Deployment& d,
                  const interf::InterferenceModel& model, double p)
      : topo_(&topo),
        deployment_(&d),
        model_(model),
        p_(p),
        wake_(std::vector<double>(topo.num_edges(), p)) {
    TN_ASSERT(p > 0.0 && p <= 1.0);
  }

  double activation_prob() const { return p_; }

  /// One sampler class with q = p, so no edge needs a thinning draw.
  std::vector<graph::EdgeId> activate(geom::Rng& rng) const {
    return wake_.sample(rng);
  }

  std::vector<bool> resolve(std::span<const PlannedTx> txs) const {
    std::vector<graph::EdgeId> edges;
    edges.reserve(txs.size());
    for (const PlannedTx& tx : txs) edges.push_back(tx.edge);
    return interf::failed_transmissions(edges, *topo_, *deployment_, model_);
  }

 private:
  const graph::Graph* topo_;
  const topo::Deployment* deployment_;
  interf::InterferenceModel model_;
  double p_;
  detail::WakeSampler wake_;
};

}  // namespace thetanet::core
