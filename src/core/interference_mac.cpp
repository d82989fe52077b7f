#include "core/interference_mac.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace thetanet::core {

namespace detail {

WakeSampler::WakeSampler(std::span<const double> prob) {
  if (prob.empty()) return;
  // Class key k with prob in (2^(k-1), 2^k]: frexp gives prob = m * 2^x,
  // m in [1/2, 1), so an exact power of two belongs to the class below x.
  std::vector<int> key(prob.size());
  for (std::size_t e = 0; e < prob.size(); ++e) {
    TN_ASSERT(prob[e] > 0.0 && prob[e] <= 1.0);
    int x = 0;
    key[e] = std::frexp(prob[e], &x) == 0.5 ? x - 1 : x;
  }
  const auto [lo_it, hi_it] = std::minmax_element(key.begin(), key.end());
  const int lo = *lo_it, hi = *hi_it;
  // Counting sort by key keeps each class's edges ascending.
  std::vector<std::size_t> start(static_cast<std::size_t>(hi - lo) + 2, 0);
  for (const int k : key) ++start[static_cast<std::size_t>(k - lo) + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  edges_.resize(prob.size());
  accept_.resize(prob.size());
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t e = 0; e < prob.size(); ++e)
    edges_[fill[static_cast<std::size_t>(key[e] - lo)]++] =
        static_cast<graph::EdgeId>(e);
  for (std::size_t b = 0; b + 1 < start.size(); ++b) {
    if (start[b] == start[b + 1]) continue;
    Class c{start[b], start[b + 1], 0.0, 0.0, 0.0};
    for (std::size_t i = c.begin; i < c.end; ++i)
      c.q = std::max(c.q, prob[edges_[i]]);
    for (std::size_t i = c.begin; i < c.end; ++i)
      accept_[i] = prob[edges_[i]] / c.q;
    if (c.q < 1.0) {
      const double log1p_neg_q = std::log1p(-c.q);
      c.inv_log1p_neg_q = 1.0 / log1p_neg_q;
      c.none = std::exp(static_cast<double>(c.end - c.begin) * log1p_neg_q);
    }
    classes_.push_back(c);
  }
}

std::vector<graph::EdgeId> WakeSampler::sample(geom::Rng& rng) const {
  std::vector<graph::EdgeId> woken;
  const auto keep = [&](std::size_t i) {
    if (accept_[i] == 1.0 || rng.uniform() < accept_[i])
      woken.push_back(edges_[i]);
  };
  for (const Class& c : classes_) {
    if (c.q == 1.0) {  // log1p(-1) is -inf: every edge is a candidate
      for (std::size_t i = c.begin; i < c.end; ++i) keep(i);
      continue;
    }
    // The gap to the next candidate is floor(log1p(-u) / log1p(-q)), so
    // P(gap >= g) = (1 - q)^g, as for a coin per edge. The first gap
    // passes the whole class exactly when 1 - u <= (1 - q)^size, which
    // one compare settles without a log.
    double u = rng.uniform();
    if (1.0 - u <= c.none) continue;
    for (std::size_t i = c.begin;; ++i) {
      const double gap = std::floor(std::log1p(-u) * c.inv_log1p_neg_q);
      if (gap >= static_cast<double>(c.end - i)) break;
      i += static_cast<std::size_t>(gap);
      keep(i);
      u = rng.uniform();
    }
  }
  std::sort(woken.begin(), woken.end());
  return woken;
}

}  // namespace detail

RandomizedMac::RandomizedMac(const graph::Graph& topo,
                             const topo::Deployment& d,
                             const interf::InterferenceModel& model)
    : topo_(&topo), deployment_(&d), model_(model) {
  const std::vector<std::uint32_t> bounds =
      interf::interference_bounds(topo, d, model);
  prob_.resize(bounds.size());
  for (std::size_t e = 0; e < bounds.size(); ++e) {
    prob_[e] = 1.0 / (2.0 * static_cast<double>(bounds[e]));
    max_bound_ = std::max(max_bound_, bounds[e]);
  }
  wake_ = detail::WakeSampler(prob_);
}

std::vector<graph::EdgeId> RandomizedMac::activate(geom::Rng& rng) const {
  return wake_.sample(rng);
}

std::vector<bool> RandomizedMac::resolve(std::span<const PlannedTx> txs) const {
  std::vector<graph::EdgeId> edges;
  edges.reserve(txs.size());
  for (const PlannedTx& tx : txs) edges.push_back(tx.edge);
  return interf::failed_transmissions(edges, *topo_, *deployment_, model_);
}

}  // namespace thetanet::core
