#include "core/interference_mac.h"

#include <algorithm>

#include "common/assert.h"

namespace thetanet::core {

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
}

std::vector<graph::EdgeId> RandomizedMac::activate(geom::Rng& rng) const {
  std::vector<graph::EdgeId> active;
  for (graph::EdgeId e = 0; e < prob_.size(); ++e)
    if (rng.bernoulli(prob_[e])) active.push_back(e);
  return active;
}

std::vector<bool> RandomizedMac::resolve(std::span<const PlannedTx> txs) const {
  std::vector<graph::EdgeId> edges;
  edges.reserve(txs.size());
  for (const PlannedTx& tx : txs) edges.push_back(tx.edge);
  return interf::failed_transmissions(edges, *topo_, *deployment_, model_);
}

}  // namespace thetanet::core
