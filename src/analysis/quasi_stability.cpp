#include "analysis/quasi_stability.hpp"

#include "sim/swarm.hpp"

namespace p2p {

OnsetResult detect_onset(const SwarmParams& params, PolicyKind policy,
                         const OnsetOptions& options) {
  SwarmSimOptions sim_options;
  sim_options.rng_seed = options.rng_seed;
  sim_options.policy = policy;
  SwarmSim sim(params, sim_options);
  OnsetResult result;
  result.onset_time = options.horizon;
  sim.run_sampled(options.horizon, options.check_dt, [&](double t) {
    if (result.onset) return;
    const std::int64_t n = sim.total_peers();
    if (n < options.min_peers) return;
    for (int piece = 0; piece < params.num_pieces(); ++piece) {
      if (static_cast<double>(sim.holders_of(piece)) <
          options.rarity_fraction * static_cast<double>(n)) {
        result.onset = true;
        result.onset_time = t;
        result.rare_piece = piece;
        result.peers_at_onset = n;
        return;
      }
    }
  });
  if (!result.onset) result.peers_at_onset = sim.total_peers();
  return result;
}

}  // namespace p2p
