#include "analysis/stability_probe.hpp"

namespace p2p {

std::string to_string(ProbeVerdict v) {
  switch (v) {
    case ProbeVerdict::kStable:
      return "stable";
    case ProbeVerdict::kUnstable:
      return "unstable";
    case ProbeVerdict::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

std::string ProbeResult::to_string() const {
  return "ProbeResult{" + p2p::to_string(verdict) +
         ", normalized_slope=" + std::to_string(normalized_slope) + " +/- " +
         std::to_string(slope_sem) +
         ", mean_tail_peers=" + std::to_string(mean_tail_peers) +
         ", mean_final_peers=" + std::to_string(mean_final_peers) + "}";
}

ProbeResult probe_stability(
    const std::function<TimeSeries(std::uint64_t seed)>& make_series,
    double lambda_total, const ProbeOptions& options) {
  P2P_ASSERT(lambda_total > 0);
  P2P_ASSERT(options.replicas >= 1);
  OnlineStats slopes;
  OnlineStats tails;
  OnlineStats finals;
  for (int r = 0; r < options.replicas; ++r) {
    const TimeSeries series =
        make_series(options.base_seed + static_cast<std::uint64_t>(r));
    P2P_ASSERT(series.size() >= 4);
    const LinearFit fit = tail_fit(series, 0.5);
    slopes.add(fit.slope / lambda_total);
    // Tail time-average.
    TimeSeries tail;
    const std::size_t first = series.size() / 2;
    for (std::size_t i = first; i < series.size(); ++i) {
      tail.push(series.t[i], series.v[i]);
    }
    tails.add(tail.time_average());
    finals.add(series.v.back());
  }
  ProbeResult result;
  result.normalized_slope = slopes.mean();
  result.slope_sem = slopes.sem();
  result.mean_tail_peers = tails.mean();
  result.mean_final_peers = finals.mean();

  const double margin = 2.0 * slopes.sem();
  if (result.normalized_slope - margin > options.slope_threshold) {
    result.verdict = ProbeVerdict::kUnstable;
  } else if (result.normalized_slope + margin < options.slope_threshold) {
    result.verdict = ProbeVerdict::kStable;
  } else {
    result.verdict = ProbeVerdict::kInconclusive;
  }
  return result;
}

TimeSeries swarm_peer_series(const SwarmParams& params,
                             const ProbeOptions& options, std::uint64_t seed,
                             PolicyKind policy) {
  SwarmSimOptions sim_options;
  sim_options.rng_seed = seed;
  sim_options.tracked_piece = options.tracked_piece;
  sim_options.policy = policy;
  SwarmSim sim(params, sim_options);
  if (options.initial_one_club > 0) {
    const PieceSet one_club =
        PieceSet::full(params.num_pieces()).without(sim_options.tracked_piece);
    P2P_ASSERT_MSG(params.num_pieces() >= 1, "need at least one piece");
    sim.inject_peers(one_club, options.initial_one_club);
  }
  TimeSeries series;
  series.push(0.0, static_cast<double>(sim.total_peers()));
  sim.run_sampled(options.horizon, options.sample_dt, [&](double t) {
    series.push(t, static_cast<double>(sim.total_peers()));
  });
  return series;
}

ProbeResult probe_swarm(const SwarmParams& params, const ProbeOptions& options,
                        PolicyKind policy) {
  return probe_stability(
      [&](std::uint64_t seed) {
        return swarm_peer_series(params, options, seed, policy);
      },
      params.total_arrival_rate(), options);
}

}  // namespace p2p
