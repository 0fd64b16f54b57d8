// Empirical stability classification of a simulated swarm.
//
// Theorem 1 signs the long-run drift of the peer population N_t: transient
// systems grow linearly (at rate bounded below by the one-club imbalance),
// positive-recurrent systems keep N_t tight. The probe runs independent
// replicas, fits the tail slope of N_t, and classifies with explicit
// thresholds; benches report the raw normalized slopes so borderline
// cases are visible rather than hidden behind the verdict.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/model.hpp"
#include "sim/policy.hpp"
#include "sim/stats.hpp"
#include "sim/swarm.hpp"

namespace p2p {

enum class ProbeVerdict { kStable, kUnstable, kInconclusive };

std::string to_string(ProbeVerdict v);

struct ProbeOptions {
  double horizon = 2000;      // simulated time per replica
  double sample_dt = 10;      // sampling grid for the N_t series
  int replicas = 5;
  /// Flash-crowd style initial load: this many one-club peers (type
  /// F - {tracked}), probing recovery from the adversarial heavy state.
  std::int64_t initial_one_club = 0;
  /// Piece defining the injected one-club and the Fig. 2 partition.
  int tracked_piece = 0;
  /// Normalized-slope cutoff: mean slope / lambda_total above this =>
  /// unstable, below (with margin) => stable.
  double slope_threshold = 0.02;
  std::uint64_t base_seed = 7;
};

struct ProbeResult {
  ProbeVerdict verdict = ProbeVerdict::kInconclusive;
  /// Mean over replicas of tail slope of N_t divided by lambda_total
  /// (so +1.0 = every arrival sticks around forever).
  double normalized_slope = 0;
  /// Standard error of that mean across replicas.
  double slope_sem = 0;
  /// Mean over replicas of the time-averaged N over the tail window.
  double mean_tail_peers = 0;
  /// Mean final population.
  double mean_final_peers = 0;
  std::string to_string() const;
};

/// Generic probe over any time-series generator: `make_series(seed)` must
/// return the sampled N_t trajectory of one replica.
ProbeResult probe_stability(
    const std::function<TimeSeries(std::uint64_t seed)>& make_series,
    double lambda_total, const ProbeOptions& options);

/// Probes a SwarmSim running the given piece-selection policy.
ProbeResult probe_swarm(const SwarmParams& params, const ProbeOptions& options,
                        PolicyKind policy = PolicyKind::kRandomUseful);

/// One replica's N_t series for a SwarmSim (exposed for benches that plot
/// trajectories rather than classify).
TimeSeries swarm_peer_series(const SwarmParams& params,
                             const ProbeOptions& options, std::uint64_t seed,
                             PolicyKind policy = PolicyKind::kRandomUseful);

}  // namespace p2p
