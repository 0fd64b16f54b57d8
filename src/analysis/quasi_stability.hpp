// Quasi-stability analytics (Section IX outlook).
//
// A provably-transient swarm can behave well for a long time before the
// one-club forms. This module detects that onset (when some piece's
// availability collapses in a large swarm), which the Theorem-14 bench
// uses to compare piece-selection policies.
#pragma once

#include <cstdint>

#include "core/model.hpp"
#include "sim/policy.hpp"

namespace p2p {

struct OnsetOptions {
  double horizon = 4000;
  double check_dt = 5;
  /// Onset declared when total peers exceed this ...
  std::int64_t min_peers = 200;
  /// ... and some piece is held by less than this fraction of them.
  double rarity_fraction = 0.1;
  std::uint64_t rng_seed = 1;
};

struct OnsetResult {
  /// Time of onset; equals the horizon when no onset occurred.
  double onset_time = 0;
  bool onset = false;
  /// The piece whose availability collapsed (-1 if none).
  int rare_piece = -1;
  /// Population at onset (or at the horizon).
  std::int64_t peers_at_onset = 0;
};

/// Runs a fresh swarm (started empty) under `policy` and reports the
/// first one-club onset.
OnsetResult detect_onset(const SwarmParams& params, PolicyKind policy,
                         const OnsetOptions& options);

}  // namespace p2p
