// Quasi-stability analytics: one-club onset detection on simulated
// swarms.
#include "analysis/quasi_stability.hpp"

#include <gtest/gtest.h>

#include "core/stability.hpp"

namespace p2p {
namespace {

TEST(Onset, TransientSystemShowsOnset) {
  // Strongly transient K = 3 system: the one-club must form well before
  // the horizon.
  const SwarmParams params(3, 0.2, 1.0, 4.0, {{PieceSet{}, 2.0}});
  ASSERT_EQ(classify(params).verdict, Stability::kTransient);
  OnsetOptions options;
  options.horizon = 3000;
  options.rng_seed = 3;
  const OnsetResult result =
      detect_onset(params, PolicyKind::kRandomUseful, options);
  EXPECT_TRUE(result.onset);
  EXPECT_LT(result.onset_time, options.horizon);
  EXPECT_GE(result.rare_piece, 0);
  EXPECT_GE(result.peers_at_onset, options.min_peers);
}

TEST(Onset, StableSystemShowsNoOnset) {
  const SwarmParams params(3, 3.0, 1.0, 4.0, {{PieceSet{}, 1.0}});
  ASSERT_EQ(classify(params).verdict, Stability::kPositiveRecurrent);
  OnsetOptions options;
  options.horizon = 1500;
  options.rng_seed = 4;
  const OnsetResult result =
      detect_onset(params, PolicyKind::kRandomUseful, options);
  EXPECT_FALSE(result.onset);
  EXPECT_EQ(result.onset_time, options.horizon);
  EXPECT_EQ(result.rare_piece, -1);
}

TEST(Onset, RarestFirstDelaysOnset) {
  // The quasi-stability claim of Section IX: policy changes the onset
  // time even though it cannot change the region. Averaged over seeds,
  // rarest-first should outlast most-common-first.
  const SwarmParams params(4, 0.5, 1.0, 4.0, {{PieceSet{}, 1.5}});
  OnsetOptions options;
  options.horizon = 3000;
  double rarest = 0, common = 0;
  const int reps = 4;
  for (std::uint64_t seed = 0; seed < reps; ++seed) {
    options.rng_seed = 10 + seed;
    rarest +=
        detect_onset(params, PolicyKind::kRarestFirst, options).onset_time;
    common +=
        detect_onset(params, PolicyKind::kMostCommonFirst, options).onset_time;
  }
  EXPECT_GT(rarest / reps, common / reps);
}

}  // namespace
}  // namespace p2p
