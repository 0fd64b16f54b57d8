// TypeCountPairSum (core/state.hpp): the incremental silent-pair sum S
// and its subset/superset zeta sums against a brute-force O(4^K)
// recount after every bump, over random walks that include the
// multi-peer deltas inject_peers applies.
#include "core/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "rand/rng.hpp"

namespace p2p {
namespace {

bool subset(std::uint64_t a, std::uint64_t b) { return (a & ~b) == 0; }

void expect_matches_recount(const TypeCountPairSum& state, int k,
                            const std::string& where) {
  const std::uint64_t types = std::uint64_t{1} << k;
  const TypeCountState& x = state.counts();
  std::int64_t s = 0;
  for (std::uint64_t c = 0; c < types; ++c) {
    std::int64_t sub = 0, sup = 0;
    for (std::uint64_t d = 0; d < types; ++d) {
      if (subset(d, c)) sub += x.count(d);
      if (subset(c, d)) {
        sup += x.count(d);
        s += x.count(c) * x.count(d);
      }
    }
    ASSERT_EQ(state.sub(c), sub) << where << " sub(" << c << ")";
    ASSERT_EQ(state.sup(c), sup) << where << " sup(" << c << ")";
  }
  ASSERT_EQ(state.pair_sum(), s) << where;
}

TEST(TypeCountPairSum, MatchesBruteForceRecountUnderRandomBumps) {
  for (int k = 1; k <= 6; ++k) {
    Rng rng(100 + static_cast<std::uint64_t>(k));
    const std::uint64_t types = std::uint64_t{1} << k;
    TypeCountPairSum state(k);
    expect_matches_recount(state, k, "empty K=" + std::to_string(k));
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t mask = rng.uniform_int(types);
      // Mostly single-peer moves, with bulk injections (|delta| > 1) and
      // bulk removals bounded by the type's current count.
      std::int64_t delta = rng.uniform_int(2) == 0 ? 1 : -1;
      if (rng.uniform_int(4) == 0) delta *= rng.uniform_int(2, 25);
      if (delta < 0) delta = -std::min(-delta, state.counts().count(mask));
      state.bump(mask, delta);
      expect_matches_recount(state, k,
                             "K=" + std::to_string(k) + " step " +
                                 std::to_string(step) + " bump(" +
                                 std::to_string(mask) + ", " +
                                 std::to_string(delta) + ")");
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace p2p
