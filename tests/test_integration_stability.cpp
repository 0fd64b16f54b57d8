// Integration: Theorem 1's closed-form verdict vs simulated behaviour
// across a parameter grid, exercising classifier + simulator + probe
// together. Parameters are kept well away from the boundary so finite
// horizons classify reliably.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/stability_probe.hpp"
#include "core/stability.hpp"

namespace p2p {
namespace {

struct GridCase {
  std::string name;
  SwarmParams params;
  Stability expected;
};

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  // Example 1 family.
  cases.push_back({"ex1-stable",
                   SwarmParams::example1(0.5, 1.0, 1.0, 4.0),
                   Stability::kPositiveRecurrent});
  cases.push_back({"ex1-transient",
                   SwarmParams::example1(4.0, 1.0, 1.0, 4.0),
                   Stability::kTransient});
  cases.push_back({"ex1-altruistic",
                   SwarmParams::example1(6.0, 0.2, 1.0, 0.5),
                   Stability::kPositiveRecurrent});
  // Example 2 family (K = 4, gamma = infinity).
  cases.push_back({"ex2-stable", SwarmParams::example2(1.0, 1.0, 1.0),
                   Stability::kPositiveRecurrent});
  cases.push_back({"ex2-transient", SwarmParams::example2(3.0, 1.0, 1.0),
                   Stability::kTransient});
  // Example 3 family (K = 3).
  cases.push_back({"ex3-stable",
                   SwarmParams::example3(1.0, 1.0, 1.0, 1.0, 3.0),
                   Stability::kPositiveRecurrent});
  cases.push_back({"ex3-transient",
                   SwarmParams::example3(2.0, 2.0, 0.2, 1.0, 3.0),
                   Stability::kTransient});
  // Mixed arrivals with seed help (K = 2).
  cases.push_back({"mixed-stable",
                   SwarmParams(2, 2.5, 1.0, 5.0,
                               {{PieceSet{}, 1.0}, {PieceSet::single(0), 0.5}}),
                   Stability::kPositiveRecurrent});
  cases.push_back({"mixed-transient",
                   SwarmParams(2, 0.1, 1.0, kInfiniteRate,
                               {{PieceSet{}, 2.0}, {PieceSet::single(0), 0.2}}),
                   Stability::kTransient});
  return cases;
}

class TheoremVsSimulationTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(TheoremVsSimulationTest, VerdictsAgree) {
  const GridCase c = grid_cases()[GetParam()];
  ASSERT_EQ(classify(c.params).verdict, c.expected) << c.name;

  ProbeOptions options;
  options.horizon = 2000;
  options.replicas = 3;
  options.initial_one_club = 150;  // adversarial start
  const ProbeResult probe = probe_swarm(c.params, options);
  const ProbeVerdict expected_probe =
      c.expected == Stability::kPositiveRecurrent ? ProbeVerdict::kStable
                                                  : ProbeVerdict::kUnstable;
  EXPECT_EQ(probe.verdict, expected_probe)
      << c.name << ": " << probe.to_string();
}

INSTANTIATE_TEST_SUITE_P(Grid, TheoremVsSimulationTest,
                         ::testing::Range(std::size_t{0}, std::size_t{9}),
                         [](const auto& info) {
                           return grid_cases()[info.param].name.substr(0, 3) +
                                  std::to_string(info.param);
                         });

TEST(Integration, CriticalSeedRateBracketsSimulatedBehaviour) {
  // Compute Us* from the theory; simulate at 0.5x and 2x.
  const auto base = SwarmParams::example1(2.0, 0.5, 1.0, 4.0);
  const double us_star = min_stabilizing_seed_rate(base);
  ASSERT_GT(us_star, 0.0);
  ProbeOptions options;
  options.horizon = 2000;
  options.replicas = 3;
  options.initial_one_club = 100;
  const auto below = probe_swarm(base.with_seed_rate(us_star * 0.5), options);
  const auto above = probe_swarm(base.with_seed_rate(us_star * 2.0), options);
  EXPECT_EQ(below.verdict, ProbeVerdict::kUnstable) << below.to_string();
  EXPECT_EQ(above.verdict, ProbeVerdict::kStable) << above.to_string();
}

TEST(Integration, OneExtraPieceCorollaryHolds) {
  // gamma <= mu (mean dwell >= one upload time): stable even at high load
  // with a tiny seed — the paper's headline corollary. (gamma = 0.8 mu
  // keeps the seed branching comfortably supercritical for a finite-
  // horizon check; the exact boundary gamma = mu is probed in E8.)
  const SwarmParams params(3, 0.3, 1.0, 0.8, {{PieceSet{}, 8.0}});
  ASSERT_EQ(classify(params).verdict, Stability::kPositiveRecurrent);
  // Without the altruistic branch this load would need
  // Us >= lambda (1 - mu/gamma); with gamma <= mu a tiny seed suffices.
  ProbeOptions options;
  options.horizon = 3000;
  options.replicas = 4;
  const ProbeResult probe = probe_swarm(params, options);
  EXPECT_EQ(probe.verdict, ProbeVerdict::kStable) << probe.to_string();
}

TEST(Integration, PolicyInsensitivityOfVerdicts) {
  // Theorem 14: same verdict for every useful-piece policy.
  const SwarmParams stable(3, 2.5, 1.0, 4.0, {{PieceSet{}, 1.0}});
  const SwarmParams transient(3, 0.2, 1.0, kInfiniteRate, {{PieceSet{}, 2.0}});
  ProbeOptions options;
  options.horizon = 1500;
  options.replicas = 3;
  options.initial_one_club = 100;
  for (const PolicyName& policy : policy_names()) {
    EXPECT_EQ(probe_swarm(stable, options, policy.kind).verdict,
              ProbeVerdict::kStable)
        << policy.token;
    EXPECT_EQ(probe_swarm(transient, options, policy.kind).verdict,
              ProbeVerdict::kUnstable)
        << policy.token;
  }
}

}  // namespace
}  // namespace p2p
