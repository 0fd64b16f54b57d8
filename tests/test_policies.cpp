// Piece selection policies: the usefulness contract (family H of Section
// VIII-A) as a property test across random states, plus each policy's
// specific selection rule.
#include "sim/policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rand/rng.hpp"

namespace p2p {
namespace {

class PolicyUsefulnessTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyUsefulnessTest, AlwaysSelectsUsefulPiece) {
  auto policy = make_policy(GetParam());
  Rng rng(17);
  const int k = 12;
  std::vector<std::int64_t> holders(k);
  for (int trial = 0; trial < 2000; ++trial) {
    for (auto& h : holders) {
      h = static_cast<std::int64_t>(rng.uniform_int(100ULL));
    }
    const PieceSet target{rng.uniform_int(std::uint64_t{1} << k)};
    PieceSet useful{rng.uniform_int(std::uint64_t{1} << k)};
    useful = useful.minus(target);
    if (useful.empty()) continue;
    const SwarmView view{k, holders, 100};
    const int piece = policy->select(useful, target, view, rng);
    ASSERT_TRUE(useful.contains(piece))
        << to_string(GetParam()) << " selected " << piece << " outside "
        << useful.to_string();
    ASSERT_FALSE(target.contains(piece));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyUsefulnessTest,
                         ::testing::Values(PolicyKind::kRandomUseful,
                                           PolicyKind::kRarestFirst,
                                           PolicyKind::kMostCommonFirst,
                                           PolicyKind::kSequential));

TEST(RandomUseful, UniformOverUsefulPieces) {
  RandomUsefulPolicy policy;
  Rng rng(19);
  const PieceSet useful = PieceSet::single(1).with(4).with(9);
  std::vector<std::int64_t> holders(10, 0);
  const SwarmView view{10, holders, 0};
  std::array<int, 10> counts{};
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<std::size_t>(
        policy.select(useful, PieceSet{}, view, rng))];
  }
  for (int p : useful) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(p)] /
                    static_cast<double>(trials),
                1.0 / 3, 0.02);
  }
}

TEST(RarestFirst, PicksGloballyRarest) {
  RarestFirstPolicy policy;
  Rng rng(23);
  std::vector<std::int64_t> holders = {50, 3, 40, 8};
  const SwarmView view{4, holders, 60};
  const PieceSet useful = PieceSet::single(0).with(1).with(2).with(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.select(useful, PieceSet{}, view, rng), 1);
  }
  // Restrict usefulness: rarest among {0, 2} is 2.
  const PieceSet limited = PieceSet::single(0).with(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.select(limited, PieceSet{}, view, rng), 2);
  }
}

TEST(RarestFirst, BreaksTiesUniformly) {
  RarestFirstPolicy policy;
  Rng rng(29);
  std::vector<std::int64_t> holders = {5, 5, 9};
  const SwarmView view{3, holders, 10};
  const PieceSet useful = PieceSet::full(3);
  int zero = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const int p = policy.select(useful, PieceSet{}, view, rng);
    ASSERT_NE(p, 2);
    zero += p == 0;
  }
  EXPECT_NEAR(zero / static_cast<double>(trials), 0.5, 0.02);
}

TEST(MostCommonFirst, PicksMostReplicated) {
  MostCommonFirstPolicy policy;
  Rng rng(31);
  std::vector<std::int64_t> holders = {50, 3, 40, 8};
  const SwarmView view{4, holders, 60};
  EXPECT_EQ(policy.select(PieceSet::full(4), PieceSet{}, view, rng), 0);
  EXPECT_EQ(policy.select(PieceSet::single(1).with(3), PieceSet{}, view, rng),
            3);
}

TEST(Sequential, PicksLowestIndex) {
  SequentialPolicy policy;
  Rng rng(37);
  std::vector<std::int64_t> holders(8, 0);
  const SwarmView view{8, holders, 0};
  EXPECT_EQ(policy.select(PieceSet::single(3).with(6), PieceSet{}, view, rng),
            3);
  EXPECT_EQ(policy.select(PieceSet::single(7), PieceSet{}, view, rng), 7);
}

TEST(PolicyNames, EveryKindRoundTripsThroughBothSpellings) {
  const auto names = policy_names();
  ASSERT_EQ(names.size(), 4u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const PolicyName& p = names[i];
    EXPECT_EQ(static_cast<std::size_t>(p.kind), i) << p.token;
    EXPECT_STREQ(to_string(p.kind), p.token);
    EXPECT_EQ(parse_policy(p.token), p.kind) << p.token;
    EXPECT_EQ(parse_policy(p.alias), p.kind) << p.alias;
    EXPECT_EQ(make_policy(p.kind)->kind(), p.kind) << p.token;
  }
  // The report tokens are what archived corpora carry; they never move.
  EXPECT_STREQ(to_string(PolicyKind::kRandomUseful), "random-useful");
  EXPECT_STREQ(to_string(PolicyKind::kRarestFirst), "rarest-first");
  EXPECT_STREQ(to_string(PolicyKind::kMostCommonFirst), "most-common-first");
  EXPECT_STREQ(to_string(PolicyKind::kSequential), "sequential");
  EXPECT_EQ(parse_policy("rarest"), PolicyKind::kRarestFirst);
  EXPECT_EQ(parse_policy("mostcommon"), PolicyKind::kMostCommonFirst);
  EXPECT_EQ(parse_policy("random"), PolicyKind::kRandomUseful);
}

TEST(PolicyNames, UnknownNameFailsNamingInputAndValidList) {
  for (const char* bad : {"bittorrent", "", "Rarest", "rarest ", "random-"}) {
    EXPECT_FALSE(parse_policy(bad).has_value()) << '"' << bad << '"';
  }
  const std::string msg = unknown_policy_message("bittorrent");
  EXPECT_NE(msg.find("\"bittorrent\""), std::string::npos) << msg;
  for (const PolicyName& p : policy_names()) {
    EXPECT_NE(msg.find(p.token), std::string::npos) << msg;
    EXPECT_NE(msg.find(p.alias), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace p2p
