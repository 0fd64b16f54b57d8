// Fig. 2 group bookkeeping under controlled scenarios: the classification
// rules of Section V, exercised transition by transition.
#include <gtest/gtest.h>

#include "core/model.hpp"
#include "sim/swarm.hpp"

namespace p2p {
namespace {

// Helper: a swarm where only injected peers exist and only the fixed seed
// can upload (arrival rate negligible), so we can drive transitions
// deterministically by stepping.
SwarmParams frozen_params(int k, double us, double gamma) {
  return SwarmParams(k, us, 1.0, gamma, {{PieceSet{}, 1e-12}});
}

TEST(Groups, InjectedEmptyPeersAreNormalYoung) {
  SwarmSim sim(frozen_params(3, 0.0, 2.0), SwarmSimOptions{.rng_seed = 1});
  sim.inject_peers(PieceSet{}, 10);
  EXPECT_EQ(sim.groups().normal_young, 10);
  EXPECT_EQ(sim.groups().total(), 10);
}

TEST(Groups, InjectedOneClubClassified) {
  // Tracked piece defaults to 0; type {1,2} is the one-club for K = 3.
  SwarmSim sim(frozen_params(3, 0.0, 2.0), SwarmSimOptions{.rng_seed = 2});
  sim.inject_peers(PieceSet::single(1).with(2), 5);
  EXPECT_EQ(sim.groups().one_club, 5);
}

TEST(Groups, TrackedPieceChangesClassification) {
  SwarmSimOptions options;
  options.rng_seed = 3;
  options.tracked_piece = 2;
  SwarmSim sim(frozen_params(3, 0.0, 2.0), options);
  // Type {0,1}: missing exactly piece 2 => one-club w.r.t. piece 2.
  sim.inject_peers(PieceSet::single(0).with(1), 4);
  // Type {2}: holds the tracked piece on injection => gifted.
  sim.inject_peers(PieceSet::single(2), 3);
  EXPECT_EQ(sim.groups().one_club, 4);
  EXPECT_EQ(sim.groups().gifted, 3);
}

TEST(Groups, OneClubBecomesFormerOnCompletion) {
  // Seed-only uploads; K = 2; one-club = {1}. gamma small so the seed
  // stays around after completion.
  SwarmSim sim(frozen_params(2, 5.0, 1e-6), SwarmSimOptions{.rng_seed = 4});
  sim.inject_peers(PieceSet::single(1), 1);
  // Step until the peer completes (gets piece 0 from the fixed seed).
  for (int i = 0; i < 10000 && sim.groups().former_one_club == 0; ++i) {
    sim.step();
  }
  EXPECT_EQ(sim.groups().former_one_club, 1);
  EXPECT_EQ(sim.groups().one_club, 0);
  EXPECT_EQ(sim.peer_seeds(), 1);
}

TEST(Groups, NormalYoungBecomesInfectedOnTrackedDownload) {
  // K = 3, an empty peer that receives the tracked piece 0 while still
  // missing two others is infected, and stays infected through
  // completion. The sequential policy makes the seed deliver piece 0
  // first, so the infection (rather than one-club membership) is certain.
  SwarmSim sim(frozen_params(3, 5.0, 1e-6),
               SwarmSimOptions{.policy = PolicyKind::kSequential,
                               .rng_seed = 5});
  sim.inject_peers(PieceSet{}, 1);
  for (int i = 0; i < 20000 && sim.holders_of(0) == 0; ++i) sim.step();
  ASSERT_EQ(sim.holders_of(0), 1);
  EXPECT_EQ(sim.groups().infected, 1);
  // Continue to completion: still infected (infected peers keep the label
  // as peer seeds).
  for (int i = 0; i < 20000 && sim.peer_seeds() == 0; ++i) sim.step();
  ASSERT_EQ(sim.peer_seeds(), 1);
  EXPECT_EQ(sim.groups().infected, 1);
}

TEST(Groups, GiftedStaysGiftedThroughCompletion) {
  SwarmSim sim(frozen_params(3, 5.0, 1e-6), SwarmSimOptions{.rng_seed = 6});
  sim.inject_peers(PieceSet{}, 1);
  // Arrivals with the tracked piece are gifted; emulate via arrival spec
  // instead: use params with gifted arrivals.
  const SwarmParams params(3, 5.0, 1.0, 1e-6,
                           {{PieceSet::single(0), 1.0}});
  SwarmSim gifted_sim(params, SwarmSimOptions{.rng_seed = 7});
  gifted_sim.run_until(3.0);  // a few arrivals
  ASSERT_GT(gifted_sim.total_peers(), 0);
  EXPECT_EQ(gifted_sim.groups().gifted, gifted_sim.total_peers());
  gifted_sim.run_until(40.0);
  // Some have completed by now; all are still classified gifted.
  EXPECT_EQ(gifted_sim.groups().gifted, gifted_sim.total_peers());
  EXPECT_GT(gifted_sim.peer_seeds(), 0);
}

TEST(Groups, YoungThatJoinsClubIsOneClubNotInfected) {
  // K = 2: an empty peer receiving the NON-tracked piece becomes
  // one-club.
  const SwarmParams params(2, 0.0, 1.0, 2.0, {{PieceSet{}, 1e-12}});
  SwarmSim sim(params, SwarmSimOptions{.rng_seed = 8});
  sim.inject_peers(PieceSet{}, 1);
  sim.inject_peers(PieceSet::single(1), 3);  // club members upload piece 1
  for (int i = 0; i < 50000 && sim.groups().one_club == 3; ++i) sim.step();
  EXPECT_EQ(sim.groups().one_club, 4);
  EXPECT_EQ(sim.groups().infected, 0);
  EXPECT_EQ(sim.groups().normal_young, 0);
}

TEST(Groups, DepartureRemovesFromGroup) {
  // gamma large: completed peers leave almost immediately.
  SwarmSim sim(frozen_params(2, 10.0, 1000.0), SwarmSimOptions{.rng_seed = 9});
  sim.inject_peers(PieceSet::single(1), 6);
  sim.run_until(50.0);
  EXPECT_EQ(sim.groups().total(), sim.total_peers());
  EXPECT_GT(sim.total_departures(), 0);
}

TEST(Groups, K1OneClubIsEmptyType) {
  // For K = 1 the one-club (missing exactly the tracked piece) is the
  // empty type.
  SwarmSim sim(frozen_params(1, 0.0, 2.0), SwarmSimOptions{.rng_seed = 10});
  sim.inject_peers(PieceSet{}, 5);
  EXPECT_EQ(sim.groups().one_club, 5);
  EXPECT_EQ(sim.groups().normal_young, 0);
}

TEST(Groups, CountsSurviveHeavyChurn) {
  const SwarmParams params(
      3, 1.0, 1.0, 1.5,
      {{PieceSet{}, 2.0},
       {PieceSet::single(0), 0.5},
       {PieceSet::single(1).with(2), 0.5}});
  SwarmSim sim(params, SwarmSimOptions{.rng_seed = 11});
  for (int i = 0; i < 300000; ++i) {
    sim.step();
    const GroupCounts& g = sim.groups();
    ASSERT_EQ(g.total(), sim.total_peers());
    // Everyone holding the tracked piece is (b), (f) or (g).
    ASSERT_EQ(g.infected + g.former_one_club + g.gifted, sim.holders_of(0));
  }
}

}  // namespace
}  // namespace p2p
