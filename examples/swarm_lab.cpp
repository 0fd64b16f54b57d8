// swarm_lab: a configurable driver over the whole library — point it at a
// parameter set and it reports the Theorem 1 verdict, provisioning
// numbers, a simulated trajectory with Fig. 2 groups, and a replicated
// stability probe. Supports the VIII-C retry boost, heterogeneous rate
// classes and every piece-selection policy.
//
//   $ ./swarm_lab --help
//   $ ./swarm_lab --k=5 --lambda=3 --us=0.5 --dwell=0.8 --policy=rarest
//   $ ./swarm_lab --k=4 --lambda=2 --us=0.3 --dwell=0 --retry-boost=5
#include <cstdio>
#include <memory>
#include <optional>

#include "analysis/stability_probe.hpp"
#include "core/model.hpp"
#include "core/stability.hpp"
#include "sim/policy.hpp"
#include "sim/swarm.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace p2p;
  Flags flags(argc, argv);
  const int k = flags.get_int("k", 4, "number of pieces K");
  const double lambda =
      flags.get_double("lambda", 2.0, "arrival rate of empty peers");
  const double gifted = flags.get_double(
      "gifted", 0.0, "arrival rate of peers holding piece 1");
  const double us = flags.get_double("us", 0.5, "fixed seed rate Us");
  const double mu = flags.get_double("mu", 1.0, "peer contact rate mu");
  const double dwell = flags.get_double(
      "dwell", 0.5, "mean peer-seed dwell 1/gamma (0 = leave instantly)");
  const std::string policy_spec = flags.get_string(
      "policy", "random-useful",
      "piece-selection policy: " + policy_spellings());
  const double retry_boost = flags.get_double(
      "retry-boost", 1.0, "Section VIII-C retry factor eta >= 1");
  const double slow_fraction = flags.get_double(
      "slow-fraction", 0.0,
      "fraction of peers uploading at 0.25x (heterogeneous extension)");
  const double horizon = flags.get_double("horizon", 1000.0,
                                          "simulated time");
  const std::int64_t flash = static_cast<std::int64_t>(flags.get_double(
      "flash-crowd", 0.0, "initial one-club population"));
  const int seed = flags.get_int("seed", 1, "RNG seed");
  flags.finish();
  const std::optional<PolicyKind> parsed_policy = parse_policy(policy_spec);
  if (!parsed_policy) {
    std::fprintf(stderr, "error: %s\n",
                 unknown_policy_message(policy_spec).c_str());
    return 2;
  }
  const PolicyKind policy = *parsed_policy;

  const double gamma = dwell <= 0 ? kInfiniteRate : 1.0 / dwell;
  std::vector<ArrivalSpec> arrivals = {{PieceSet{}, lambda}};
  if (gifted > 0) arrivals.push_back({PieceSet::single(0), gifted});
  const SwarmParams params(k, us, mu, gamma, std::move(arrivals));

  std::printf("model:  %s\n", params.to_string().c_str());
  std::printf("policy: %s, retry boost %.1f, slow fraction %.2f\n\n",
              to_string(policy), retry_boost, slow_fraction);

  const StabilityReport report = classify(params);
  std::printf("Theorem 1: %s\n", report.to_string().c_str());
  std::printf("  min stabilizing Us:     %.4f\n",
              min_stabilizing_seed_rate(params));
  const double gamma_star = max_stabilizing_seed_depart_rate(params);
  if (gamma_star == kInfiniteRate) {
    std::printf("  required dwell:         none (stable without peer "
                "seeds)\n");
  } else {
    std::printf("  required dwell 1/gamma: %.4f\n", 1.0 / gamma_star);
  }
  const double load_scale = critical_load_scale(params);
  std::printf("  critical load scale:    %s\n\n",
              load_scale == kInfiniteRate
                  ? "infinite (altruistic regime)"
                  : std::to_string(load_scale).c_str());

  SwarmSimOptions options;
  options.rng_seed = static_cast<std::uint64_t>(seed);
  options.retry_boost = retry_boost;
  if (slow_fraction > 0) {
    options.rate_classes = {{slow_fraction, 0.25},
                            {1.0 - slow_fraction, 1.0}};
  }
  SwarmSim sim(params, make_policy(policy), options);
  if (flash > 0) sim.inject_peers(PieceSet::full(k).without(0), flash);

  std::printf("%8s %8s %8s %9s %9s %9s %9s %9s\n", "time", "N", "seeds",
              "young", "infected", "one-club", "former", "gifted");
  sim.run_sampled(horizon, horizon / 10, [&](double t) {
    const GroupCounts& g = sim.groups();
    std::printf("%8.0f %8lld %8lld %9lld %9lld %9lld %9lld %9lld\n", t,
                static_cast<long long>(sim.total_peers()),
                static_cast<long long>(sim.peer_seeds()),
                static_cast<long long>(g.normal_young),
                static_cast<long long>(g.infected),
                static_cast<long long>(g.one_club),
                static_cast<long long>(g.former_one_club),
                static_cast<long long>(g.gifted));
  });
  std::printf("\ndownloads %lld (silent contacts %lld), departures %lld, "
              "mean sojourn %.2f\n",
              static_cast<long long>(sim.total_downloads()),
              static_cast<long long>(sim.silent_contacts()),
              static_cast<long long>(sim.total_departures()),
              sim.sojourn_stats().mean());

  ProbeOptions probe_options;
  probe_options.horizon = horizon;
  probe_options.replicas = 4;
  probe_options.initial_one_club = flash;
  const ProbeResult probe = probe_swarm(params, probe_options, policy);
  std::printf("probe: %s\n", probe.to_string().c_str());
  return 0;
}
