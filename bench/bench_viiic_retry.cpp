// E12 — Section VIII-C: faster recovery after unsuccessful contacts.
//
// The paper discusses (without a theorem) what happens if a peer whose
// contact found nothing useful retries a factor eta sooner: in the push
// model this effectively raises the upload capacity of exactly the peers
// holding rare pieces (their contacts fail only by hitting each other),
// violating the implicit symmetric-rate constraint — so it can *change*
// the stability region. We measure that: an eta sweep over a nominally
// transient system, plus the sanity check that eta leaves a clearly
// stable system stable and a clearly transient gifted-free system's
// boundary intact... precisely the caveat the paper raises.
#include <cstdio>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "core/stability.hpp"
#include "sim/stats.hpp"
#include "sim/swarm.hpp"

namespace {

using namespace p2p;

double tail_slope(const SwarmParams& params, double eta, std::uint64_t seed,
                  double horizon) {
  SwarmSimOptions options;
  options.rng_seed = seed;
  options.retry_boost = eta;
  SwarmSim sim(params, options);
  TimeSeries series;
  series.push(0.0, 0.0);
  sim.run_sampled(horizon, horizon / 200, [&](double t) {
    series.push(t, static_cast<double>(sim.total_peers()));
  });
  return tail_fit(series, 0.5).slope / params.total_arrival_rate();
}

}  // namespace

int main() {
  using namespace p2p;
  bench::title("E12", "faster retry after useless contacts (eta sweep)",
               "Section VIII-C: the speedup is a capacity violation that "
               "can enlarge the push-model stability region");

  const double horizon = bench::scaled(2000.0, 60.0);

  bench::section("K = 1, transient by Theorem 1 (lambda/lambda* = 2.5)");
  {
    const auto params = SwarmParams::example1(0.67, 0.2, 1.0, 4.0);
    std::printf("base verdict: %s\n",
                bench::short_verdict(classify(params).verdict));
    std::printf("%8s %14s %12s\n", "eta", "slope(sim)", "behaves");
    for (const double eta : {1.0, 2.0, 4.0, 10.0}) {
      const double slope = 0.5 * (tail_slope(params, eta, 1, horizon) +
                                  tail_slope(params, eta, 2, horizon));
      std::printf("%8.1f %14.3f %12s\n", eta, slope,
                  slope > 0.05 ? "unstable" : "stable");
    }
    std::printf("(retry boost multiplies the effective upload rate of "
                "dwelling peer seeds whose contacts collide, so large eta "
                "rescues this nominally transient system)\n");
  }

  bench::section("K = 3 one-club regime, no gifted peers");
  {
    // All peers missing the same piece can only receive it from the
    // seed; their own failed contacts are not what limits the club, so
    // the boost barely moves the growth rate (the paper's remark that
    // with no gifted peers the condition wouldn't change).
    const SwarmParams params(3, 0.2, 1.0, kInfiniteRate, {{PieceSet{}, 2.0}});
    std::printf("base verdict: %s\n",
                bench::short_verdict(classify(params).verdict));
    std::printf("%8s %14s\n", "eta", "slope(sim)");
    for (const double eta : {1.0, 4.0, 10.0}) {
      SwarmSimOptions options;
      options.rng_seed = 3;
      options.retry_boost = eta;
      SwarmSim sim(params, options);
      sim.inject_peers(PieceSet::full(3).without(0), 300);
      TimeSeries series;
      series.push(0.0, 300.0);
      sim.run_sampled(horizon, horizon / 200, [&](double t) {
        series.push(t, static_cast<double>(sim.total_peers()));
      });
      std::printf("%8.1f %14.3f\n", eta,
                  tail_fit(series, 0.5).slope /
                      params.total_arrival_rate());
    }
    std::printf("(with gamma = inf there are no dwelling seeds to boost; "
                "the missing piece still only enters via the fixed seed, "
                "so the one-club grows at ~the same rate for any eta)\n");
  }

  bench::section("stable system stays stable under boost");
  {
    const auto params = SwarmParams::example1(1.0, 2.0, 1.0, 4.0);
    std::printf("%8s %14s\n", "eta", "slope(sim)");
    for (const double eta : {1.0, 10.0}) {
      std::printf("%8.1f %14.3f\n", eta,
                  tail_slope(params, eta, 4, horizon));
    }
  }
  return 0;
}
