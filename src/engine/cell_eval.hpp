// Shared cell-evaluation core of the sweep engine.
//
// Internal header: everything a sweep-shaped driver needs to turn one
// parameter point into a report row — deterministic per-work-item seed
// derivation, the per-replica simulation harness, replica aggregation,
// the closed-form/CTMC/fluid classification of a cell, and the grid /
// option validators. `engine/sweep.cpp` (dense grids, per-row frontier
// refinement) and `engine/refine.cpp` (adaptive multi-resolution boxes)
// both evaluate through here, so a dense cell and an adaptive box corner
// at the same parameters can never disagree.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "rand/rng.hpp"

namespace p2p::engine {

/// Independent named streams off one base seed, so replica sims, the
/// aggregation bootstrap, frontier sims and adaptive vertex sims can
/// never collide. The numeric values are part of the archive contract:
/// every committed corpus was generated with these assignments, so new
/// streams may only be appended, never renumbered.
enum Stream : std::uint64_t {
  kStreamCellSim = 0,
  kStreamCellAgg = 1,
  kStreamFrontierSim = 2,
  kStreamFrontierAgg = 3,
  kStreamAdaptiveSim = 4,
  kStreamAdaptiveAgg = 5,
};

/// Seeds work item (stream, a, b) independently of execution order:
/// chained splitmix64, the same derivation Rng::split uses. Every
/// replica's stream depends only on (base_seed, cell/row, replica), never
/// on which thread ran it — the determinism contract.
std::uint64_t derive_seed(std::uint64_t base_seed, Stream stream,
                          std::uint64_t a, std::uint64_t b);

/// Positions of the nine model axes in the effective grid's axis list,
/// resolved once per sweep so the per-cell hot loop indexes by slot
/// instead of comparing axis names nine times per cell.
struct AxisSlots {
  std::size_t lambda = 0, us = 0, mu = 0, gamma = 0, k = 0, eta = 0,
              flash = 0, mix = 0, hetero = 0;
};

AxisSlots resolve_axis_slots(const SweepGrid& grid);

/// The cell parameters at axis values `v` (aligned with the grid whose
/// slots `s` are). No integrality asserts: validate_effective_axes
/// already vetted every grid value once up front, so the per-cell path
/// only rounds k and flash.
CellParams cell_params(const AxisSlots& s, const std::vector<double>& v,
                       PolicyKind policy);

/// One replica's simulation summary (pre-aggregation).
struct ReplicaSample {
  double final_peers = 0;
  double mean_peers = 0;
  double mean_sojourn = 0;
};

ReplicaSample simulate_replica(const CellParams& p,
                               const SweepOptions& options,
                               std::uint64_t seed);

/// Collapses R replica samples into mean / SEM / bootstrap-CI. Runs
/// serially in index order after the pool joins; `rng` drives only the
/// bootstrap and is derived per cell, so the result is deterministic.
SimAggregate aggregate_samples(std::span<const ReplicaSample> samples,
                               const SweepOptions& options, Rng& rng);

void validate_caller_axes(const SweepGrid& grid);

void validate_effective_axes(const SweepGrid& effective,
                             const SweepOptions& options);

void validate_options(const SweepOptions& options);

/// Axes the caller did not specify take the default region grid's —
/// the single source of fallback values, so a partial grid cannot
/// silently simulate at undocumented parameters.
SweepGrid effective_grid(const SweepGrid& grid);

/// The prelude every sweep-shaped run (grid, frontier, adaptive) starts
/// with: validates the caller's axes and the options, fills in the
/// effective grid, validates its values, and — when a simulating run
/// forces the type-count backend — aborts naming the first axis value
/// outside that backend's domain: a forced backend must never silently
/// change the law (kAuto falls back per cell instead).
SweepGrid validated_effective_grid(const SweepGrid& grid,
                                   const SweepOptions& options);

/// Result counts per bin. Verdict tallies bin by the Stability enum
/// value; the frontier counts unbracketed / bracketed rows in bins 0 / 1.
using Tally = std::array<std::size_t, 3>;

/// The one verdict tally: copies a verdict-binned Tally into a summary's
/// stable / transient / borderline counts (SweepSummary,
/// AdaptiveSummary).
template <class Summary>
void store_verdict_tally(const Tally& tally, Summary& summary) {
  summary.stable =
      tally[static_cast<std::size_t>(Stability::kPositiveRecurrent)];
  summary.transient = tally[static_cast<std::size_t>(Stability::kTransient)];
  summary.borderline =
      tally[static_cast<std::size_t>(Stability::kBorderline)];
}

/// Fills the non-sim fields of one cell — everything the cell's first
/// work item computes besides its own simulation. Resets the struct
/// first: the streaming pipeline recycles ring slots, and a stale CTMC
/// value from a previous occupant must not survive a skipped solve.
/// `arrival_scratch` is the caller's reused arrival buffer: the theory
/// classification runs on a SwarmParamsView borrowing it, so the
/// closed-form path never allocates per cell.
void fill_cell(CellResult& r, std::size_t cell, const CellParams& p,
               const SweepOptions& options,
               std::vector<ArrivalSpec>& arrival_scratch);

}  // namespace p2p::engine
