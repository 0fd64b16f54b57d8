#include "engine/refine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "engine/cell_eval.hpp"
#include "engine/parse_util.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

/// 2^d corner evaluations per box; past six dimensions the corner count
/// alone (64/box) erases the adaptive savings and the volume should be
/// sliced instead.
constexpr std::size_t kMaxAdaptiveAxes = 6;
constexpr int kMaxAdaptiveDepth = 20;

/// The fine vertex lattice the refinement subdivides into. Each adaptive
/// axis's caller values are the coarse vertices; with S = 2^max_depth,
/// fine index g on an axis with coarse values v[0..n-1] denotes
///
///   v[g / S] + (v[g / S + 1] - v[g / S]) * ((g mod S) / S)
///
/// — exactly v[i] at the coarse vertices (g = i * S), so a depth-0 run
/// evaluates precisely the caller's lattice. A vertex's key is its
/// row-major linear fine index (last adaptive axis fastest), which is
/// also the `a` component of its replica seeds — a pure function of the
/// grid, never of evaluation order.
struct AdaptiveLattice {
  SweepGrid effective;
  AxisSlots slots;
  /// Effective-grid slots of the adaptive (>= 2 values) axes, grid order.
  std::vector<std::size_t> axes;
  /// Every effective axis's first value; adaptive slots get overwritten
  /// per vertex.
  std::vector<double> base_values;
  std::uint64_t scale = 1;  // 2^max_depth fine steps per coarse box
  /// Per adaptive axis: coarse box count, fine vertex count
  /// (boxes * scale + 1), and the row-major key stride.
  std::vector<std::uint64_t> boxes;
  std::vector<std::uint64_t> dims;
  std::vector<std::uint64_t> strides;
  std::size_t dense_equivalent = 1;

  double vertex_value(std::size_t j, std::uint64_t g) const {
    const std::vector<double>& vals = effective.axes[axes[j]].values;
    const std::uint64_t ci = g / scale;
    const std::uint64_t f = g % scale;
    if (f == 0) return vals[ci];
    return vals[ci] + (vals[ci + 1] - vals[ci]) *
                          (static_cast<double>(f) / static_cast<double>(scale));
  }
};

AdaptiveLattice make_lattice(const SweepGrid& grid,
                             const SweepOptions& options,
                             const AdaptiveOptions& adaptive) {
  AdaptiveLattice lat;
  lat.effective = validated_effective_grid(grid, options);
  P2P_ASSERT_MSG(
      adaptive.max_depth >= 0 && adaptive.max_depth <= kMaxAdaptiveDepth,
      "adaptive depth must lie in [0, " + std::to_string(kMaxAdaptiveDepth) +
          "]");
  P2P_ASSERT_MSG(adaptive.tol >= 0 && std::isfinite(adaptive.tol),
                 "adaptive tolerance must be nonnegative and finite");
  P2P_ASSERT_MSG(adaptive.max_sim_rounds >= 1,
                 "adaptive max_sim_rounds must be >= 1");

  lat.slots = resolve_axis_slots(lat.effective);
  lat.scale = std::uint64_t{1} << adaptive.max_depth;
  for (std::size_t i = 0; i < lat.effective.axes.size(); ++i) {
    const Axis& axis = lat.effective.axes[i];
    lat.base_values.push_back(axis.values.front());
    if (axis.values.size() < 2) continue;
    P2P_ASSERT_MSG(
        refinable_axis(axis.name),
        "adaptive refinement subdivides along every varying axis, but axis "
        "\"" +
            axis.name +
            "\" is not refinable (lambda, us, mu, gamma, mix are); pin it to "
            "a single value");
    for (std::size_t v = 0; v < axis.values.size(); ++v) {
      P2P_ASSERT_MSG(std::isfinite(axis.values[v]),
                     "adaptive axis \"" + axis.name +
                         "\" must take finite values");
      P2P_ASSERT_MSG(v == 0 || axis.values[v - 1] < axis.values[v],
                     "adaptive axis \"" + axis.name +
                         "\" must take strictly increasing values");
    }
    lat.axes.push_back(i);
  }
  P2P_ASSERT_MSG(lat.axes.size() >= 2,
                 "adaptive refinement needs at least two varying axes "
                 "(use --refine axis:tol for 1-D localization)");
  P2P_ASSERT_MSG(lat.axes.size() <= kMaxAdaptiveAxes,
                 "adaptive refinement supports at most " +
                     std::to_string(kMaxAdaptiveAxes) + " varying axes (got " +
                     std::to_string(lat.axes.size()) + ")");

  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 1;
  for (const std::size_t slot : lat.axes) {
    const std::uint64_t nb = lat.effective.axes[slot].values.size() - 1;
    P2P_ASSERT_MSG(nb <= (kMax - 1) / lat.scale,
                   "adaptive fine lattice does not fit 64-bit vertex keys; "
                   "lower the depth or coarsen the grid");
    const std::uint64_t dim = nb * lat.scale + 1;
    P2P_ASSERT_MSG(total <= kMax / dim,
                   "adaptive fine lattice does not fit 64-bit vertex keys; "
                   "lower the depth or coarsen the grid");
    total *= dim;
    lat.boxes.push_back(nb);
    lat.dims.push_back(dim);
  }
  lat.dense_equivalent = total;
  lat.strides.assign(lat.axes.size(), 1);
  for (std::size_t j = lat.axes.size() - 1; j-- > 0;) {
    lat.strides[j] = lat.strides[j + 1] * lat.dims[j + 1];
  }
  return lat;
}

/// One evaluated lattice vertex: the full cell classification plus
/// whether the CI-straddle escalation ran extra replica rounds here.
struct VertexResult {
  CellResult cell;
  bool escalated = false;
};

/// Classifies (and, unless theory_only, simulates) one vertex. Replica
/// seeds are (base_seed, kStreamAdaptiveSim, key, replica index) and each
/// aggregation round draws its bootstrap from (base_seed,
/// kStreamAdaptiveAgg, key, round): pure functions of the vertex, so the
/// result is identical no matter which thread — or which generation —
/// evaluates it.
void evaluate_vertex(const AdaptiveLattice& lat, const SweepOptions& options,
                     const AdaptiveOptions& adaptive, std::uint64_t key,
                     VertexResult& out) {
  thread_local std::vector<double> values;
  thread_local std::vector<ArrivalSpec> arrival_scratch;
  thread_local std::vector<ReplicaSample> samples;
  values = lat.base_values;
  for (std::size_t j = 0; j < lat.axes.size(); ++j) {
    const std::uint64_t g = (key / lat.strides[j]) % lat.dims[j];
    values[lat.axes[j]] = lat.vertex_value(j, g);
  }
  const CellParams p = cell_params(lat.slots, values, options.scenario.policy);
  fill_cell(out.cell, /*cell=*/0, p, options, arrival_scratch);
  out.escalated = false;
  if (options.theory_only) return;

  // Active learning over the replica budget: every vertex gets the base
  // round; a vertex whose bootstrap CI straddles the decision threshold
  // keeps drawing further rounds (re-aggregated over ALL its samples, so
  // the CI tightens) until it clears or the round cap hits.
  const bool can_escalate =
      std::isfinite(adaptive.sim_threshold) && options.replicas >= 2;
  const int rounds = can_escalate ? adaptive.max_sim_rounds : 1;
  samples.clear();
  for (int round = 0; round < rounds; ++round) {
    for (int rep = 0; rep < options.replicas; ++rep) {
      const std::uint64_t idx =
          static_cast<std::uint64_t>(round) *
              static_cast<std::uint64_t>(options.replicas) +
          static_cast<std::uint64_t>(rep);
      samples.push_back(simulate_replica(
          p, options,
          derive_seed(options.base_seed, kStreamAdaptiveSim, key, idx)));
    }
    Rng agg_rng(derive_seed(options.base_seed, kStreamAdaptiveAgg, key,
                            static_cast<std::uint64_t>(round)));
    out.cell.sim = aggregate_samples(samples, options, agg_rng);
    if (round + 1 >= rounds) break;
    const double lo = out.cell.sim.mean_peers_lo;
    const double hi = out.cell.sim.mean_peers_hi;
    const bool straddles = std::isfinite(lo) && std::isfinite(hi) &&
                           lo <= adaptive.sim_threshold &&
                           adaptive.sim_threshold <= hi;
    if (!straddles) break;
    out.escalated = true;
  }
}

/// One (sub)box: subdivision depth and the fine indices of its lower
/// corner. Its per-axis fine extent is scale >> depth (the same on every
/// axis, so the center vertex exists exactly while depth < max_depth).
struct Box {
  int depth = 0;
  std::array<std::uint64_t, kMaxAdaptiveAxes> origin{};
};

}  // namespace

AdaptiveOptions parse_adaptive(const std::string& spec) {
  AdaptiveOptions adaptive;
  const auto colon = spec.find(':');
  const std::string depth_token =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const double depth = parse_number(
      depth_token, spec, /*allow_inf=*/false,
      "adaptive spec must look like depth or depth:tol, e.g. 4 or 5:0.01");
  P2P_ASSERT_MSG(depth >= 0 && depth <= kMaxAdaptiveDepth &&
                     depth == std::floor(depth),
                 "adaptive depth must be an integer in [0, " +
                     std::to_string(kMaxAdaptiveDepth) + "] (got \"" + spec +
                     "\")");
  adaptive.max_depth = static_cast<int>(depth);
  if (colon != std::string::npos) {
    adaptive.tol = parse_number(
        spec.substr(colon + 1), spec, /*allow_inf=*/false,
        "adaptive spec must look like depth or depth:tol, e.g. 4 or 5:0.01");
    P2P_ASSERT_MSG(adaptive.tol >= 0,
                   "adaptive tolerance must be nonnegative (got \"" + spec +
                       "\")");
  }
  return adaptive;
}

std::vector<std::string> adaptive_axes(const SweepGrid& grid) {
  const SweepGrid effective = effective_grid(grid);
  std::vector<std::string> out;
  for (const Axis& axis : effective.axes) {
    if (axis.values.size() >= 2) out.push_back(axis.name);
  }
  return out;
}

std::vector<std::string> adaptive_columns(const SweepGrid& grid,
                                          const SweepOptions& options) {
  std::vector<std::string> columns = sweep_columns(options);
  columns.push_back(kBoxDepthColumn);
  columns.push_back(kBoxUniformColumn);
  for (const std::string& name : adaptive_axes(grid)) {
    columns.push_back(kBoxExtPrefix + name);
  }
  return columns;
}

AdaptiveSummary run_adaptive_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const AdaptiveOptions& adaptive,
                                    ReportWriter& writer) {
  const AdaptiveLattice lat = make_lattice(grid, options, adaptive);
  P2P_ASSERT_MSG(writer.columns() == adaptive_columns(grid, options),
                 "adaptive writer must be constructed with adaptive_columns()");

  AdaptiveSummary summary;
  summary.dense_equivalent = lat.dense_equivalent;
  Tally verdicts{};
  const std::size_t d = lat.axes.size();
  const std::uint64_t corners = std::uint64_t{1} << d;

  // Generation 0: the coarse boxes, row-major over the per-axis box
  // counts (last adaptive axis fastest) — the enumeration order a dense
  // sweep over the coarse lattice uses.
  std::vector<Box> current;
  {
    std::size_t total = 1;
    for (const std::uint64_t nb : lat.boxes) total *= nb;
    current.reserve(total);
    Box b;
    for (std::size_t i = 0; i < total; ++i) {
      current.push_back(b);
      for (std::size_t j = d; j-- > 0;) {
        b.origin[j] += lat.scale;
        if (b.origin[j] < lat.boxes[j] * lat.scale) break;
        b.origin[j] = 0;
      }
    }
  }

  ThreadPool pool(options.threads);
  // Evaluated vertices, shared across generations: a vertex introduced
  // as one generation's edge midpoint is a later generation's corner,
  // and is never paid for twice. unordered_map nodes are stable, so
  // workers fill results through plain pointers while the map keeps
  // growing between generations.
  std::unordered_map<std::uint64_t, VertexResult> verts;
  std::vector<Box> next;
  std::vector<std::uint64_t> new_keys;
  std::vector<VertexResult*> targets;
  std::vector<std::size_t> need;
  std::unordered_map<std::uint64_t, std::size_t> gen_pos;

  const auto corner_key = [&](const Box& box, std::uint64_t corner_bits,
                              std::uint64_t off) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const std::uint64_t shift =
          ((corner_bits >> (d - 1 - j)) & 1) != 0 ? off : 0;
      key += (box.origin[j] + shift) * lat.strides[j];
    }
    return key;
  };
  const auto center_key = [&](const Box& box, std::uint64_t half) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < d; ++j) {
      key += (box.origin[j] + half) * lat.strides[j];
    }
    return key;
  };

  // Decides one finished box: subdivide into its 2^d children when the
  // corner/center verdicts disagree (and neither the depth cap nor the
  // physical tolerance stops it), else emit it as a leaf row carrying its
  // origin vertex's evaluation. Runs on the calling thread behind the
  // completion prefix, in box order — the emission order, and hence the
  // bytes, depend only on the grid.
  const auto process_box = [&](const Box& box) {
    const std::uint64_t ext = lat.scale >> box.depth;
    const VertexResult& origin_vr = verts.find(corner_key(box, 0, 0))->second;
    const Stability first = origin_vr.cell.theory.verdict;
    bool uniform = true;
    for (std::uint64_t c = 1; c < corners; ++c) {
      if (verts.find(corner_key(box, c, ext))->second.cell.theory.verdict !=
          first) {
        uniform = false;
      }
    }
    if (box.depth < adaptive.max_depth &&
        verts.find(center_key(box, ext / 2))->second.cell.theory.verdict !=
            first) {
      uniform = false;
    }
    bool split = !uniform && box.depth < adaptive.max_depth;
    if (split && adaptive.tol > 0) {
      bool within_tol = true;
      for (std::size_t j = 0; j < d; ++j) {
        const double width = lat.vertex_value(j, box.origin[j] + ext) -
                             lat.vertex_value(j, box.origin[j]);
        if (width > adaptive.tol) within_tol = false;
      }
      if (within_tol) split = false;
    }
    if (split) {
      const std::uint64_t half = ext / 2;
      for (std::uint64_t c = 0; c < corners; ++c) {
        Box child;
        child.depth = box.depth + 1;
        child.origin = box.origin;
        for (std::size_t j = 0; j < d; ++j) {
          if (((c >> (d - 1 - j)) & 1) != 0) child.origin[j] += half;
        }
        next.push_back(child);
      }
      return;
    }
    CellResult cell = origin_vr.cell;
    cell.index = summary.boxes;
    std::vector<std::string> cells = sweep_row(cell, options);
    cells.push_back(format_number(static_cast<double>(box.depth)));
    cells.push_back(format_number(uniform ? 1 : 0));
    for (std::size_t j = 0; j < d; ++j) {
      cells.push_back(format_number(lat.vertex_value(j, box.origin[j] + ext) -
                                    lat.vertex_value(j, box.origin[j])));
    }
    writer.write_row(cells);
    ++summary.boxes;
    summary.max_depth_reached = std::max(summary.max_depth_reached, box.depth);
    ++verdicts[static_cast<std::size_t>(cell.theory.verdict)];
  };

  while (!current.empty()) {
    next.clear();
    new_keys.clear();
    targets.clear();
    gen_pos.clear();
    need.assign(current.size(), 0);

    // Plan the generation: every vertex a box needs, deduplicated in
    // first-need order. need[b] is the completed-prefix length of the
    // new-key list after which box b is decidable (0 when every vertex
    // was already evaluated by an earlier generation).
    const auto want = [&](std::uint64_t key, std::size_t b) {
      const auto gp = gen_pos.find(key);
      if (gp != gen_pos.end()) {
        need[b] = std::max(need[b], gp->second + 1);
        return;
      }
      const auto [it, inserted] = verts.try_emplace(key);
      if (!inserted) return;  // evaluated in an earlier generation
      gen_pos.emplace(key, new_keys.size());
      need[b] = std::max(need[b], new_keys.size() + 1);
      new_keys.push_back(key);
      targets.push_back(&it->second);
    };
    for (std::size_t b = 0; b < current.size(); ++b) {
      const Box& box = current[b];
      const std::uint64_t ext = lat.scale >> box.depth;
      for (std::uint64_t c = 0; c < corners; ++c) {
        want(corner_key(box, c, ext), b);
      }
      if (box.depth < adaptive.max_depth) {
        want(center_key(box, ext / 2), b);
      }
    }

    // Stream the generation: workers fan over the new vertices while the
    // calling thread decides, subdivides and emits every box whose
    // vertices lie inside the completed prefix. Children wait for the
    // next pass of the while loop — the dynamically injected generations
    // of the work frontier.
    std::size_t next_box = 0;
    const auto process_ready = [&](std::size_t prefix) {
      while (next_box < current.size() && need[next_box] <= prefix) {
        process_box(current[next_box]);
        ++next_box;
      }
    };
    if (new_keys.empty()) {
      process_ready(0);
    } else {
      pool.parallel_for_streaming(
          new_keys.size(), options.chunk, /*window=*/0,
          [&](std::size_t i) {
            evaluate_vertex(lat, options, adaptive, new_keys[i], *targets[i]);
          },
          process_ready);
    }
    P2P_ASSERT(next_box == current.size());
    current.swap(next);
  }

  store_verdict_tally(verdicts, summary);
  summary.evaluated = verts.size();
  summary.simulated = options.theory_only ? 0 : verts.size();
  for (const auto& [key, vr] : verts) {
    if (vr.escalated) ++summary.escalated;
  }
  return summary;
}

}  // namespace p2p::engine
