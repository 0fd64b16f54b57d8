#include "engine/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "core/model.hpp"
#include "engine/cell_eval.hpp"
#include "engine/parse_util.hpp"
#include "engine/thread_pool.hpp"
#include "rand/rng.hpp"
#include "sim/swarm.hpp"
#include "util/assert.hpp"

namespace p2p::engine {

namespace {

/// Axes the frontier refiner may bisect: the continuous parameters that
/// enter the Theorem-1 closed form. mix qualifies — the verdict depends
/// on the arrival composition — but eta, hetero and flash do not (Section
/// VIII-C's point is that retries leave the stability region unchanged,
/// the theory is homogeneous in upload rate, and flash only moves the
/// initial state), and k is integral.
constexpr const char* kRefinableAxes[] = {"lambda", "us", "mu", "gamma",
                                          "mix"};

/// Parses one axis/tolerance value; `spec` is the enclosing CLI spec,
/// echoed verbatim on failure so the user sees which argument is bad.
double parse_value(const std::string& token, const std::string& spec) {
  return parse_number(token, spec, /*allow_inf=*/true,
                      "axis values must be numbers (or 'inf')");
}

/// Odometer over the grid's cell enumeration (last axis fastest): a
/// worker walking a contiguous block of cells pays one div/mod chain at
/// seek() and a carry-propagating increment per step after that, with
/// the per-axis digit and value exposed directly — no per-cell vector
/// allocation like SweepGrid::cell_values.
class CellCursor {
 public:
  explicit CellCursor(const SweepGrid& grid)
      : grid_(&grid) {
    // The calling thread is a pool worker too, and its cursor is written
    // every cell. Allocated at their exact 72 bytes, these vectors can
    // land beside the render plan's small heap blocks that every worker
    // reads per row; that cost the 4-thread 1e6-cell theory sweep 7-11%
    // more user CPU on a 4-core x86 box (none on one thread). A 512-byte
    // capacity comes from a different allocator size class.
    digits_.reserve(kCapacity);
    values_.reserve(kCapacity);
    digits_.resize(grid.axes.size(), 0);
    values_.resize(grid.axes.size(), 0);
  }

  void seek(std::size_t cell) {
    std::size_t rem = cell;
    for (std::size_t i = digits_.size(); i-- > 0;) {
      const auto& vals = grid_->axes[i].values;
      digits_[i] = rem % vals.size();
      values_[i] = vals[digits_[i]];
      rem /= vals.size();
    }
  }

  void advance() {
    for (std::size_t i = digits_.size(); i-- > 0;) {
      const auto& vals = grid_->axes[i].values;
      if (++digits_[i] < vals.size()) {
        values_[i] = vals[digits_[i]];
        return;
      }
      digits_[i] = 0;
      values_[i] = vals[0];
    }
  }

  /// Per-axis value indices of the current cell, aligned with the axes.
  const std::vector<std::size_t>& digits() const { return digits_; }
  /// Per-axis values of the current cell, aligned with the axes.
  const std::vector<double>& values() const { return values_; }

 private:
  static constexpr std::size_t kCapacity = 64;

  const SweepGrid* grid_;
  std::vector<std::size_t> digits_;
  std::vector<double> values_;
};

/// True when every grid row has the same fixed layout: a closed-form row
/// (theory_only, no scenario, no fluid_verdict column, no CTMC solve), so
/// the per-type block and every optional trailing column are absent and
/// the eight sim cells are the same constants in every row. This is the
/// row million-cell phase-diagram sweeps emit, and the only one cheap
/// enough to compute that formatting it cell by cell would dominate the
/// run; only it gets a GridRenderPlan. Every other grid row renders as
/// sweep_row through RowRenderer::render_text_row.
bool fixed_row_layout(const SweepOptions& options) {
  return options.theory_only && options.scenario.empty() && !options.fluid &&
         options.ctmc_max_peers <= 0;
}

/// Everything a worker needs to render one fixed-layout grid row without
/// touching shared mutable state: the columns' RowRenderer, every axis
/// value pre-rendered to its format_number token, and the constant
/// 8-cell sim tail every row shares, cached once as raw bytes.
struct GridRenderPlan {
  RowRenderer renderer;
  /// axis_tokens[axis][digit] = format_number of that grid value. k and
  /// flash are rounded to their integer first: sweep_row formats the
  /// *rounded* c.k / c.flash, and a raw axis value may sit anywhere
  /// within the 1e-9 integrality slack.
  std::vector<std::vector<std::string>> axis_tokens;
  /// The nine axis columns in render order, with maximal runs of
  /// single-valued axes collapsed into one pre-rendered byte span
  /// (cells > 0): a typical phase diagram varies two axes and pins
  /// seven, so most of the row head is one memcpy.
  struct RenderSegment {
    std::size_t axis = 0;  // grid slot of the varying axis (cells == 0)
    std::size_t cells = 0;
    std::string bytes;
  };
  std::vector<RenderSegment> segments;
  /// The verdict and critical_piece cells take a handful of values per
  /// run; their full cell bytes (column prefix included) are cached so
  /// the hot loop appends them verbatim instead of allocating a verdict
  /// string and re-deciding quoting per cell. verdict_tokens is indexed
  /// by the Stability enum value; critical_tokens by critical_piece + 1
  /// (so -1, the gamma <= mu branch, is slot 0).
  std::string verdict_tokens[3];
  std::vector<std::string> critical_tokens;
  /// replicas = 0 and seven NaNs: the sim and CTMC cells of a closed-form
  /// row.
  std::string const_tail;
};

GridRenderPlan make_grid_render_plan(const SweepGrid& effective,
                                     const AxisSlots& slots,
                                     const RowRenderer& renderer) {
  GridRenderPlan plan{renderer, {}, {}, {}, {}, {}};
  plan.axis_tokens.resize(effective.axes.size());
  int max_k = 1;
  for (std::size_t i = 0; i < effective.axes.size(); ++i) {
    plan.axis_tokens[i].reserve(effective.axes[i].values.size());
    for (const double v : effective.axes[i].values) {
      double cell_value = v;
      if (i == slots.k) {
        cell_value = static_cast<double>(std::lround(v));
        max_k = std::max(max_k, static_cast<int>(std::lround(v)));
      }
      if (i == slots.flash) {
        cell_value = static_cast<double>(std::llround(v));
      }
      plan.axis_tokens[i].push_back(format_number(cell_value));
    }
  }
  // Cache the low-cardinality cells' full bytes by rendering each
  // candidate value through the real Row path at its real column
  // position (so the cached bytes can never drift from what text() /
  // number() would emit): the verdict strings, every critical_piece the
  // grid's K values allow, and the constant sim tail.
  const std::size_t num_columns = plan.renderer.num_columns();
  const auto cache_cells = [&](std::size_t column, std::size_t count,
                               const auto& emit) {
    std::string scratch;
    RowRenderer::Row row(plan.renderer, scratch);
    for (std::size_t c = 0; c < column; ++c) row.number(0);
    const std::size_t mark = scratch.size();
    emit(row);
    std::string bytes = scratch.substr(mark);
    for (std::size_t c = column + count; c < num_columns; ++c) row.number(0);
    row.end();
    return bytes;
  };
  const std::size_t verdict_column = sweep_schema_head().size();
  for (const Stability v : {Stability::kPositiveRecurrent,
                            Stability::kTransient, Stability::kBorderline}) {
    plan.verdict_tokens[static_cast<int>(v)] = cache_cells(
        verdict_column, 1,
        [&](RowRenderer::Row& row) { row.text(to_string(v)); });
  }
  for (int piece = -1; piece < max_k; ++piece) {
    plan.critical_tokens.push_back(
        cache_cells(verdict_column + 2, 1,
                    [&](RowRenderer::Row& row) { row.number(piece); }));
  }
  plan.const_tail =
      cache_cells(num_columns - 8, 8, [&](RowRenderer::Row& row) {
        row.number(0);  // replicas
        for (int c = 0; c < 7; ++c) row.number(std::nan(""));
      });
  // Collapse maximal runs of single-valued axis columns (columns 1..9,
  // after the index) into one pre-rendered span each; varying axes stay
  // per-digit token lookups.
  const std::size_t order[9] = {slots.lambda, slots.us,  slots.mu,
                                slots.gamma,  slots.k,   slots.eta,
                                slots.flash,  slots.mix, slots.hetero};
  for (std::size_t j = 0; j < 9;) {
    if (effective.axes[order[j]].values.size() != 1) {
      plan.segments.push_back({order[j], 0, {}});
      ++j;
      continue;
    }
    std::size_t len = 1;
    while (j + len < 9 && effective.axes[order[j + len]].values.size() == 1) {
      ++len;
    }
    std::string bytes =
        cache_cells(1 + j, len, [&](RowRenderer::Row& row) {
          for (std::size_t t = 0; t < len; ++t) {
            row.preformatted_number(plan.axis_tokens[order[j + t]][0]);
          }
        });
    plan.segments.push_back({0, len, std::move(bytes)});
    j += len;
  }
  return plan;
}

/// Renders one fixed-layout (fixed_row_layout) grid row into `arena`:
/// the cached-span form of sweep_row + render_text_row for that one
/// layout, byte for byte (the stream-vs-table suite in
/// tests/test_sweep_stream.cpp is the tripwire).
void render_grid_row(const GridRenderPlan& plan,
                     const std::vector<std::size_t>& digits,
                     const CellResult& c, std::string& arena) {
  RowRenderer::Row row(plan.renderer, arena);
  // Integer fast path for the cell index: for an integer below 2^53
  // that is not a multiple of 10, its plain decimal digits ARE
  // format_number's output — integers there are exactly representable
  // and >= 1 apart, so no shorter decimal round-trips, and scientific
  // needs every significant digit plus "e+NN", strictly longer. (A
  // trailing zero can flip that: format_number(1e5) is "1e+05", so
  // multiples of 10 take the double path.)
  if (c.index < (std::uint64_t{1} << 53) &&
      (c.index == 0 || c.index % 10 != 0)) {
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof(buf), c.index);
    row.preformatted_number(
        std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  } else {
    row.number(static_cast<double>(c.index));
  }
  // The nine axis cells (lambda, us, mu, gamma, k, eta, flash, mix,
  // hetero, in that order) — pinned axes come pre-merged into verbatim
  // spans by make_grid_render_plan.
  for (const GridRenderPlan::RenderSegment& seg : plan.segments) {
    if (seg.cells > 0) {
      row.cells_verbatim(seg.bytes, seg.cells);
    } else {
      row.preformatted_number(plan.axis_tokens[seg.axis][digits[seg.axis]]);
    }
  }
  row.cells_verbatim(plan.verdict_tokens[static_cast<int>(c.theory.verdict)],
                     1);
  row.number(c.theory.margin);
  row.cells_verbatim(
      plan.critical_tokens[static_cast<std::size_t>(c.theory.critical_piece +
                                                    1)],
      1);
  row.cells_verbatim(plan.const_tail, 8);
  row.end();
}

/// Chunk, claim-window and ring sizing of the ordered-completion driver.
struct RingPlan {
  /// Work items claimed per pool mutex acquisition.
  std::size_t chunk = 1;
  /// Claims may run this many items past the emitted prefix: enough
  /// slack that one slow chunk does not stall the claimers, while
  /// keeping live results O(chunk * threads) rather than O(num_items).
  std::size_t window = 0;
  /// Replica-sample ring length. The live span of unaggregated samples
  /// is the claim window PLUS up to replicas-1 items of the block the
  /// consumed prefix stopped inside (blocks are only aggregated whole),
  /// rounded up to a whole number of replica blocks so each block's
  /// samples stay contiguous modulo the ring, and capped at the job
  /// itself. Ring reuse is safe because the pool opens the claim window
  /// only after the consumer has taken the prefix: a writer's slot can
  /// then only collide with an item of a fully aggregated block.
  /// (Sizing to the bare window was a real bug: with
  /// chunk % replicas != 0 a mid-block prefix let a claimable tail item
  /// overwrite the straddling block's samples.)
  std::size_t ring_items = 0;
  /// Per-unit slot ring and chunk-slot ring lengths. Both are powers of
  /// two, so a slot lookup is a mask, not a division; rounding up only
  /// grows a ring, so the reuse-safety argument above is unchanged.
  std::size_t unit_ring = 1;
  std::size_t chunk_ring = 1;
};

RingPlan plan_rings(std::size_t num_items, std::size_t replicas,
                    const SweepOptions& options) {
  RingPlan plan;
  plan.chunk = options.chunk != 0
                   ? options.chunk
                   : ThreadPool::auto_chunk(num_items, options.threads);
  const std::size_t window_chunks =
      4 * static_cast<std::size_t>(options.threads) + 2;
  plan.window = window_chunks * plan.chunk;
  std::size_t ring_items = plan.window + (replicas - 1);
  ring_items = ((ring_items + replicas - 1) / replicas) * replicas;
  plan.ring_items = std::min(ring_items, num_items);
  while (plan.unit_ring < plan.ring_items / replicas + 1) plan.unit_ring *= 2;
  while (plan.chunk_ring < window_chunks + 2) plan.chunk_ring *= 2;
  return plan;
}

/// What opening a unit on a block yields: the parameters its replicas
/// simulate at, and whether it simulates at all.
struct OpenedUnit {
  CellParams params;
  bool simulate = false;
};

/// One ring slot of an in-flight unit. `pending` is the replica
/// countdown that elects the slot's aggregator/renderer: every worker
/// block that finishes items of the unit decrements by the number it
/// finished, and the decrement that reaches zero (an acq_rel RMW, so it
/// observes every earlier finisher's writes through the release
/// sequence) aggregates the samples and renders the row. The consumer
/// re-arms `pending` with a relaxed store — safe because the pool opens
/// the claim window past a prefix only after on_prefix returns, so no
/// worker can touch the slot concurrently, and the hand-back is ordered
/// by the pool mutex.
///
/// Ring slots are cache-line aligned: neighbouring slots are written by
/// different workers at the same time. Sharing a line with a neighbour
/// cost the 4-thread theory sweep 30-50% more CPU time on a 4-core x86
/// box whenever the heap happened to place the ring off a line
/// boundary.
template <class Result>
struct alignas(64) UnitSlot {
  Result result;
  std::string arena;
  std::atomic<std::size_t> pending{0};
};

/// One ring slot of the chunk-batched writer path (replicas == 1): the
/// finished block's rendered bytes plus its tally. With one item per
/// unit a claimed block is completed entirely by its worker, so the
/// whole chunk's rows share one arena and the consumer pays one
/// write_rendered — and one ring access — per CHUNK instead of per
/// unit. Reuse safety is the claim window again: a chunk index is only
/// claimable within window_chunks of the consumed prefix, and the ring
/// is larger than the window. Cache-line aligned like UnitSlot.
struct alignas(64) ChunkSlot {
  std::string arena;
  std::size_t rows = 0;
  Tally tally{};
};

/// The ordered-completion driver behind every grid and frontier run:
/// fans the (unit, replica) items — a unit is a grid cell or a frontier
/// row — across the pool in chunk-sized blocks, and emits each finished
/// unit in index order as soon as every unit before it is complete.
/// Live state is a ring of O(window) items. Seeds key on the unit index
/// and replica alone, so the emitted bytes cannot depend on scheduling.
///
/// `Unit` supplies what differs between grid and frontier:
///   Result                 the per-unit record;
///   kSimStream/kAggStream  the seed streams of its replica sims and of
///                          their aggregation bootstrap;
///   Block                  per-claimed-block state built from (unit,
///                          first unit index): open(result, u, fill)
///                          yields the unit's OpenedUnit and, when
///                          `fill` (the unit's first item), fills
///                          `result`; render(result, arena) appends its
///                          row; advance() steps to the next unit;
///   sim(result)            where the aggregated replicas land;
///   bin(result)            its bin in the returned Tally.
///
/// Exactly one of `sink` / `writer` is non-null. With a writer, a
/// unit's report row is rendered INSIDE the worker that finishes it
/// (into the slot's reusable arena), and the consumer thread only
/// concatenates finished spans into the writer — formatting scales with
/// the pool instead of serializing on the consumer. With a sink, the
/// Result is handed over unrendered. With a writer and one replica per
/// unit the driver batches whole chunks (ChunkSlot): the ring carries
/// (range, bytes) instead of per-unit slots.
template <class Unit>
Tally run_ordered(const Unit& unit, std::size_t num_units,
                  std::size_t replicas, const SweepOptions& options,
                  const std::function<void(typename Unit::Result&&)>* sink,
                  ReportWriter* writer) {
  using Result = typename Unit::Result;
  P2P_ASSERT((sink != nullptr) != (writer != nullptr));
  P2P_ASSERT_MSG(num_units <= SIZE_MAX / replicas,
                 "sweep work item count overflows size_t (" +
                     std::to_string(num_units) + " units x " +
                     std::to_string(replicas) + " replicas)");
  const std::size_t num_items = num_units * replicas;
  const RingPlan plan = plan_rings(num_items, replicas, options);

  const bool chunk_mode = writer != nullptr && replicas == 1;
  const std::size_t chunk_mask = plan.chunk_ring - 1;
  const std::size_t slot_mask = plan.unit_ring - 1;
  std::vector<ChunkSlot> chunk_slots(chunk_mode ? plan.chunk_ring : 0);
  std::vector<UnitSlot<Result>> slots(chunk_mode ? 0 : plan.unit_ring);
  std::vector<ReplicaSample> samples(
      options.theory_only || chunk_mode ? 0 : plan.ring_items);
  if (replicas > 1) {
    for (auto& slot : slots) {
      slot.pending.store(replicas, std::memory_order_relaxed);
    }
  }

  const auto simulate = [&](const CellParams& p, std::size_t u,
                            std::size_t replica) {
    return simulate_replica(
        p, options,
        derive_seed(options.base_seed, Unit::kSimStream, u, replica));
  };
  const auto aggregate = [&](Result& r, std::size_t u,
                             std::span<const ReplicaSample> unit_samples) {
    Rng agg_rng(derive_seed(options.base_seed, Unit::kAggStream, u, 0));
    Unit::sim(r) = aggregate_samples(unit_samples, options, agg_rng);
  };

  Tally tally{};
  std::size_t emitted = 0;
  ThreadPool pool(options.threads);
  pool.parallel_for_streaming_blocks(
      num_items, plan.chunk, plan.window,
      [&](std::size_t begin, std::size_t end) {
        typename Unit::Block block(unit, begin / replicas);
        if (chunk_mode) {
          // One local Result reused across the block's units, rows
          // appended to the chunk's arena, bins counted into the chunk
          // slot (the sums are order-free, so the totals stay
          // deterministic).
          ChunkSlot& cslot = chunk_slots[(begin / plan.chunk) & chunk_mask];
          cslot.arena.clear();
          cslot.rows = end - begin;
          cslot.tally = {};
          Result result;
          for (std::size_t u = begin; u < end; ++u) {
            const OpenedUnit opened = block.open(result, u, /*fill=*/true);
            if (opened.simulate) {
              const ReplicaSample sample = simulate(opened.params, u, 0);
              aggregate(result, u, {&sample, 1});
            }
            ++cslot.tally[Unit::bin(result)];
            block.render(result, cslot.arena);
            if (u + 1 < end) block.advance();
          }
          return;
        }
        // single = the one-replica shape: item == unit, so the per-unit
        // loop below runs no division at all.
        const bool single = replicas == 1;
        std::size_t item = begin;
        while (item < end) {
          const std::size_t u = single ? item : item / replicas;
          const std::size_t u_end =
              single ? item + 1 : std::min(end, (u + 1) * replicas);
          UnitSlot<Result>& slot = slots[u & slot_mask];
          const OpenedUnit opened =
              block.open(slot.result, u, single || item % replicas == 0);
          if (opened.simulate) {
            for (std::size_t it = item; it < u_end; ++it) {
              samples[it % plan.ring_items] =
                  simulate(opened.params, u, it % replicas);
            }
          }
          // The finisher that completes the unit (with one replica:
          // always this block) aggregates and renders it, on whatever
          // worker thread it ran — seeds and formatting depend only on
          // the unit index, so the bytes cannot.
          const std::size_t done = u_end - item;
          const bool last =
              single ||
              slot.pending.fetch_sub(done, std::memory_order_acq_rel) == done;
          if (last) {
            if (opened.simulate) {
              aggregate(slot.result, u,
                        {samples.data() + (u * replicas) % plan.ring_items,
                         replicas});
            }
            if (writer != nullptr) {
              slot.arena.clear();
              block.render(slot.result, slot.arena);
            }
          }
          item = u_end;
          if (item < end) block.advance();
        }
      },
      [&](std::size_t prefix_items) {
        // The consumer runs serially on the calling thread in unit
        // order; with a writer it only tallies and concatenates the
        // pre-rendered spans — one span per chunk in chunk mode.
        if (chunk_mode) {
          while (emitted < prefix_items) {
            ChunkSlot& cslot =
                chunk_slots[(emitted / plan.chunk) & chunk_mask];
            writer->write_rendered(cslot.arena, cslot.rows);
            for (std::size_t b = 0; b < tally.size(); ++b) {
              tally[b] += cslot.tally[b];
            }
            emitted += cslot.rows;
          }
          return;
        }
        for (const std::size_t complete = prefix_items / replicas;
             emitted < complete; ++emitted) {
          UnitSlot<Result>& slot = slots[emitted & slot_mask];
          ++tally[Unit::bin(slot.result)];
          if (writer != nullptr) {
            writer->write_rendered(slot.arena, 1);
          } else {
            (*sink)(std::move(slot.result));
          }
          if (replicas > 1) {
            slot.pending.store(replicas, std::memory_order_relaxed);
          }
        }
      });
  return tally;
}

/// Grid cells as driver units. A block walks its cells with an odometer
/// cursor and a reused arrival buffer and opens each with cell_params +
/// fill_cell: nothing allocates per cell in the theory-only path.
struct GridUnit {
  using Result = CellResult;
  static constexpr Stream kSimStream = kStreamCellSim;
  static constexpr Stream kAggStream = kStreamCellAgg;

  const SweepGrid& effective;
  const SweepOptions& options;
  AxisSlots slots;
  const RowRenderer* renderer;  // null without a writer
  /// Set only with a writer and a fixed_row_layout sweep.
  std::optional<GridRenderPlan> plan;

  struct Block {
    const GridUnit& unit;
    CellCursor cursor;
    std::vector<ArrivalSpec> arrivals;

    Block(const GridUnit& grid, std::size_t first_cell)
        : unit(grid), cursor(grid.effective) {
      cursor.seek(first_cell);
    }
    OpenedUnit open(CellResult& out, std::size_t cell, bool fill) {
      const CellParams p = cell_params(unit.slots, cursor.values(),
                                       unit.options.scenario.policy);
      if (fill) fill_cell(out, cell, p, unit.options, arrivals);
      return {p, !unit.options.theory_only};
    }
    void render(const CellResult& c, std::string& arena) const {
      if (unit.plan) {
        render_grid_row(*unit.plan, cursor.digits(), c, arena);
      } else {
        unit.renderer->render_text_row(sweep_row(c, unit.options), arena);
      }
    }
    void advance() { cursor.advance(); }
  };

  static SimAggregate& sim(CellResult& c) { return c.sim; }
  static std::size_t bin(const CellResult& c) {
    return static_cast<std::size_t>(c.theory.verdict);
  }
};

/// run_sweep / run_sweep_stream: exactly one of `sink` / `writer` is
/// non-null (see run_ordered).
SweepSummary sweep_grid(const SweepGrid& grid, const SweepOptions& options,
                        const std::function<void(CellResult&&)>* sink,
                        ReportWriter* writer) {
  const SweepGrid effective = validated_effective_grid(grid, options);
  // Every worker reads the unit's axis slots and render plan once per
  // cell. Kept on this thread's stack they cost the 4-thread 1e6-cell
  // theory sweep 6-7% more CPU time on a 4-core x86 box (alternating
  // runs against a heap-held unit), so the unit lives on the heap.
  const auto unit = std::make_unique<GridUnit>(
      GridUnit{effective, options, resolve_axis_slots(effective),
               writer != nullptr ? &writer->renderer() : nullptr, {}});
  if (writer != nullptr && fixed_row_layout(options)) {
    unit->plan.emplace(
        make_grid_render_plan(effective, unit->slots, writer->renderer()));
  }
  // Theory-only sweeps run one closed-form item per cell: fanning unused
  // replica slots would just multiply claim traffic.
  const std::size_t replicas =
      options.theory_only ? 1 : static_cast<std::size_t>(options.replicas);
  SweepSummary summary;
  summary.cells = effective.num_cells();
  store_verdict_tally(
      run_ordered(*unit, summary.cells, replicas, options, sink, writer),
      summary);
  return summary;
}

}  // namespace

Axis parse_axis(const std::string& spec) {
  // Every message names the offending spec verbatim: a sweep command
  // often carries half a dozen ';'-separated axes, and an abort that
  // does not say which one is malformed sends the user diffing specs by
  // hand.
  const auto eq = spec.find('=');
  P2P_ASSERT_MSG(eq != std::string::npos && eq > 0 && eq + 1 < spec.size(),
                 "axis spec must look like name=lo:hi:count, name=v1,v2 "
                 "or name=v (got \"" +
                     spec + "\")");
  Axis axis;
  axis.name = spec.substr(0, eq);
  const std::string body = spec.substr(eq + 1);

  if (body.find(':') != std::string::npos) {
    // Inclusive linspace lo:hi:count.
    const auto c1 = body.find(':');
    const auto c2 = body.find(':', c1 + 1);
    P2P_ASSERT_MSG(c2 != std::string::npos &&
                       body.find(':', c2 + 1) == std::string::npos,
                   "linspace axis must be name=lo:hi:count (got \"" + spec +
                       "\")");
    const double lo = parse_value(body.substr(0, c1), spec);
    const double hi = parse_value(body.substr(c1 + 1, c2 - c1 - 1), spec);
    const double count_raw = parse_value(body.substr(c2 + 1), spec);
    const long count = std::lround(count_raw);
    P2P_ASSERT_MSG(count >= 1 && std::abs(count_raw - count) < 1e-9,
                   "linspace count must be a positive integer (got \"" +
                       spec + "\")");
    P2P_ASSERT_MSG(std::isfinite(lo) && std::isfinite(hi),
                   "linspace endpoints must be finite (got \"" + spec +
                       "\")");
    for (long i = 0; i < count; ++i) {
      axis.values.push_back(
          count == 1 ? lo
                     : lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(count - 1));
    }
  } else {
    // Explicit list (possibly a single value).
    for (const std::string& token : split_list(body, ',')) {
      axis.values.push_back(parse_value(token, spec));
    }
  }
  return axis;
}

std::size_t SweepGrid::num_cells() const {
  std::size_t n = 1;
  for (const auto& axis : axes) {
    const std::size_t size = axis.values.size();
    // A hostile spec (four 65536-point linspaces) would wrap the product
    // and silently under-allocate the whole sweep; fail fast and name
    // the grid's axis sizes so the user sees which spec did it.
    if (size != 0 && n > SIZE_MAX / size) {
      std::string shape;
      for (const auto& a : axes) {
        if (!shape.empty()) shape += " x ";
        shape += a.name + "[" + std::to_string(a.values.size()) + "]";
      }
      P2P_ASSERT_MSG(false,
                     "sweep grid cell count overflows size_t (grid " +
                         shape + ")");
    }
    n *= size;
  }
  return axes.empty() ? 0 : n;
}

std::vector<double> SweepGrid::cell_values(std::size_t index) const {
  P2P_ASSERT(index < num_cells());
  std::vector<double> values(axes.size());
  std::size_t rem = index;
  for (std::size_t i = axes.size(); i-- > 0;) {
    const std::size_t size = axes[i].values.size();
    values[i] = axes[i].values[rem % size];
    rem /= size;
  }
  return values;
}

void SweepGrid::set_axis(Axis axis) {
  for (auto& existing : axes) {
    if (existing.name == axis.name) {
      existing = std::move(axis);
      return;
    }
  }
  axes.push_back(std::move(axis));
}

const Axis* SweepGrid::find_axis(const std::string& name) const {
  for (const auto& axis : axes) {
    if (axis.name == name) return &axis;
  }
  return nullptr;
}

SweepGrid parse_grid(const std::string& spec) {
  SweepGrid grid;
  std::size_t start = 0;
  while (start < spec.size()) {
    auto semi = spec.find(';', start);
    if (semi == std::string::npos) semi = spec.size();
    if (semi > start) {
      grid.set_axis(parse_axis(spec.substr(start, semi - start)));
    }
    start = semi + 1;
  }
  return grid;
}

SweepGrid default_region_grid() {
  SweepGrid grid;
  grid.set_axis(parse_axis("lambda=0.5:3.0:16"));
  grid.set_axis(parse_axis("us=0.2:1.7:16"));
  grid.set_axis(parse_axis("mu=1"));
  grid.set_axis(parse_axis("gamma=1.25"));
  grid.set_axis(parse_axis("k=3"));
  grid.set_axis(parse_axis("eta=1"));
  grid.set_axis(parse_axis("flash=0"));
  grid.set_axis(parse_axis("mix=0"));
  grid.set_axis(parse_axis("hetero=0"));
  return grid;
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  SweepResult result;
  result.options = options;
  const std::function<void(CellResult&&)> sink = [&](CellResult&& cell) {
    result.cells.push_back(std::move(cell));
  };
  sweep_grid(grid, options, &sink, nullptr);
  result.grid = effective_grid(grid);
  return result;
}

SweepSummary run_sweep_stream(const SweepGrid& grid,
                              const SweepOptions& options,
                              ReportWriter& writer) {
  P2P_ASSERT_MSG(writer.columns() == sweep_columns(options),
                 "run_sweep_stream writer must be built with "
                 "sweep_columns(options)");
  return sweep_grid(grid, options, nullptr, &writer);
}

namespace {

// The single source of truth for both report headers. sweep_columns /
// frontier_columns assemble the emitted headers from these arrays, and
// the corpus reader (engine/csv_reader.cpp) validates archived headers
// against the same spans — schema drift is a compile-and-test failure,
// not a corrupted notebook months later.
constexpr const char* kSweepHead[] = {"cell", "lambda", "us",    "mu",
                                      "gamma", "k",     "eta",   "flash",
                                      "mix",   "hetero"};
constexpr const char* kSweepTail[] = {
    "verdict",           "margin",          "critical_piece",
    "replicas",          "sim_final_peers", "sim_mean_peers",
    "sim_mean_sojourn",  "sim_mean_peers_sem",
    "sim_mean_peers_lo", "sim_mean_peers_hi", "ctmc_mean_peers"};
constexpr const char* kFrontierHead[] = {
    "row", "axis", "bracketed", "value", "value_lo", "value_hi", "margin",
    "lambda", "us", "mu", "gamma", "k", "eta", "flash", "mix", "hetero"};
constexpr const char* kFrontierTail[] = {
    "replicas", "sim_mean_peers", "sim_mean_peers_sem", "sim_mean_peers_lo",
    "sim_mean_peers_hi"};

/// head + [per-type block] + tail + [sim_backend] + [policy] +
/// [fluid_verdict], the shape of both report tables. The optional
/// columns trail the fixed tail in that order so every archived corpus
/// remains a prefix of the new schema (the reader treats each as
/// optional).
std::vector<std::string> schema_columns(std::span<const char* const> head,
                                        std::span<const char* const> tail,
                                        const ScenarioSpec& scenario,
                                        bool with_backend, bool with_policy,
                                        bool with_fluid) {
  std::vector<std::string> cols(head.begin(), head.end());
  if (!scenario.empty()) {
    // Per-type arrival-rate columns: the composition the mix axis
    // actually produced, one column per stream of the scenario.
    cols.push_back(kLambdaEmptyColumn);
    for (const auto& a : scenario.mix) cols.push_back(mix_column_name(a.type));
  }
  cols.insert(cols.end(), tail.begin(), tail.end());
  if (with_backend) cols.push_back(kSimBackendColumn);
  if (with_policy) cols.push_back(kPolicyColumn);
  if (with_fluid) cols.push_back(kFluidVerdictColumn);
  return cols;
}

}  // namespace

std::span<const char* const> sweep_schema_head() { return kSweepHead; }
std::span<const char* const> sweep_schema_tail() { return kSweepTail; }
std::span<const char* const> frontier_schema_head() { return kFrontierHead; }
std::span<const char* const> frontier_schema_tail() { return kFrontierTail; }

std::string mix_column_name(PieceSet type) {
  std::string name = kLambdaTypePrefix;
  bool first = true;
  for (int piece : type) {
    if (!first) name += '.';
    name += std::to_string(piece + 1);
    first = false;
  }
  return name;
}

std::vector<std::string> sweep_columns(const SweepOptions& options) {
  // Theory-only grids carry no backend or policy column: no simulator
  // ran, and archived closed-form corpora must keep reproducing
  // byte-identically. The policy column likewise stays absent on the
  // RandomUseful baseline, so pre-policy sim archives keep their bytes.
  const bool sim = !options.theory_only;
  return schema_columns(
      sweep_schema_head(), sweep_schema_tail(), options.scenario, sim,
      sim && options.scenario.policy != PolicyKind::kRandomUseful,
      options.fluid);
}

const char* to_string(SimBackend backend) {
  switch (backend) {
    case SimBackend::kPerPeer:
      return "perpeer";
    case SimBackend::kTypeCount:
      return "typecount";
    case SimBackend::kAuto:
      break;
  }
  P2P_ASSERT_MSG(false, "kAuto is a request, not a resolved backend");
  return "";
}

bool typecount_in_domain(const CellParams& p) {
  // eta != 1 is per-peer state (the retry boost tracks each peer's last
  // contact), hetero != 0 draws per-peer rate classes, the dense
  // type-count state caps K at 16, and any policy besides RandomUseful
  // makes the transfer law depend on which concrete peer is contacted —
  // outside any of these, only the per-peer simulator realizes the
  // cell's law.
  return p.policy == PolicyKind::kRandomUseful && p.eta == 1.0 &&
         p.hetero == 0.0 && p.k <= 16;
}

SimBackend resolve_sim_backend(SimBackend requested, const CellParams& p) {
  if (requested != SimBackend::kAuto) return requested;
  return typecount_in_domain(p) ? SimBackend::kTypeCount
                                : SimBackend::kPerPeer;
}

std::string typecount_domain_violation(const SweepGrid& grid,
                                       const ScenarioSpec& scenario) {
  if (scenario.policy != PolicyKind::kRandomUseful) {
    // The policy is a scenario dimension, not a grid axis, but the
    // message keeps the named-axis shape of the other domain legs so
    // every violation reads the same way.
    return std::string("the typecount backend requires policy = "
                       "random-useful (the exchangeable type-count state "
                       "assumes the Theorem-1 selection law), but axis "
                       "policy takes the value ") +
           to_string(scenario.policy) +
           "; drop the axis or use the perpeer/auto backend";
  }
  const SweepGrid effective = effective_grid(grid);
  const auto offends = [](const std::string& name, double v) {
    if (name == "eta") return v != 1.0;
    if (name == "hetero") return v != 0.0;
    if (name == "k") return v > 16;
    return false;
  };
  const auto requirement = [](const std::string& name) {
    if (name == "eta") {
      return "eta = 1 (the Section VIII-C retry boost is per-peer state)";
    }
    if (name == "hetero") {
      return "hetero = 0 (rate classes are drawn per peer)";
    }
    return "k <= 16 (the dense type-count state is 2^k wide)";
  };
  for (const auto& axis : effective.axes) {
    for (const double v : axis.values) {
      if (offends(axis.name, v)) {
        return "the typecount backend requires " +
               std::string(requirement(axis.name)) + ", but axis " +
               axis.name + " takes the value " +
               format_number(v) +
               "; drop the axis or use the perpeer/auto backend";
      }
    }
  }
  return {};
}

std::vector<std::string> sweep_row(const CellResult& c,
                                   const SweepOptions& options) {
  const ScenarioSpec& scenario = options.scenario;
  std::vector<std::string> row = {
      format_number(static_cast<double>(c.index)), format_number(c.lambda),
      format_number(c.us),                         format_number(c.mu),
      format_number(c.gamma),                      format_number(c.k),
      format_number(c.eta),
      format_number(static_cast<double>(c.flash)), format_number(c.mix),
      format_number(c.hetero)};
  if (!scenario.empty()) {
    row.push_back(format_number((1.0 - c.mix) * c.lambda));
    for (const auto& a : scenario.mix) {
      row.push_back(format_number(c.mix * c.lambda * a.rate));
    }
  }
  for (std::string cell :
       {to_string(c.theory.verdict), format_number(c.theory.margin),
        format_number(c.theory.critical_piece),
        format_number(c.sim.replicas),
        format_number(c.sim.final_peers_mean),
        format_number(c.sim.mean_peers_mean),
        format_number(c.sim.mean_sojourn),
        format_number(c.sim.mean_peers_sem),
        format_number(c.sim.mean_peers_lo),
        format_number(c.sim.mean_peers_hi),
        format_number(c.ctmc_mean_peers)}) {
    row.push_back(std::move(cell));
  }
  if (!options.theory_only) row.push_back(to_string(c.backend));
  if (!options.theory_only &&
      options.scenario.policy != PolicyKind::kRandomUseful) {
    row.push_back(to_string(options.scenario.policy));
  }
  if (options.fluid) row.push_back(to_string(c.fluid));
  return row;
}

Table SweepResult::to_table() const {
  Table table(sweep_columns(options));
  for (const auto& c : cells) table.add_row(sweep_row(c, options));
  return table;
}

RefineOptions parse_refine(const std::string& spec) {
  const auto colon = spec.find(':');
  P2P_ASSERT_MSG(colon != std::string::npos && colon > 0 &&
                     colon + 1 < spec.size(),
                 "refine spec must look like axis:tol, e.g. lambda:0.01 "
                 "(got \"" +
                     spec + "\")");
  RefineOptions refine;
  refine.axis = spec.substr(0, colon);
  refine.tol = parse_value(spec.substr(colon + 1), spec);
  P2P_ASSERT_MSG(std::isfinite(refine.tol) && refine.tol > 0,
                 "refine tolerance must be positive and finite (got \"" +
                     spec + "\")");
  return refine;
}

bool refinable_axis(const std::string& name) {
  for (const char* known : kRefinableAxes) {
    if (name == known) return true;
  }
  return false;
}

namespace {

/// Closed-form bisection of one row: scan the refined axis's coarse
/// values for the first adjacent verdict change, then halve the bracket
/// until it is at most `tol` wide. No simulation runs here — Theorem 1
/// is a formula — which is what lets refinement localize the boundary
/// ~10 bisections deep for the price of one coarse cell. `slots` index
/// the row's axis values with the refined axis appended last.
FrontierPoint bisect_row(const SweepGrid& rows, const AxisSlots& slots,
                         std::size_t row, const Axis& refined,
                         const RefineOptions& refine,
                         const ScenarioSpec& scenario) {
  std::vector<double> values = rows.cell_values(row);
  values.push_back(0);
  const auto params_at = [&](double v) {
    values.back() = v;
    return cell_params(slots, values, scenario.policy);
  };
  const auto verdict_at = [&](double v) {
    return classify(expand(scenario, params_at(v)).params).verdict;
  };

  FrontierPoint pt;
  pt.row = row;

  std::vector<Stability> verdicts(refined.values.size());
  for (std::size_t i = 0; i < refined.values.size(); ++i) {
    verdicts[i] = verdict_at(refined.values[i]);
  }
  std::size_t bracket = refined.values.size();
  for (std::size_t i = 0; i + 1 < refined.values.size(); ++i) {
    if (verdicts[i] != verdicts[i + 1]) {
      bracket = i;
      break;
    }
  }
  if (bracket == refined.values.size()) {
    // No flip inside the coarse range: report the row's parameters with
    // the refined slot (and everything downstream) NaN.
    pt.params = params_at(std::nan(""));
    return pt;
  }

  double lo = refined.values[bracket];
  double hi = refined.values[bracket + 1];
  const Stability at_lo = verdicts[bracket];
  // 200 iterations caps runaway loops when tol is below the bracket's
  // floating-point resolution; each halving is one classify() call.
  for (int iter = 0; std::abs(hi - lo) > refine.tol && iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (verdict_at(mid) == at_lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  pt.bracketed = true;
  pt.value_lo = lo;
  pt.value_hi = hi;
  pt.value = 0.5 * (lo + hi);
  pt.params = params_at(pt.value);
  pt.margin = classify(expand(scenario, pt.params).params).margin;
  return pt;
}

/// Frontier rows as driver units. A block re-runs the closed-form
/// bisection once per row it touches instead of publishing it across
/// blocks: the bisection is a deterministic handful of classify() calls,
/// cheap next to one replica simulation, and recomputing it keeps the
/// live state a ring of O(chunk * threads) items with no cross-item
/// synchronization. Unbracketed rows skip the simulation entirely.
/// Seeds key on the row index, so adding an unbracketed row elsewhere in
/// the grid never shifts another row's streams.
struct FrontierUnit {
  using Result = FrontierPoint;
  static constexpr Stream kSimStream = kStreamFrontierSim;
  static constexpr Stream kAggStream = kStreamFrontierAgg;

  const SweepGrid& rows;
  const AxisSlots& slots;
  const Axis& refined;
  const RefineOptions& refine;
  const SweepOptions& options;
  const RowRenderer* renderer;  // null without a writer

  struct Block {
    const FrontierUnit& unit;

    Block(const FrontierUnit& frontier, std::size_t) : unit(frontier) {}
    OpenedUnit open(FrontierPoint& out, std::size_t row, bool fill) const {
      FrontierPoint pt = bisect_row(unit.rows, unit.slots, row, unit.refined,
                                    unit.refine, unit.options.scenario);
      const OpenedUnit opened{pt.params, pt.bracketed};
      if (fill) out = std::move(pt);
      return opened;
    }
    void render(const FrontierPoint& pt, std::string& arena) const {
      unit.renderer->render_text_row(
          frontier_row(pt, unit.refine, unit.options), arena);
    }
    void advance() {}
  };

  static SimAggregate& sim(FrontierPoint& pt) { return pt.sim; }
  static std::size_t bin(const FrontierPoint& pt) {
    return pt.bracketed ? 1 : 0;
  }
};

/// refine_frontier / run_frontier_stream: exactly one of `sink` /
/// `writer` is non-null (see run_ordered).
FrontierSummary sweep_frontier(
    const SweepGrid& grid, const SweepOptions& options,
    const RefineOptions& refine,
    const std::function<void(FrontierPoint&&)>* sink, ReportWriter* writer,
    SweepGrid* effective_out = nullptr) {
  const SweepGrid effective = validated_effective_grid(grid, options);
  if (effective_out != nullptr) *effective_out = effective;

  P2P_ASSERT_MSG(refinable_axis(refine.axis),
                 "refine axis must be one of lambda, us, mu, gamma, mix");
  // The frontier's whole point is simulating at the localized flip;
  // accepting theory_only here would silently skip those sims while the
  // table still advertises replica columns.
  P2P_ASSERT_MSG(!options.theory_only,
                 "theory_only applies to grid sweeps, not refine_frontier");
  P2P_ASSERT_MSG(std::isfinite(refine.tol) && refine.tol > 0,
                 "refine tolerance must be positive and finite");
  const Axis* refined = effective.find_axis(refine.axis);
  P2P_ASSERT(refined != nullptr);
  P2P_ASSERT_MSG(refined->values.size() >= 2,
                 "refined axis needs >= 2 coarse values to bracket a flip");
  for (const double v : refined->values) {
    P2P_ASSERT_MSG(std::isfinite(v), "refined axis values must be finite");
  }

  SweepGrid rows;
  for (const auto& axis : effective.axes) {
    if (axis.name != refine.axis) rows.axes.push_back(axis);
  }
  SweepGrid probe = rows;
  probe.axes.push_back(Axis{refine.axis, {}});
  const AxisSlots slots = resolve_axis_slots(probe);

  FrontierSummary summary;
  summary.rows = rows.num_cells();
  summary.bracketed =
      run_ordered(FrontierUnit{rows, slots, *refined, refine, options,
                               writer != nullptr ? &writer->renderer()
                                                 : nullptr},
                  summary.rows, static_cast<std::size_t>(options.replicas),
                  options, sink, writer)[1];
  return summary;
}

}  // namespace

FrontierResult refine_frontier(const SweepGrid& grid,
                               const SweepOptions& options,
                               const RefineOptions& refine) {
  FrontierResult result;
  result.refine = refine;
  result.options = options;
  const std::function<void(FrontierPoint&&)> sink = [&](FrontierPoint&& pt) {
    result.points.push_back(std::move(pt));
  };
  sweep_frontier(grid, options, refine, &sink, nullptr, &result.grid);
  return result;
}

FrontierSummary run_frontier_stream(const SweepGrid& grid,
                                    const SweepOptions& options,
                                    const RefineOptions& refine,
                                    ReportWriter& writer) {
  P2P_ASSERT_MSG(writer.columns() == frontier_columns(options),
                 "run_frontier_stream writer must be built with "
                 "frontier_columns(options)");
  return sweep_frontier(grid, options, refine, nullptr, &writer);
}

std::vector<std::string> frontier_columns(const SweepOptions& options) {
  // The per-type block records the composition each localized point ran
  // (NaN when the row never bracketed a flip) — the mix weights are not
  // recoverable from the generic axis columns alone.
  return schema_columns(
      frontier_schema_head(), frontier_schema_tail(), options.scenario,
      /*with_backend=*/true,
      options.scenario.policy != PolicyKind::kRandomUseful,
      /*with_fluid=*/false);
}

std::vector<std::string> frontier_row(const FrontierPoint& pt,
                                      const RefineOptions& refine,
                                      const SweepOptions& options) {
  const ScenarioSpec& scenario = options.scenario;
  std::vector<std::string> row = {
      format_number(static_cast<double>(pt.row)), refine.axis,
      format_number(pt.bracketed ? 1 : 0), format_number(pt.value),
      format_number(pt.value_lo), format_number(pt.value_hi),
      format_number(pt.margin), format_number(pt.params.lambda),
      format_number(pt.params.us), format_number(pt.params.mu),
      format_number(pt.params.gamma), format_number(pt.params.k),
      format_number(pt.params.eta),
      format_number(static_cast<double>(pt.params.flash)),
      format_number(pt.params.mix), format_number(pt.params.hetero)};
  if (!scenario.empty()) {
    row.push_back(format_number((1.0 - pt.params.mix) * pt.params.lambda));
    for (const auto& a : scenario.mix) {
      row.push_back(format_number(pt.params.mix * pt.params.lambda * a.rate));
    }
  }
  for (std::string cell : {format_number(pt.sim.replicas),
                           format_number(pt.sim.mean_peers_mean),
                           format_number(pt.sim.mean_peers_sem),
                           format_number(pt.sim.mean_peers_lo),
                           format_number(pt.sim.mean_peers_hi)}) {
    row.push_back(std::move(cell));
  }
  // The backend the point's replicas run on; the refined axis is never
  // a domain axis (eta/hetero/k), so the resolution is well defined
  // even for unbracketed rows.
  row.push_back(to_string(resolve_sim_backend(options.sim_backend, pt.params)));
  if (options.scenario.policy != PolicyKind::kRandomUseful) {
    row.push_back(to_string(options.scenario.policy));
  }
  return row;
}

Table FrontierResult::to_table() const {
  Table table(frontier_columns(options));
  for (const auto& pt : points) {
    table.add_row(frontier_row(pt, refine, options));
  }
  return table;
}

}  // namespace p2p::engine
