// perfbench_layers: the benchmark's in-process layer runner.
//
// The end-to-end figures come from the shipped tools run as child
// processes (perfbench/run.py). This program serves the rest:
//
//   --mode env     prints the build type, compiler and NDEBUG state the
//                  binaries were built with (the run environment record).
//   --mode tally   Theorem-1 verdict tallies of a grid from direct
//                  classify() calls: the reference the theory_sweep
//                  report's verdict column is checked against.
//   spawn ARGV...  runs ARGV as a child and prints its wall time, CPU time
//                  (user + system, all threads), exit status and peak RSS
//                  as JSON, then runs the calibration probe (probe.hpp)
//                  for a quarter of the child's wall time and adds the
//                  CPU time of each probe call. The end-to-end timings go
//                  through this small process because a child's peak RSS
//                  counts the memory of whatever process spawned it, and
//                  the Python harness is larger than some of the tools.
//   --mode probe   runs the calibration probe for --seconds of wall time
//                  and prints the CPU time of each call as JSON.
//   --mode trace   runs the four pipelines stage by stage through each
//                  layer's public functions with spans on, then one of
//                  them alternately with spans off and on for the tracing
//                  overhead, and writes the spans, counters and walls as
//                  JSON. run.py derives the
//                  per-layer metrics and self times from that file.
//
// Spans are recorded around calls into the layers, never inside src/.
// Stages with calls not much longer than a clock read (cell setup,
// classify, row render, feed) are timed in batches: one span per batch
// with the batch's item count and no clock read inside the batch, so
// tracing does not distort what it measures.
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/heatmap.hpp"
#include "analysis/phase_diagram.hpp"
#include "core/stability.hpp"
#include "engine/cell_eval.hpp"
#include "engine/csv_reader.hpp"
#include "engine/parse_util.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "service/monitor.hpp"
#include "sim/event_log.hpp"
#include "sim/typecount_sim.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"

#include "probe.hpp"

namespace {

using namespace p2p;
using namespace p2p::engine;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ spans

/// One timed call (or batch of calls) into a layer. `count` is the work
/// the span covered: calls, cells, rows, events or bytes.
struct Span {
  const char* name = "";
  Clock::time_point start, end;
  int parent = -1;  // index into the span list; -1 for a pipeline's root
  int run = 0;      // pipeline run id; spans of one pipeline share it
  std::uint64_t count = 0;
};

/// In-memory span list, written out once the run ends. Disabled, every
/// call is a no-op, which is the untraced twin the overhead is measured
/// against. Safe to record from pool workers.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 15);
  }

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  int open(const char* name, int parent) {
    if (!enabled_) return -1;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, run_, 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, std::uint64_t count) {
    if (!enabled_) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
    spans_[static_cast<std::size_t>(id)].count = count;
  }

  /// Records a span whose interval was measured by the caller.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t count) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, run_, count});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int run_ = 0;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Named integer results of a pipeline: the counts that must repeat
/// exactly at one seed, plus the inputs of derived metrics.
using Counters = std::vector<std::pair<std::string, double>>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Resident set size of this process, from /proc/self/statm.
double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  P2P_ASSERT_MSG(in.is_open(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Cells of a grid in SweepGrid's enumeration order (last axis fastest),
/// without a per-cell vector allocation.
class Odometer {
 public:
  explicit Odometer(const SweepGrid& grid)
      : grid_(&grid),
        digits_(grid.axes.size(), 0),
        values_(grid.axes.size(), 0) {
    for (std::size_t i = 0; i < values_.size(); ++i) {
      values_[i] = grid.axes[i].values[0];
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

  const std::vector<std::size_t>& digits() const { return digits_; }
  const std::vector<double>& values() const { return values_; }

 private:
  const SweepGrid* grid_;
  std::vector<std::size_t> digits_;
  std::vector<double> values_;
};

// ------------------------------------------------------- theory rendering

/// The RowRenderer calls the sweep engine makes for one theory-only grid
/// row: axis values as cached tokens, runs of pinned axes and the
/// low-cardinality cells as verbatim spans, the index and margin as
/// numbers. This is a copy of engine/sweep.cpp's GridRenderPlan and
/// render_grid_row, which the engine keeps private. run.py checks the
/// bytes written through this plan equal p2p_sweep's report for the same
/// grid, so its output cannot drift from the engine's unnoticed; its speed
/// can. A change to the engine's render path must be mirrored here before
/// report.render_ns or engine.stream_ns (which subtracts this render
/// time) say anything about it.
class TheoryRowPlan {
 public:
  TheoryRowPlan(const SweepGrid& effective, const AxisSlots& slots,
                const ReportWriter& writer)
      : renderer_(writer.format(), writer.columns()) {
    tokens_.resize(effective.axes.size());
    int max_k = 1;
    for (std::size_t i = 0; i < effective.axes.size(); ++i) {
      for (const double v : effective.axes[i].values) {
        double cell = v;
        if (i == slots.k || i == slots.flash) {
          cell = static_cast<double>(std::llround(v));
        }
        if (i == slots.k) max_k = std::max(max_k, static_cast<int>(cell));
        tokens_[i].push_back(format_number(cell));
      }
    }
    const std::size_t columns = renderer_.num_columns();
    const std::size_t verdict_column = sweep_schema_head().size();
    for (const Stability v : {Stability::kPositiveRecurrent,
                              Stability::kTransient, Stability::kBorderline}) {
      verdict_[static_cast<int>(v)] = cached(
          verdict_column, 1, [&](RowRenderer::Row& row) {
            row.text(to_string(v));
          });
    }
    for (int piece = -1; piece < max_k; ++piece) {
      critical_.push_back(cached(verdict_column + 2, 1,
                                 [&](RowRenderer::Row& row) {
                                   row.number(piece);
                                 }));
    }
    tail_ = cached(columns - 8, 8, [&](RowRenderer::Row& row) {
      row.number(0);
      for (int c = 0; c < 7; ++c) row.number(std::nan(""));
    });
    const std::size_t order[9] = {slots.lambda, slots.us,   slots.mu,
                                  slots.gamma,  slots.k,    slots.eta,
                                  slots.flash,  slots.mix,  slots.hetero};
    for (std::size_t j = 0; j < 9;) {
      if (effective.axes[order[j]].values.size() != 1) {
        segments_.push_back({order[j], 0, {}});
        ++j;
        continue;
      }
      std::size_t len = 1;
      while (j + len < 9 &&
             effective.axes[order[j + len]].values.size() == 1) {
        ++len;
      }
      segments_.push_back(
          {0, len, cached(1 + j, len, [&](RowRenderer::Row& row) {
             for (std::size_t t = 0; t < len; ++t) {
               row.preformatted_number(tokens_[order[j + t]][0]);
             }
           })});
      j += len;
    }
  }

  void render(const std::size_t* digits, const CellResult& c,
              std::string& arena) const {
    RowRenderer::Row row(renderer_, arena);
    if (c.index == 0 || c.index % 10 != 0) {
      char buf[20];
      const auto res = std::to_chars(buf, buf + sizeof(buf), c.index);
      row.preformatted_number(
          std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
    } else {
      row.number(static_cast<double>(c.index));
    }
    for (const Segment& seg : segments_) {
      if (seg.cells > 0) {
        row.cells_verbatim(seg.bytes, seg.cells);
      } else {
        row.preformatted_number(tokens_[seg.axis][digits[seg.axis]]);
      }
    }
    row.cells_verbatim(verdict_[static_cast<int>(c.theory.verdict)], 1);
    row.number(c.theory.margin);
    row.cells_verbatim(
        critical_[static_cast<std::size_t>(c.theory.critical_piece + 1)], 1);
    row.cells_verbatim(tail_, 8);
    row.end();
  }

 private:
  struct Segment {
    std::size_t axis = 0;
    std::size_t cells = 0;
    std::string bytes;
  };

  /// The bytes `emit` renders at columns [column, column + count), column
  /// prefixes included, rendered through the real Row path.
  template <typename Emit>
  std::string cached(std::size_t column, std::size_t count,
                     const Emit& emit) const {
    std::string scratch;
    RowRenderer::Row row(renderer_, scratch);
    for (std::size_t c = 0; c < column; ++c) row.number(0);
    const std::size_t mark = scratch.size();
    emit(row);
    std::string bytes = scratch.substr(mark);
    for (std::size_t c = column + count; c < renderer_.num_columns(); ++c) {
      row.number(0);
    }
    row.end();
    return bytes;
  }

  RowRenderer renderer_;
  std::vector<std::vector<std::string>> tokens_;
  std::vector<Segment> segments_;
  std::string verdict_[3];
  std::vector<std::string> critical_;
  std::string tail_;
};

SweepGrid checked_effective_grid(const std::string& spec,
                                 const SweepOptions& options) {
  const SweepGrid grid = parse_grid(spec);
  validate_caller_axes(grid);
  validate_options(options);
  SweepGrid effective = effective_grid(grid);
  validate_effective_axes(effective, options);
  return effective;
}

// --------------------------------------------------------------- pipelines

struct TheoryInputs {
  std::string grid;
  std::string report_out;  // the render stage's report file
};

/// sweep -> report, closed form only. Per batch of cells: cell setup
/// (cell_params + fill_cell, which classifies), classify() alone on the
/// same cells, row render, writer append. Then the whole grid through
/// run_sweep_stream into /dev/null at 1..4 threads, three times.
Counters run_theory(const TheoryInputs& in, Tracer& tr) {
  SweepOptions options;
  options.theory_only = true;
  options.threads = 1;
  const SweepGrid effective = checked_effective_grid(in.grid, options);
  const AxisSlots slots = resolve_axis_slots(effective);
  const std::size_t num_cells = effective.num_cells();
  const std::size_t num_axes = effective.axes.size();

  ReportWriter writer(in.report_out, ReportFormat::kCsv,
                      sweep_columns(options));
  const TheoryRowPlan plan(effective, slots, writer);

  constexpr std::size_t kBatch = 4096;
  std::vector<CellResult> cells(kBatch);
  std::vector<CellParams> params(kBatch);
  std::vector<std::size_t> digits(kBatch * num_axes);
  std::vector<ArrivalSpec> scratch;
  std::vector<ArrivalSpec> arrivals;
  std::vector<std::size_t> arrival_begin(kBatch + 1);
  std::string arena;
  std::size_t tally[3] = {};

  Odometer odo(effective);
  const int root = tr.open("theory", -1);
  for (std::size_t begin = 0; begin < num_cells; begin += kBatch) {
    const std::size_t n = std::min(kBatch, num_cells - begin);

    int span = tr.open("engine.fill_cell", root);
    for (std::size_t i = 0; i < n; ++i) {
      params[i] = cell_params(slots, odo.values(), options.scenario.policy);
      std::copy(odo.digits().begin(), odo.digits().end(),
                digits.begin() + static_cast<std::ptrdiff_t>(i * num_axes));
      fill_cell(cells[i], begin + i, params[i], options, scratch);
      odo.advance();
    }
    tr.close(span, n);

    // classify() needs its arrival streams materialized; that is cell
    // setup, so it happens outside the classify span.
    span = tr.open("bench.expand_arrivals", root);
    arrivals.clear();
    for (std::size_t i = 0; i < n; ++i) {
      arrival_begin[i] = arrivals.size();
      expand_arrivals(options.scenario, params[i], scratch);
      arrivals.insert(arrivals.end(), scratch.begin(), scratch.end());
    }
    arrival_begin[n] = arrivals.size();
    tr.close(span, n);

    span = tr.open("core.classify", root);
    for (std::size_t i = 0; i < n; ++i) {
      const CellParams& p = params[i];
      const StabilityReport report = classify(SwarmParamsView{
          p.k, p.us, p.mu, p.gamma,
          std::span<const ArrivalSpec>(arrivals.data() + arrival_begin[i],
                                       arrival_begin[i + 1] -
                                           arrival_begin[i])});
      ++tally[static_cast<int>(report.verdict)];
    }
    tr.close(span, n);

    span = tr.open("report.render", root);
    arena.clear();
    for (std::size_t i = 0; i < n; ++i) {
      plan.render(digits.data() + i * num_axes, cells[i], arena);
    }
    tr.close(span, arena.size());

    span = tr.open("report.write_rendered", root);
    writer.write_rendered(arena, n);
    tr.close(span, arena.size());
  }
  int span = tr.open("report.finish", root);
  writer.finish();
  tr.close(span, 0);
  const double report_bytes =
      static_cast<double>(std::filesystem::file_size(in.report_out));

  // The thread curve, repeated so run.py can take a median per point.
  for (int rep = 0; rep < 3; ++rep) {
    for (int threads = 1; threads <= 4; ++threads) {
      static const char* const kStreamSpans[] = {
          "engine.stream_t1", "engine.stream_t2", "engine.stream_t3",
          "engine.stream_t4"};
      SweepOptions stream_options = options;
      stream_options.threads = threads;
      ReportWriter sink("/dev/null", ReportFormat::kCsv,
                        sweep_columns(stream_options));
      span = tr.open(kStreamSpans[threads - 1], root);
      const SweepSummary summary =
          run_sweep_stream(parse_grid(in.grid), stream_options, sink);
      sink.finish();
      tr.close(span, summary.cells);
    }
  }
  tr.close(root, num_cells);
  return {{"theory.cells", static_cast<double>(num_cells)},
          {"theory.stable", static_cast<double>(tally[0])},
          {"theory.transient", static_cast<double>(tally[1])},
          {"theory.borderline", static_cast<double>(tally[2])},
          {"report.bytes", report_bytes}};
}

struct SimInputs {
  int replicas = 4;
  double horizon = 1500;
  std::uint64_t seed = 1;
  int threads = 4;
  std::string report_out;
};

/// sweep -> report, simulating, on the default region grid (an empty
/// grid spec). Every (cell, replica) item through
/// simulate_replica on the engine's ThreadPool (one span per call), each
/// cell through aggregate_samples, the rows through sweep_row into a
/// report run.py compares with p2p_sweep's. Then replica 0 of every cell
/// again on a bare TypeCountSim, timing run_until against its counters.
Counters run_sim(const SimInputs& in, Tracer& tr) {
  SweepOptions options;
  options.replicas = in.replicas;
  options.horizon = in.horizon;
  options.base_seed = in.seed;
  options.threads = in.threads;
  const SweepGrid effective = checked_effective_grid("", options);
  const AxisSlots slots = resolve_axis_slots(effective);
  const std::size_t num_cells = effective.num_cells();
  const std::size_t replicas = static_cast<std::size_t>(in.replicas);

  std::vector<CellParams> params;
  params.reserve(num_cells);
  for (Odometer odo(effective); params.size() < num_cells; odo.advance()) {
    params.push_back(cell_params(slots, odo.values(), options.scenario.policy));
    P2P_ASSERT_MSG(resolve_sim_backend(options.sim_backend, params.back()) ==
                       SimBackend::kTypeCount,
                   "sim_sweep cells must all run on the type-count backend");
  }

  const int root = tr.open("sim", -1);
  std::vector<ReplicaSample> samples(num_cells * replicas);
  {
    ThreadPool pool(in.threads);
    const int pool_span = tr.open("engine.pool", root);
    pool.parallel_for(
        samples.size(),
        [&](std::size_t item) {
          const std::size_t cell = item / replicas;
          const Clock::time_point t0 =
              tr.enabled() ? Clock::now() : Clock::time_point{};
          samples[item] = simulate_replica(
              params[cell], options,
              derive_seed(in.seed, kStreamCellSim, cell, item % replicas));
          if (tr.enabled()) {
            tr.add("sim.simulate_replica", t0, Clock::now(), pool_span, 1);
          }
        },
        ThreadPool::auto_chunk(samples.size(), in.threads));
    tr.close(pool_span, samples.size());
  }

  ReportWriter writer(in.report_out, ReportFormat::kCsv,
                      sweep_columns(options));
  std::vector<ArrivalSpec> scratch;
  CellResult result;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    fill_cell(result, cell, params[cell], options, scratch);
    Rng agg_rng(derive_seed(in.seed, kStreamCellAgg, cell, 0));
    const int span = tr.open("engine.aggregate_samples", root);
    result.sim = aggregate_samples(
        std::span<const ReplicaSample>(samples.data() + cell * replicas,
                                       replicas),
        options, agg_rng);
    tr.close(span, 1);
    writer.write_row(sweep_row(result, options));
  }
  writer.finish();

  double events = 0;
  double replica0_mismatches = 0;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    ExpandedCell expanded = expand(options.scenario, params[cell]);
    TypeCountSim sim(std::move(expanded.params),
                     TypeCountSimOptions{
                         expanded.sim.tracked_piece,
                         derive_seed(in.seed, kStreamCellSim, cell, 0)});
    const int span = tr.open("sim.typecount_run_until", root);
    sim.run_until(in.horizon);
    const SwarmCounters& c = sim.counters();
    const std::uint64_t n =
        static_cast<std::uint64_t>(c.arrivals + c.departures + c.downloads);
    tr.close(span, n);
    events += static_cast<double>(n);
    // Same seed, same law: the bare backend must retrace replica 0.
    if (static_cast<double>(sim.total_peers()) !=
        samples[cell * replicas].final_peers) {
      replica0_mismatches += 1;
    }
  }
  tr.close(root, num_cells);
  return {{"sim.cells", static_cast<double>(num_cells)},
          {"sim.replica_items", static_cast<double>(samples.size())},
          {"sim.typecount_events", events},
          {"sim.replica0_mismatches", replica0_mismatches}};
}

struct PhaseInputs {
  std::string csv;
  int threads = 4;
  std::string ppm_out;
};

/// report -> phase diagram: CsvReader alone, then the streaming ingest
/// (CsvReader + build_phase_grid), frontier, agreement and the 1 px/cell
/// PPM, with p2p_phase's defaults.
Counters run_phase(const PhaseInputs& in, Tracer& tr) {
  const int root = tr.open("phase", -1);
  std::size_t rows = 0;
  {
    const int span = tr.open("csv.next_row", root);
    CsvReader reader(in.csv);
    std::vector<std::string> cells;
    while (reader.next_row(&cells)) ++rows;
    tr.close(span, rows);
  }
  const double rss_before = rss_bytes();
  int span = tr.open("analysis.build_phase_grid", root);
  CsvReader reader(in.csv);
  const analysis::PhaseGrid grid = analysis::build_phase_grid(reader);
  tr.close(span, grid.cells.size());
  const double rss_growth = rss_bytes() - rss_before;

  span = tr.open("analysis.extract_frontier", root);
  const auto frontier = analysis::extract_frontier(grid, 1e-3, in.threads);
  std::size_t bracketed = 0;
  for (const auto& pt : frontier) bracketed += pt.bracketed ? 1 : 0;
  tr.close(span, bracketed);

  span = tr.open("analysis.verdict_agreement", root);
  const analysis::VerdictAgreement agreement =
      analysis::verdict_agreement(grid);
  tr.close(span, agreement.compared);

  analysis::RenderOptions render;
  render.cell_px = 1;
  span = tr.open("analysis.write_ppm", root);
  analysis::write_ppm(grid, frontier, render, in.ppm_out);
  tr.close(span, grid.cells.size());
  tr.close(root, rows);
  return {{"phase.rows", static_cast<double>(rows)},
          {"phase.cells", static_cast<double>(grid.cells.size())},
          {"phase.bracketed_rows", static_cast<double>(bracketed)},
          {"phase.rss_growth_bytes", rss_growth}};
}

struct MonitorInputs {
  std::string log;
  service::MonitorConfig config;
  std::string advice_out;
};

/// event log -> advisories: parse_event_line over every line, then every
/// event through StabilityMonitor::feed twice, each time into a fresh
/// monitor. The first pass reads no clock inside a batch: one
/// service.feed span per kBatch feeds, advisories and their emission
/// included. The second pass (service.feed_per_event) reads the clock
/// after every feed, so a feed that fires advisories becomes a
/// service.feed_advise span with its advisory_json_line calls as
/// service.advisory_json_line children. run.py takes the quiet feeds'
/// cost as the first pass's batch time minus the second pass's advising
/// feeds. Untraced, both passes still run, so the overhead pairs compare
/// the same work.
Counters run_monitor(const MonitorInputs& in, Tracer& tr) {
  const std::string text = read_file(in.log);
  const int root = tr.open("monitor", -1);

  std::vector<SwarmEvent> events;
  std::size_t lines = 0;
  {
    const int span = tr.open("sim.parse_event_line", root);
    std::string line;
    std::size_t pos = 0;
    const std::string header = event_log_csv_header();
    if (text.compare(0, header.size(), header) == 0) pos = header.size();
    std::size_t line_number = pos > 0 ? 1 : 0;
    while (pos < text.size()) {
      std::size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      line.assign(text, pos, end - pos);
      events.push_back(parse_event_line(line, ++line_number,
                                        in.config.num_pieces));
      pos = end + 1;
    }
    lines = events.size();
    tr.close(span, lines);
  }

  // The raw line is only echoed in error messages; the log was parsed
  // above, so the feeds pass an empty one.
  const std::string no_line;

  service::StabilityMonitor monitor(in.config);
  std::string advice;
  std::size_t advisories = 0;
  const service::AdvisorySink sink = [&](const service::Advisory& a) {
    ++advisories;
    advice += service::advisory_json_line(a);
  };
  constexpr std::size_t kBatch = 1 << 16;
  for (std::size_t begin = 0; begin < events.size(); begin += kBatch) {
    const std::size_t end = std::min(events.size(), begin + kBatch);
    const int batch = tr.open("service.feed", root);
    for (std::size_t i = begin; i < end; ++i) {
      monitor.feed(events[i], no_line, i + 1, sink);
    }
    tr.close(batch, end - begin);
  }
  const int span = tr.open("service.finish", root);
  monitor.finish(sink);
  tr.close(span, 0);

  service::StabilityMonitor timed_monitor(in.config);
  std::string timed_advice;
  std::size_t timed_advisories = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> emits;
  const service::AdvisorySink timed_sink = [&](const service::Advisory& a) {
    ++timed_advisories;
    if (!tr.enabled()) {
      timed_advice += service::advisory_json_line(a);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    const std::string json = service::advisory_json_line(a);
    emits.emplace_back(t0, Clock::now());
    timed_advice += json;
  };
  const int pass = tr.open("service.feed_per_event", root);
  Clock::time_point prev = tr.enabled() ? Clock::now() : Clock::time_point{};
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::size_t before = timed_advisories;
    timed_monitor.feed(events[i], no_line, i + 1, timed_sink);
    if (!tr.enabled()) continue;
    const Clock::time_point now = Clock::now();
    if (timed_advisories != before) {
      const int advise = tr.add("service.feed_advise", prev, now, pass,
                                timed_advisories - before);
      for (const auto& [t0, t1] : emits) {
        tr.add("service.advisory_json_line", t0, t1, advise, 1);
      }
      emits.clear();
    }
    prev = now;
  }
  timed_monitor.finish(timed_sink);
  tr.close(pass, events.size());
  P2P_ASSERT_MSG(timed_advice == advice,
                 "the two feed passes emitted different advisories");
  tr.close(root, lines);

  std::FILE* out = std::fopen(in.advice_out.c_str(), "wb");
  P2P_ASSERT_MSG(out != nullptr, "cannot open " + in.advice_out);
  P2P_ASSERT_MSG(
      std::fwrite(advice.data(), 1, advice.size(), out) == advice.size() &&
          std::fclose(out) == 0,
      "short write to " + in.advice_out);

  return {{"monitor.lines", static_cast<double>(lines)},
          {"monitor.events", static_cast<double>(monitor.events_processed())},
          {"service.advisories", static_cast<double>(advisories)},
          {"service.flips", static_cast<double>(monitor.flips())},
          {"service.advice_bytes", static_cast<double>(advice.size())}};
}

// ------------------------------------------------------------------- output

void append_json_number(std::string& out, double v) {
  out += std::isfinite(v) ? format_number(v) : std::string("null");
}

void append_counters(std::string& out, const Counters& counters) {
  out += "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_string(out, counters[i].first);
    out += ": ";
    append_json_number(out, counters[i].second);
  }
  out += "}";
}

/// theory/sim/phase/monitor, in run-id order (run id = index + 1).
constexpr const char* kPipelines[] = {"theory", "sim", "phase", "monitor"};

int mode_trace(Flags& flags) {
  TheoryInputs theory;
  theory.grid = flags.get_string("theory-grid", "", "theory_sweep grid");
  SimInputs sim;
  sim.replicas = flags.get_int("sim-replicas", 4, "sim_sweep replicas");
  sim.horizon = flags.get_double("sim-horizon", 1500, "sim_sweep horizon");
  sim.seed = static_cast<std::uint64_t>(
      flags.get_int("sim-seed", 1, "sim_sweep root seed"));
  PhaseInputs phase;
  phase.csv = flags.get_string("phase-csv", "", "phase_ingest input report");
  MonitorInputs monitor;
  monitor.log = flags.get_string("monitor-log", "", "monitor_replay log");
  monitor.config.num_pieces = flags.get_int("monitor-k", 3, "log's K");
  monitor.config.window =
      flags.get_double("monitor-window", 60, "estimation window");
  monitor.config.advice_every =
      flags.get_double("monitor-every", 1, "advisory cadence");
  const int threads = flags.get_int("threads", 4, "sim / frontier threads");
  const std::string work = flags.get_string("work", "", "output directory");
  const std::string out = flags.get_string("out", "", "trace JSON path");
  const std::string overhead = flags.get_string(
      "overhead-pipeline", "theory",
      "pipeline whose traced vs untraced wall gives the tracing overhead");
  flags.finish();
  sim.threads = threads;
  phase.threads = threads;

  const auto run_pipeline = [&](int p, Tracer& tr,
                                const std::string& suffix) {
    theory.report_out = work + "/theory" + suffix + ".csv";
    sim.report_out = work + "/sim" + suffix + ".csv";
    phase.ppm_out = work + "/phase" + suffix + ".ppm";
    monitor.advice_out = work + "/monitor" + suffix + ".jsonl";
    tr.set_run(p + 1);
    const Clock::time_point t0 = Clock::now();
    Counters c = p == 0   ? run_theory(theory, tr)
                 : p == 1 ? run_sim(sim, tr)
                 : p == 2 ? run_phase(phase, tr)
                          : run_monitor(monitor, tr);
    c.emplace_back("wall_s", seconds_between(t0, Clock::now()));
    return c;
  };

  // The traced pass every per-layer metric comes from.
  Tracer traced(true);
  std::vector<Counters> counters;
  for (int p = 0; p < 4; ++p) {
    counters.push_back(run_pipeline(p, traced, ".traced"));
  }

  // Tracing overhead of one pipeline: untraced and traced runs
  // alternately, after the pass above has warmed caches and allocator.
  const int op = static_cast<int>(
      std::find(std::begin(kPipelines), std::end(kPipelines), overhead) -
      std::begin(kPipelines));
  P2P_ASSERT_MSG(op < 4, "--overhead-pipeline must name a pipeline");
  constexpr int kOverheadPairs = 3;
  Counters untraced_counters;
  std::vector<double> walls[2];
  for (int i = 0; i < kOverheadPairs; ++i) {
    for (int k = 0; k < 2; ++k) {
      const bool trace_it = k != i % 2;
      Tracer tr(trace_it);
      Counters c = run_pipeline(op, tr, trace_it ? ".overhead" : ".untraced");
      walls[trace_it ? 1 : 0].push_back(c.back().second);
      if (!trace_it) untraced_counters = std::move(c);
    }
  }

  std::string json = "{\n  \"pipelines\": {";
  for (int p = 0; p < 4; ++p) {
    json += p > 0 ? ",\n    " : "\n    ";
    append_json_string(json, kPipelines[p]);
    json += ": {\"run\": " + std::to_string(p + 1) + ", \"traced\": ";
    append_counters(json, counters[static_cast<std::size_t>(p)]);
    json += "}";
  }
  json += "\n  },\n  \"overhead\": {\"pipeline\": ";
  append_json_string(json, overhead);
  json += ", \"untraced\": ";
  append_counters(json, untraced_counters);
  for (int t = 0; t < 2; ++t) {
    json += t == 0 ? ", \"untraced_wall_s\": [" : "], \"traced_wall_s\": [";
    for (std::size_t i = 0; i < walls[t].size(); ++i) {
      if (i > 0) json += ", ";
      append_json_number(json, walls[t][i]);
    }
  }
  json += "]},";
  json += "\n  \"spans\": [";
  const std::vector<Span>& spans = traced.spans();
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json += i > 0 ? ",\n    " : "\n    ";
    json += "{\"id\": " + std::to_string(i) + ", \"name\": ";
    append_json_string(json, s.name);
    json += ", \"start_ns\": " +
            std::to_string(std::chrono::nanoseconds(s.start - origin).count());
    json += ", \"end_ns\": " +
            std::to_string(std::chrono::nanoseconds(s.end - origin).count());
    json += ", \"parent\": " + std::to_string(s.parent);
    json += ", \"run\": " + std::to_string(s.run);
    json += ", \"count\": " + std::to_string(s.count) + "}";
  }
  json += "\n  ]\n}\n";
  write_text(out, json);
  return 0;
}

int mode_tally(Flags& flags) {
  const std::string spec = flags.get_string("grid", "", "grid to classify");
  flags.finish();
  SweepOptions options;
  options.theory_only = true;
  const SweepGrid effective = checked_effective_grid(spec, options);
  const AxisSlots slots = resolve_axis_slots(effective);
  const std::size_t num_cells = effective.num_cells();
  std::size_t tally[3] = {};
  std::vector<ArrivalSpec> arrivals;
  Odometer odo(effective);
  for (std::size_t cell = 0; cell < num_cells; ++cell, odo.advance()) {
    const CellParams p =
        cell_params(slots, odo.values(), options.scenario.policy);
    expand_arrivals(options.scenario, p, arrivals);
    ++tally[static_cast<int>(
        classify(SwarmParamsView{p.k, p.us, p.mu, p.gamma, arrivals})
            .verdict)];
  }
  std::printf(
      "{\"cells\": %zu, \"stable\": %zu, \"transient\": %zu, "
      "\"borderline\": %zu}\n",
      num_cells, tally[0], tally[1], tally[2]);
  return 0;
}

int mode_env(Flags& flags) {
  flags.finish();
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"ndebug\": %s}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              ndebug ? "true" : "false");
  return 0;
}

// Calibration probe time after each spawned child, as a share of the
// child's wall time.
constexpr double kProbeShare = 0.25;

/// Runs the calibration probe until `seconds` of wall time have passed (at
/// least once) and prints the fields `probe_checksum`,
/// `probe_checksums_agree` and `probe_cpu_s` (one entry per call) and the
/// closing brace of a JSON object.
void print_probes(double seconds) {
  std::vector<double> probe_cpu;
  double checksum = 0.0;
  bool checksums_agree = true;
  const Clock::time_point t0 = Clock::now();
  do {
    const perfbench::ProbeResult probe = perfbench::run_probe();
    if (!probe_cpu.empty() && probe.checksum != checksum) {
      checksums_agree = false;
    }
    checksum = probe.checksum;
    probe_cpu.push_back(probe.cpu_s);
  } while (seconds_between(t0, Clock::now()) < seconds);
  std::printf("\"probe_checksum\": %.17g, \"probe_checksums_agree\": %s, "
              "\"probe_cpu_s\": [",
              checksum, checksums_agree ? "true" : "false");
  for (std::size_t i = 0; i < probe_cpu.size(); ++i) {
    std::printf("%s%.9f", i ? ", " : "", probe_cpu[i]);
  }
  std::printf("]}\n");
}

int mode_probe(Flags& flags) {
  const double seconds =
      flags.get_double("seconds", 0.0, "probe for this many wall seconds");
  flags.finish();
  std::printf("{");
  print_probes(seconds);
  return 0;
}

int spawn(char** argv) {
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = fork();
  P2P_ASSERT_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    // The tools write their results to files; stdout carries only this
    // process's JSON line.
    const int null_fd = open("/dev/null", O_WRONLY);
    if (null_fd < 0 || dup2(null_fd, STDOUT_FILENO) < 0) _exit(127);
    execv(argv[0], argv);
    std::perror(argv[0]);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  P2P_ASSERT_MSG(wait4(pid, &status, 0, &usage) == pid, "wait4 failed");
  const double wall = seconds_between(t0, Clock::now());
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  std::printf("{\"wall_s\": %.9f, \"cpu_s\": %.6f, \"code\": %d, "
              "\"maxrss_kb\": %ld, ",
              wall, cpu, code, usage.ru_maxrss);
  // The probe calls after each child add up to a quarter of its wall
  // time, so over a run the probe samples the host in step with the tools.
  print_probes(kProbeShare * wall);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "spawn") return spawn(argv + 2);
  Flags flags(argc, argv);
  const std::string mode =
      flags.get_string("mode", "", "env | tally | trace | probe");
  if (mode == "env") return mode_env(flags);
  if (mode == "probe") return mode_probe(flags);
  if (mode == "tally") return mode_tally(flags);
  if (mode == "trace") return mode_trace(flags);
  std::fprintf(stderr, "perfbench_layers: --mode must be env, tally, trace "
                       "or probe\n");
  return 2;
}
