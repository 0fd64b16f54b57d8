#include "engine/report.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace p2p::engine {
namespace {

TEST(FormatNumber, FiniteValues) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(-1.5), "-1.5");
  EXPECT_EQ(format_number(0.1), "0.1");
}

TEST(FormatNumber, RoundTripsExactBitPatterns) {
  // Regression: "%.10g" truncated doubles to 10 significant digits, so
  // corpus CSVs silently lost precision (pi came back 4 ulps off). The
  // shortest-round-trip form must parse back to the identical bits.
  const double values[] = {
      0.1,
      1.0 / 3.0,
      3.141592653589793,        // needs all 16 digits
      2.718281828459045,
      1e-300,                   // subnormal-adjacent magnitudes
      6.02214076e23,
      std::nextafter(1.0, 2.0),  // 1 + 1 ulp
      std::nextafter(0.0, 1.0),  // smallest subnormal
      -0.0,
      123456789.123456789,
  };
  for (const double v : values) {
    const std::string s = format_number(v);
    char* end = nullptr;
    const double parsed = std::strtod(s.c_str(), &end);
    ASSERT_EQ(end, s.c_str() + s.size()) << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(v))
        << "'" << s << "' does not round-trip";
  }
}

TEST(FormatNumber, NonFiniteValues) {
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_number(std::nan("")), "nan");
}

TEST(Table, CsvRoundTrip) {
  Table table({"a", "b", "verdict"});
  table.add_row({"1", "2.5", "stable"});
  table.add_row({"2", "inf", "transient"});
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.to_csv(),
            "a,b,verdict\n"
            "1,2.5,stable\n"
            "2,inf,transient\n");
}

TEST(Table, CsvQuotesSpecialCells) {
  Table table({"name"});
  table.add_row({"a,b"});
  table.add_row({"say \"hi\""});
  EXPECT_EQ(table.to_csv(),
            "name\n"
            "\"a,b\"\n"
            "\"say \"\"hi\"\"\"\n");
}

TEST(Table, JsonNumbersUnquotedTextQuotedNonFiniteNull) {
  Table table({"x", "verdict", "extra"});
  table.add_row({"1.5", "stable", "nan"});
  EXPECT_EQ(table.to_json(),
            "[\n"
            "  {\"x\": 1.5, \"verdict\": \"stable\", \"extra\": null}\n"
            "]\n");
}

TEST(Table, JsonSeparatesRowsWithCommas) {
  Table table({"i"});
  table.add_row({"1"});
  table.add_row({"2"});
  EXPECT_EQ(table.to_json(),
            "[\n"
            "  {\"i\": 1},\n"
            "  {\"i\": 2}\n"
            "]\n");
}

TEST(Table, JsonQuotesNonJsonNumberSpellings) {
  // strtod would accept all of these, but JSON parsers reject them
  // unquoted; the emitter must quote anything off the JSON grammar.
  Table table({"a", "b", "c", "d"});
  table.add_row({"+5", "0x1F", " 12", "01"});
  table.add_row({"-0.5", "1e-3", "2E+4", "0"});
  EXPECT_EQ(table.to_json(),
            "[\n"
            "  {\"a\": \"+5\", \"b\": \"0x1F\", \"c\": \" 12\", "
            "\"d\": \"01\"},\n"
            "  {\"a\": -0.5, \"b\": 1e-3, \"c\": 2E+4, \"d\": 0}\n"
            "]\n");
}

TEST(TableDeath, RowArityMismatchAborts) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only-one"}), "arity");
}

TEST(TableDeath, EmptyColumnListAborts) {
  EXPECT_DEATH(Table({}), "at least one column");
}

// --- ReportWriter: the streaming emitter must be byte-for-byte the old
// in-memory one. Archived corpora and the CI determinism diffs depend on
// the bytes, not just the parsed content.

/// Streams `rows` through a string-backed writer and also renders them
/// through Table, asserting the bytes agree; returns the bytes.
std::string stream_and_check(const std::vector<std::string>& columns,
                             const std::vector<std::vector<std::string>>& rows,
                             ReportFormat format) {
  std::string streamed;
  ReportWriter writer(&streamed, format, columns);
  Table table(columns);
  for (const auto& row : rows) {
    writer.write_row(row);
    table.add_row(row);
  }
  writer.finish();
  EXPECT_EQ(streamed,
            format == ReportFormat::kCsv ? table.to_csv() : table.to_json());
  return streamed;
}

TEST(ReportWriter, CsvBytesEqualTable) {
  const std::string csv = stream_and_check(
      {"a", "b", "verdict"},
      {{"1", "2.5", "stable"}, {"2", "inf", "transient"}},
      ReportFormat::kCsv);
  EXPECT_EQ(csv,
            "a,b,verdict\n"
            "1,2.5,stable\n"
            "2,inf,transient\n");
}

TEST(ReportWriter, CsvQuotingMatchesTable) {
  stream_and_check({"name"}, {{"a,b"}, {"say \"hi\""}, {"line\nbreak"}},
                   ReportFormat::kCsv);
}

TEST(ReportWriter, JsonBytesEqualTable) {
  // The row terminator depends on whether a successor exists — the
  // streaming writer cannot know until finish(), so this pins the
  // hold-back logic against Table's renderer.
  const std::string json = stream_and_check(
      {"i", "x"}, {{"1", "nan"}, {"2", "0.5"}, {"3", "text"}},
      ReportFormat::kJson);
  EXPECT_EQ(json,
            "[\n"
            "  {\"i\": 1, \"x\": null},\n"
            "  {\"i\": 2, \"x\": 0.5},\n"
            "  {\"i\": 3, \"x\": \"text\"}\n"
            "]\n");
}

TEST(ReportWriter, EmptyTableMatchesInBothFormats) {
  EXPECT_EQ(stream_and_check({"a"}, {}, ReportFormat::kCsv), "a\n");
  EXPECT_EQ(stream_and_check({"a"}, {}, ReportFormat::kJson), "[\n]\n");
}

TEST(ReportWriter, SingleRowJsonHasNoTrailingComma) {
  EXPECT_EQ(stream_and_check({"i"}, {{"7"}}, ReportFormat::kJson),
            "[\n"
            "  {\"i\": 7}\n"
            "]\n");
}

/// Reads the whole file at `path` and removes it.
std::string slurp_and_remove(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  std::string bytes;
  if (file == nullptr) return bytes;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, got);
  }
  std::fclose(file);
  std::remove(path.c_str());
  return bytes;
}

TEST(ReportWriter, ManyRowsCrossTheFlushBoundaryToAFile) {
  // Push well past the 64 KiB stdio flush threshold so the buffered file
  // path (partial flushes + final fclose) is exercised, then compare the
  // on-disk bytes against the in-memory render.
  const std::string path = ::testing::TempDir() + "report_writer_flush.csv";
  const std::vector<std::string> columns = {"i", "payload"};
  Table table(columns);
  {
    ReportWriter writer(path, ReportFormat::kCsv, columns);
    for (int i = 0; i < 4000; ++i) {
      const std::vector<std::string> row = {std::to_string(i),
                                            std::string(40, 'x')};
      writer.write_row(row);
      table.add_row(row);
    }
    writer.finish();
  }
  const std::string bytes = slurp_and_remove(path);
  EXPECT_GT(bytes.size(), std::size_t{1} << 16);
  EXPECT_EQ(bytes, table.to_csv());
}

TEST(ReportWriter, RepeatedFlusherHandOffsToANamedFile) {
  // The flusher thread opens the file lazily, so the producer must not
  // read file_ while it runs; TSan sees a violation only on a hand-off
  // after that open. Push several 64 KiB buffers through both append
  // paths (write_row and write_rendered) in JSON, whose row separators
  // also cross the buffer boundaries.
  const std::string path = ::testing::TempDir() + "report_writer_handoff.json";
  const std::vector<std::string> columns = {"i", "payload"};
  const RowRenderer renderer(ReportFormat::kJson, columns);
  Table table(columns);
  {
    ReportWriter writer(path, ReportFormat::kJson, columns);
    std::string arena;
    for (int i = 0; i < 6000; ++i) {
      const std::vector<std::string> row = {std::to_string(i),
                                            std::string(50, 'y')};
      table.add_row(row);
      if (i % 2 == 0) {
        writer.write_row(row);
        continue;
      }
      arena.clear();
      RowRenderer::Row rendered(renderer, arena);
      rendered.number(i);
      rendered.text(row[1]);
      rendered.end();
      writer.write_rendered(arena, 1);
    }
    writer.finish();
  }
  const std::string bytes = slurp_and_remove(path);
  EXPECT_GT(bytes.size(), std::size_t{4} << 16);
  EXPECT_EQ(bytes, table.to_json());
}

TEST(ReportWriter, RowsWrittenCountsRows) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"a"});
  EXPECT_EQ(writer.rows_written(), 0u);
  writer.write_row({"1"});
  writer.write_row({"2"});
  EXPECT_EQ(writer.rows_written(), 2u);
  writer.finish();
}

TEST(ReportWriterDeath, ArityMismatchAborts) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"a", "b"});
  EXPECT_DEATH(writer.write_row({"only-one"}), "arity");
  writer.finish();
}

TEST(ReportWriterDeath, WriteAfterFinishAborts) {
  std::string out;
  ReportWriter writer(&out, ReportFormat::kCsv, {"a"});
  writer.finish();
  EXPECT_DEATH(writer.write_row({"1"}), "finish");
}

TEST(ReportWriterDeath, UnopenablePathAbortsAtFirstFlush) {
  // The file opens lazily (so validation aborts upstream never truncate
  // a good file); a bad path therefore surfaces at the first flush —
  // here, finish() — not at construction.
  EXPECT_DEATH(
      {
        ReportWriter writer("/nonexistent-dir/report.csv",
                            ReportFormat::kCsv, {"a"});
        writer.finish();
      },
      "cannot open report output file \"/nonexistent-dir/report\\.csv\"");
}

TEST(WriteTextDeath, UnopenablePathIsNamedInTheAbort) {
  // The adaptive --summary digest goes through write_text: an abort that
  // does not name the path leaves the user guessing which output failed.
  EXPECT_DEATH(write_text("/nonexistent-dir/summary.json", "{}\n"),
               "cannot open report output file "
               "\"/nonexistent-dir/summary\\.json\"");
}

TEST(ReportWriter, AbortingProducerLeavesExistingFileUntouched) {
  // Regression: grid mode constructs the writer before the sweep runs;
  // if the sweep aborts in validation, a previously archived file named
  // by --out must survive. The old write-after-success path guaranteed
  // this; lazy opening preserves it.
  const std::string path = ::testing::TempDir() + "report_preserved.csv";
  write_text(path, "precious archived bytes\n");
  {
    ReportWriter writer(path, ReportFormat::kCsv, {"a"});
    // Writer destroyed without rows mid-"abort"… except a destructor
    // auto-finish would still flush the header. Simulate the abort path
    // precisely: P2P_ASSERT calls std::abort, which runs no destructors,
    // so the writer is simply never finished in-process. Here we can
    // only approximate by checking the file before finish().
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char buffer[64] = {};
    const std::size_t got = std::fread(buffer, 1, sizeof(buffer), file);
    std::fclose(file);
    EXPECT_EQ(std::string(buffer, got), "precious archived bytes\n");
    writer.finish();
  }
  std::remove(path.c_str());
}

// --- RowRenderer: the worker-side serializer behind the streaming
// pipeline. Arenas it fills are handed to write_rendered verbatim, so
// its bytes must equal what write_row would have produced cell for
// cell — in both formats, for every cell kind.

/// Renders `rows` into one arena through render_text_row, hands the
/// arena to write_rendered, and asserts the writer output equals the
/// same rows pushed through write_row one at a time.
void render_and_check(const std::vector<std::string>& columns,
                      const std::vector<std::vector<std::string>>& rows,
                      ReportFormat format) {
  std::string via_rows;
  ReportWriter row_writer(&via_rows, format, columns);
  for (const auto& cells : rows) row_writer.write_row(cells);
  row_writer.finish();

  RowRenderer renderer(format, columns);
  std::string arena;
  for (const auto& cells : rows) renderer.render_text_row(cells, arena);
  std::string via_arena;
  ReportWriter arena_writer(&via_arena, format, columns);
  arena_writer.write_rendered(arena, rows.size());
  arena_writer.finish();
  EXPECT_EQ(via_arena, via_rows);
}

TEST(RowRenderer, BytesEqualWriteRowInBothFormats) {
  const std::vector<std::string> columns = {"i", "x", "note"};
  const std::vector<std::vector<std::string>> rows = {
      {"1", "2.5", "stable"},
      {"2", "inf", "has,comma"},
      {"3", "nan", "say \"hi\""},
      {"4", "-inf", ""},
      {"5", "0.1", "line\nbreak"},
  };
  render_and_check(columns, rows, ReportFormat::kCsv);
  render_and_check(columns, rows, ReportFormat::kJson);
}

TEST(RowRenderer, NumberPathsAgreeWithText) {
  // number(v), preformatted_number(format_number(v)) and
  // text(format_number(v)) must be three spellings of the same bytes —
  // including the JSON null mapping for non-finite values.
  const double values[] = {0.0, -1.5, 1.0 / 3.0, 1e-300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::nan("")};
  for (const ReportFormat format :
       {ReportFormat::kCsv, ReportFormat::kJson}) {
    RowRenderer renderer(format, {"v"});
    for (const double v : values) {
      std::string a, b, c;
      RowRenderer::Row ra(renderer, a);
      ra.number(v);
      ra.end();
      RowRenderer::Row rb(renderer, b);
      rb.preformatted_number(format_number(v));
      rb.end();
      RowRenderer::Row rc(renderer, c);
      rc.text(format_number(v));
      rc.end();
      EXPECT_EQ(a, b) << format_number(v);
      EXPECT_EQ(a, c) << format_number(v);
    }
  }
}

TEST(RowRenderer, CellsVerbatimSplicesCachedSpans) {
  // Cache the byte span of columns [1, 3) once, then build a row from
  // index + cached middle + tail; the row must equal one rendered cell
  // by cell. This is the constant-axis-run fast path in miniature.
  for (const ReportFormat format :
       {ReportFormat::kCsv, ReportFormat::kJson}) {
    RowRenderer renderer(format, {"i", "a", "b", "t"});
    std::string whole;
    RowRenderer::Row all(renderer, whole);
    all.number(7);
    all.number(1.5);
    all.number(2.5);
    all.number(9);
    all.end();

    std::string scratch;
    RowRenderer::Row probe(renderer, scratch);
    probe.number(7);
    const std::size_t mark = scratch.size();
    probe.number(1.5);
    probe.number(2.5);
    const std::string cached = scratch.substr(mark);
    probe.number(9);
    probe.end();

    std::string spliced;
    RowRenderer::Row row(renderer, spliced);
    row.number(7);
    row.cells_verbatim(cached, 2);
    row.number(9);
    row.end();
    EXPECT_EQ(spliced, whole);
  }
}

TEST(RowRendererDeath, WrongArityAborts) {
  RowRenderer renderer(ReportFormat::kCsv, {"a", "b"});
  EXPECT_DEATH(
      {
        std::string arena;
        RowRenderer::Row row(renderer, arena);
        row.number(1);
        row.end();  // one cell short
      },
      "arity");
  EXPECT_DEATH(
      {
        std::string arena;
        RowRenderer::Row row(renderer, arena);
        row.number(1);
        row.number(2);
        row.number(3);  // one cell over
      },
      "arity");
  EXPECT_DEATH(
      {
        std::string arena;
        RowRenderer::Row row(renderer, arena);
        row.cells_verbatim("x,y,z", 3);  // 3 cells into a 2-column row
      },
      "arity");
}

}  // namespace
}  // namespace p2p::engine
