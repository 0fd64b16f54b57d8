#include "engine/csv_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

#include "engine/parse_util.hpp"
#include "engine/refine.hpp"
#include "util/assert.hpp"
#include "util/decimal.hpp"

namespace p2p::engine {

bool try_parse_report_number(std::string_view cell, double* out) {
  if (cell == "nan") {
    *out = std::numeric_limits<double>::quiet_NaN();
  } else if (cell == "inf") {
    *out = std::numeric_limits<double>::infinity();
  } else if (cell == "-inf") {
    *out = -std::numeric_limits<double>::infinity();
  } else {
    // The plain-decimal grammar is exactly what format_number emits for
    // finite values; from_chars alone would also take "inf"/"nan"
    // aliases and ".5".
    const std::optional<double> v = parse_plain_decimal(cell);
    if (!v) return false;
    *out = *v;
  }
  return true;
}

double parse_report_number(std::string_view cell,
                           const std::string& context) {
  double v = 0;
  P2P_ASSERT_MSG(try_parse_report_number(cell, &v),
                 "expected a report number (format_number dialect), got \"" +
                     std::string(cell) + "\" in " + context);
  return v;
}

namespace {

/// At most this many bytes of an offending line are echoed in aborts —
/// enough to identify the row, without dumping a megabyte cell.
constexpr std::size_t kErrorPreview = 200;

std::string preview_of(std::string_view text) {
  const std::size_t line_end = std::min(text.find('\n'), text.size());
  std::string out(text.substr(0, std::min(line_end, kErrorPreview)));
  if (line_end > kErrorPreview) out += "...";
  return out;
}

/// Read chunk size: matches the writer's flush threshold.
constexpr std::size_t kReadChunk = 1 << 16;

/// Offset of the '\n' ending the record that starts at bytes[0], with
/// RFC-4180 quoting: a '"' opens a quoted cell only at a cell boundary,
/// and a '\n' inside one is data. A bare quote mid-cell is data to the
/// scanner and a loud parse error in the splitter, never a silent
/// swallow-the-rest-of-the-file state. npos when `bytes` ends first;
/// the caller then refills and rescans the record from its start, so a
/// quote pair split by the buffer end is never misread.
std::size_t quoted_record_end(std::string_view bytes) {
  bool quoted = false;
  bool cell_start = true;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const char c = bytes[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < bytes.size() && bytes[i + 1] == '"') {
          ++i;  // doubled quote: stay inside the cell
        } else {
          quoted = false;
        }
      }
    } else if (c == '"' && cell_start) {
      quoted = true;
      cell_start = false;
    } else if (c == ',') {
      cell_start = true;
    } else if (c == '\n') {
      return i;
    } else {
      cell_start = false;
    }
  }
  return std::string_view::npos;
}

}  // namespace

CsvReader::CsvReader(const std::string& path) {
  if (path.empty() || path == "-") {
    source_ = "<stdin>";
    file_ = stdin;
  } else {
    source_ = path;
    file_ = std::fopen(path.c_str(), "rb");
    P2P_ASSERT_MSG(file_ != nullptr,
                   "cannot open report input file \"" + path + "\"");
    owns_file_ = true;
  }
  std::vector<std::string> header;
  P2P_ASSERT_MSG(next_row(&header),
                 "report CSV \"" + source_ + "\" is empty (no header line)");
  columns_ = std::move(header);
  rows_ = 0;  // the header is not a data row
}

CsvReader CsvReader::from_text(std::string text) {
  CsvReader reader;
  reader.source_ = "<string>";
  reader.exhausted_ = true;
  reader.buffer_ = std::move(text);
  std::vector<std::string> header;
  P2P_ASSERT_MSG(reader.next_row(&header),
                 "report CSV <string> is empty (no header line)");
  reader.columns_ = std::move(header);
  reader.rows_ = 0;
  return reader;
}

CsvReader::CsvReader(CsvReader&& other) noexcept
    : source_(std::move(other.source_)),
      file_(other.file_),
      owns_file_(other.owns_file_),
      exhausted_(other.exhausted_),
      buffer_(std::move(other.buffer_)),
      pos_(other.pos_),
      line_(other.line_),
      columns_(std::move(other.columns_)),
      rows_(other.rows_) {
  other.file_ = nullptr;
  other.owns_file_ = false;
}

CsvReader::~CsvReader() {
  if (owns_file_ && file_ != nullptr) std::fclose(file_);
}

void CsvReader::fail(const std::string& what) const {
  P2P_ASSERT_MSG(false,
                 what + " (" + source_ + " line " + std::to_string(line_) +
                     ": \"" +
                     preview_of(std::string_view(buffer_).substr(pos_)) +
                     "\")");
  std::abort();  // unreachable
}

void CsvReader::refill() {
  if (exhausted_) return;
  // Compact the consumed prefix once per refill (not per row): rows are
  // erased by bumping pos_, so a million-row file costs one memmove per
  // 64 KiB chunk instead of one per record. This is the step that moves
  // the bytes under a previous row's views.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t kept = buffer_.size();
  buffer_.resize(kept + kReadChunk);
  const std::size_t got =
      std::fread(buffer_.data() + kept, 1, kReadChunk, file_);
  buffer_.resize(kept + got);
  if (got < kReadChunk) {
    P2P_ASSERT_MSG(std::ferror(file_) == 0,
                   "read error on report input file \"" + source_ + "\"");
    exhausted_ = true;
  }
}

std::size_t CsvReader::find_record_end(bool* has_quote) {
  // [pos_, pos_ + clean) is known to hold neither '\n' nor '"', so a
  // record longer than one chunk is not rescanned after each refill.
  std::size_t clean = 0;
  while (true) {
    const std::string_view rest = std::string_view(buffer_).substr(pos_);
    // Fast path: a record without a '"' ends at its first '\n' — two
    // memchr scans, no state machine.
    const char* nl = static_cast<const char*>(
        std::memchr(rest.data() + clean, '\n', rest.size() - clean));
    const std::size_t len =
        nl != nullptr ? static_cast<std::size_t>(nl - rest.data())
                      : rest.size();
    *has_quote =
        std::memchr(rest.data() + clean, '"', len - clean) != nullptr;
    if (!*has_quote) {
      if (nl != nullptr) return pos_ + len;
      clean = rest.size();
    } else {
      // Quoted cells may span newlines (and chunk boundaries): rescan
      // the record from its start with the quote state machine.
      const std::size_t end = quoted_record_end(rest);
      if (end != std::string_view::npos) return pos_ + end;
    }
    if (exhausted_) {
      if (rest.empty()) return std::string::npos;  // clean end of file
      // Bytes with no terminating newline: the writer '\n'-terminates
      // every row, so the file was cut mid-record (or a quote never
      // closed).
      fail("truncated report CSV: final record has no terminating "
           "newline (or an unterminated quoted cell)");
    }
    refill();
  }
}

void CsvReader::split_quoted(std::string_view record,
                             std::vector<std::string_view>* cells) {
  // Unescaped text is never longer than the record, so reserving that
  // much keeps scratch_ from reallocating under the views already taken.
  scratch_.clear();
  scratch_.reserve(record.size());
  std::size_t i = 0;
  while (true) {
    if (i < record.size() && record[i] == '"') {
      const std::size_t start = scratch_.size();
      ++i;
      while (true) {
        if (i >= record.size()) {
          // The closing quote can only be missing here if the record
          // terminator itself sat inside the quotes — record scanning
          // would have skipped it — so this is a stray state.
          fail("unterminated quoted cell in report CSV");
        }
        if (record[i] == '"') {
          if (i + 1 < record.size() && record[i + 1] == '"') {
            scratch_ += '"';
            i += 2;
          } else {
            ++i;
            break;
          }
        } else {
          scratch_ += record[i++];
        }
      }
      if (i < record.size() && record[i] != ',') {
        fail("malformed quoting in report CSV: a quoted cell must be "
             "followed by a comma or the end of the record");
      }
      cells->push_back(
          std::string_view(scratch_).substr(start, scratch_.size() - start));
    } else {
      const std::size_t start = i;
      while (i < record.size() && record[i] != ',') {
        if (record[i] == '"') {
          fail("malformed quoting in report CSV: bare '\"' inside an "
               "unquoted cell");
        }
        ++i;
      }
      cells->push_back(record.substr(start, i - start));
    }
    if (i >= record.size()) break;
    ++i;  // skip ','
  }
}

bool CsvReader::next_row_views(std::vector<std::string_view>* cells) {
  bool has_quote = false;
  const std::size_t end = find_record_end(&has_quote);
  if (end == std::string::npos) return false;

  // Split the record [pos_, end) into cells, enforcing the writer's
  // quoting discipline. A record without a '"' is plain comma-separated
  // views of the buffer.
  cells->clear();
  const std::string_view record(buffer_.data() + pos_, end - pos_);
  if (has_quote) {
    split_quoted(record, cells);
  } else {
    std::size_t start = 0;
    for (std::size_t i = 0; i < record.size(); ++i) {
      if (record[i] == ',') {
        cells->push_back(record.substr(start, i - start));
        start = i + 1;
      }
    }
    cells->push_back(record.substr(start));
  }

  if (!columns_.empty() && cells->size() != columns_.size()) {
    fail("report CSV row has " + std::to_string(cells->size()) +
         " cells, expected " + std::to_string(columns_.size()));
  }

  // Consume the record and its terminator by advancing pos_ (the
  // buffer compacts at the next refill); line numbers advance by the
  // newlines inside quoted cells too.
  line_ += 1 + (has_quote ? static_cast<std::size_t>(std::count(
                                record.begin(), record.end(), '\n'))
                          : 0);
  pos_ = end + 1;
  ++rows_;
  return true;
}

bool CsvReader::next_row(std::vector<std::string>* cells) {
  if (!next_row_views(&views_)) return false;
  cells->resize(views_.size());
  for (std::size_t i = 0; i < views_.size(); ++i) {
    (*cells)[i].assign(views_[i]);
  }
  return true;
}

Table read_csv(std::string text) {
  CsvReader reader = CsvReader::from_text(std::move(text));
  Table table(reader.columns());
  std::vector<std::string> cells;
  while (reader.next_row(&cells)) table.add_row(cells);
  return table;
}

Table read_csv_file(const std::string& path) {
  CsvReader reader(path);
  Table table(reader.columns());
  std::vector<std::string> cells;
  while (reader.next_row(&cells)) table.add_row(cells);
  return table;
}

// --- JSON ---

namespace {

/// Recursive-descent cursor over one JSON document. Shared by
/// validate_json (grammar only) and read_json (report arrays): one
/// tokenizer, so the two cannot disagree about what well-formed means.
class JsonCursor {
 public:
  JsonCursor(const std::string& text, std::string context)
      : text_(text), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& what) const {
    P2P_ASSERT_MSG(false, what + " in " + context_ + " at byte " +
                              std::to_string(pos_) + " (\"" +
                              preview_of(std::string_view(text_).substr(
                                  pos_, kErrorPreview)) +
                              "\")");
    std::abort();  // unreachable
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const {
    if (at_end()) fail("unexpected end of JSON document");
    return text_[pos_];
  }

  void expect(char c) {
    if (at_end() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void expect_literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      fail("malformed JSON literal (expected \"" + std::string(word) + "\")");
    }
    pos_ += word.size();
  }

  /// Parses a JSON string, returning the unescaped contents. \uXXXX
  /// decodes to UTF-8 for the basic plane (the writer emits \u00xx for
  /// raw control characters); surrogate pairs abort — the emitter
  /// never splits astral characters, it passes their UTF-8 through.
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in JSON string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated JSON escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int h = 0; h < 4; ++h) {
            if (at_end()) fail("malformed \\u escape");
            const char d = text_[pos_++];
            code <<= 4;
            if (d >= '0' && d <= '9') {
              code |= static_cast<unsigned>(d - '0');
            } else if (d >= 'a' && d <= 'f') {
              code |= static_cast<unsigned>(d - 'a' + 10);
            } else if (d >= 'A' && d <= 'F') {
              code |= static_cast<unsigned>(d - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not part of the report JSON "
                 "dialect");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid JSON escape");
      }
    }
  }

  /// Validates a string's syntax only (allows \uXXXX).
  void skip_string() {
    expect('"');
    while (true) {
      if (at_end()) fail("unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in JSON string");
      }
      if (c != '\\') continue;
      if (at_end()) fail("unterminated JSON escape");
      const char e = text_[pos_++];
      if (e == 'u') {
        for (int h = 0; h < 4; ++h) {
          if (at_end() || !std::isxdigit(
                              static_cast<unsigned char>(text_[pos_]))) {
            fail("malformed \\u escape");
          }
          ++pos_;
        }
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                 e != 'n' && e != 'r' && e != 't') {
        fail("invalid JSON escape");
      }
    }
  }

  /// Parses a JSON number (strict grammar) and returns its literal
  /// spelling, so report cells re-emit byte-identically.
  std::string parse_number_token() {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == first) fail("malformed JSON number");
    };
    if (!at_end() && text_[pos_] == '-') ++pos_;
    if (!at_end() && text_[pos_] == '0') {
      ++pos_;  // a leading zero must stand alone
    } else {
      digits();
    }
    if (!at_end() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      digits();
    }
    return text_.substr(start, pos_ - start);
  }

  /// Validates one value of any type. `depth` caps nesting so a hostile
  /// document cannot overflow the stack.
  void skip_value(int depth) {
    if (depth > kMaxDepth) fail("JSON nesting exceeds the depth budget");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return;
      }
      while (true) {
        skip_ws();
        skip_string();
        skip_ws();
        expect(':');
        skip_value(depth + 1);
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return;
      }
    } else if (c == '[') {
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return;
      }
      while (true) {
        skip_value(depth + 1);
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return;
      }
    } else if (c == '"') {
      skip_string();
    } else if (c == 't') {
      expect_literal("true");
    } else if (c == 'f') {
      expect_literal("false");
    } else if (c == 'n') {
      expect_literal("null");
    } else {
      parse_number_token();
    }
  }

  static constexpr int kMaxDepth = 256;

 private:
  const std::string& text_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace

void validate_json(const std::string& text, const std::string& context) {
  JsonCursor cursor(text, context);
  cursor.skip_value(0);
  cursor.skip_ws();
  if (!cursor.at_end()) {
    cursor.fail("trailing bytes after the JSON document");
  }
}

Table read_json(const std::string& text) {
  JsonCursor cursor(text, "report JSON");
  cursor.skip_ws();
  cursor.expect('[');
  cursor.skip_ws();
  if (!cursor.at_end() && cursor.peek() == ']') {
    cursor.fail("empty report JSON carries no header to recover a schema "
                "from; archive at least the columns (CSV always has them)");
  }

  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  while (true) {
    cursor.skip_ws();
    cursor.expect('{');
    std::vector<std::string> keys;
    std::vector<std::string> cells;
    cursor.skip_ws();
    if (cursor.peek() != '}') {
      while (true) {
        cursor.skip_ws();
        keys.push_back(cursor.parse_string());
        cursor.skip_ws();
        cursor.expect(':');
        cursor.skip_ws();
        const char c = cursor.peek();
        if (c == '"') {
          cells.push_back(cursor.parse_string());
        } else if (c == 'n') {
          cursor.expect_literal("null");
          // The emitter maps every non-finite cell to null; nan is the
          // only spelling that maps back without inventing a sign.
          cells.push_back("nan");
        } else if (c == '{' || c == '[' || c == 't' || c == 'f') {
          cursor.fail("report cells must be numbers, strings or null");
        } else {
          cells.push_back(cursor.parse_number_token());
        }
        cursor.skip_ws();
        if (cursor.peek() == ',') {
          cursor.expect(',');
          continue;
        }
        break;
      }
    }
    cursor.expect('}');

    if (columns.empty()) {
      if (keys.empty()) {
        cursor.fail("report JSON rows need at least one column");
      }
      columns = keys;
    } else if (keys != columns) {
      cursor.fail("report JSON row keys do not match the first row's "
                  "columns (same names, same order, same count)");
    }
    rows.push_back(std::move(cells));

    cursor.skip_ws();
    if (cursor.peek() == ',') {
      cursor.expect(',');
      continue;
    }
    cursor.expect(']');
    break;
  }
  cursor.skip_ws();
  if (!cursor.at_end()) {
    cursor.fail("trailing bytes after the report JSON array");
  }

  Table table(std::move(columns));
  for (auto& row : rows) table.add_row(std::move(row));
  return table;
}

namespace {

std::string slurp(const std::string& path) {
  std::FILE* file = stdin;
  const bool named = !(path.empty() || path == "-");
  if (named) {
    file = std::fopen(path.c_str(), "rb");
    P2P_ASSERT_MSG(file != nullptr,
                   "cannot open report input file \"" + path + "\"");
  }
  std::string text;
  char chunk[kReadChunk];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, got);
  }
  const bool read_error = std::ferror(file) != 0;
  if (named) std::fclose(file);
  P2P_ASSERT_MSG(!read_error, "read error on report input file \"" +
                                  (named ? path : "<stdin>") + "\"");
  return text;
}

}  // namespace

Table read_json_file(const std::string& path) { return read_json(slurp(path)); }

bool report_is_json(const std::string& path) {
  const auto ws = [](int c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  if (path.empty() || path == "-") {
    // Pipes cannot seek: probe byte by byte and push the deciding one
    // back (ungetc guarantees exactly one byte). The skipped leading
    // whitespace is not part of either dialect.
    int c = 0;
    while ((c = std::fgetc(stdin)) != EOF) {
      if (ws(c)) continue;
      std::ungetc(c, stdin);
      return c == '[';
    }
    return false;  // empty stdin: let the CSV reader's abort name it
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;  // the real reader reports the error
  bool json = false;
  int c = 0;
  while ((c = std::fgetc(file)) != EOF) {
    if (ws(c)) continue;
    json = c == '[';
    break;
  }
  std::fclose(file);
  return json;
}

// --- Report schema validation ---

PieceSet parse_mix_column_type(const std::string& column) {
  const std::string_view prefix = kLambdaTypePrefix;
  P2P_ASSERT_MSG(column.size() > prefix.size() &&
                     column.compare(0, prefix.size(), prefix) == 0,
                 "not a per-type arrival-rate column (expected \"" +
                     std::string(prefix) + "<pieces>\", got \"" + column +
                     "\")");
  PieceSet type;
  long prev = 0;
  for (const std::string& token :
       split_list(column.substr(prefix.size()), '.')) {
    // All-digit tokens only: strtol's leniency ("+1", " 1") is not part
    // of the column-name dialect mix_column_name emits.
    bool digits_only = !token.empty();
    for (const char c : token) digits_only = digits_only && c >= '0' && c <= '9';
    const long piece = digits_only ? std::strtol(token.c_str(), nullptr, 10) : 0;
    P2P_ASSERT_MSG(digits_only && piece > prev && piece <= kMaxPieces,
                   "malformed per-type column \"" + column +
                       "\": piece indices must be strictly increasing "
                       "one-based integers in [1, 64]");
    type = type.with(static_cast<int>(piece) - 1);
    prev = piece;
  }
  return type;
}

ReportSchema validate_report_schema(const std::vector<std::string>& columns) {
  P2P_ASSERT_MSG(!columns.empty(),
                 "a report header needs at least one column");

  ReportSchema schema;
  std::span<const char* const> head, tail;
  if (columns[0] == sweep_schema_head()[0]) {
    schema.kind = ReportKind::kGrid;
    head = sweep_schema_head();
    tail = sweep_schema_tail();
  } else if (columns[0] == frontier_schema_head()[0]) {
    schema.kind = ReportKind::kFrontier;
    head = frontier_schema_head();
    tail = frontier_schema_tail();
  } else {
    P2P_ASSERT_MSG(false, "not a sweep report header (expected the first "
                          "column to be \"cell\" or \"row\", got \"" +
                              columns[0] + "\")");
  }

  const auto expect = [&](std::size_t i, const char* want) {
    P2P_ASSERT_MSG(
        i < columns.size() && columns[i] == want,
        "report header mismatch at column " + std::to_string(i) +
            ": expected \"" + want + "\", got " +
            (i < columns.size() ? "\"" + columns[i] + "\""
                                : std::string("the end of the header")));
  };

  std::size_t i = 0;
  for (const char* c : head) expect(i++, c);
  if (i < columns.size() && columns[i] == kLambdaEmptyColumn) {
    schema.has_scenario = true;
    ++i;
    while (i < columns.size() &&
           columns[i].compare(0, std::string_view(kLambdaTypePrefix).size(),
                              kLambdaTypePrefix) == 0) {
      schema.mix_types.push_back(parse_mix_column_type(columns[i]));
      ++i;
    }
    P2P_ASSERT_MSG(!schema.mix_types.empty(),
                   "per-type block has \"lambda_empty\" but no \"lambda_t\" "
                   "columns");
    for (std::size_t a = 0; a < schema.mix_types.size(); ++a) {
      for (std::size_t b = a + 1; b < schema.mix_types.size(); ++b) {
        P2P_ASSERT_MSG(!(schema.mix_types[a] == schema.mix_types[b]),
                       "per-type block repeats an arrival type (column \"" +
                           mix_column_name(schema.mix_types[b]) + "\")");
      }
    }
  }
  schema.tail_start = i;
  for (const char* c : tail) expect(i++, c);
  // The sim_backend, policy and fluid_verdict columns (engine/sweep.hpp)
  // trail the fixed tail in that order, each optional: theory-only
  // grids, pre-backend corpora, baseline-policy sweeps and fluid-less
  // runs all lack some suffix of them.
  if (i < columns.size() && columns[i] == kSimBackendColumn) {
    schema.has_backend = true;
    ++i;
  }
  if (i < columns.size() && columns[i] == kPolicyColumn) {
    P2P_ASSERT_MSG(schema.has_backend,
                   "the policy column requires a sim_backend column before "
                   "it (no simulator ran without one)");
    schema.has_policy = true;
    ++i;
  }
  if (i < columns.size() && columns[i] == kFluidVerdictColumn) {
    P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid,
                   "the fluid_verdict column belongs to grid reports only");
    schema.has_fluid = true;
    ++i;
  }
  if (i < columns.size() && columns[i] == kBoxDepthColumn) {
    // The multi-resolution box block closes an adaptive report's header:
    // box_depth, box_uniform, then one box_ext_<axis> per adaptive axis.
    P2P_ASSERT_MSG(schema.kind == ReportKind::kGrid,
                   "the box_depth column belongs to grid reports only");
    schema.has_boxes = true;
    schema.box_start = i;
    ++i;
    expect(i++, kBoxUniformColumn);
    const std::string_view ext_prefix = kBoxExtPrefix;
    while (i < columns.size() &&
           columns[i].compare(0, ext_prefix.size(), ext_prefix) == 0) {
      const std::string axis = columns[i].substr(ext_prefix.size());
      bool known = false;
      for (const char* c : sweep_schema_head()) known = known || axis == c;
      P2P_ASSERT_MSG(known && axis != sweep_schema_head()[0],
                     "box extent column \"" + columns[i] +
                         "\" does not name a model axis");
      for (const std::string& seen : schema.box_axes) {
        P2P_ASSERT_MSG(seen != axis, "box block repeats an extent column "
                                     "(column \"" +
                                         columns[i] + "\")");
      }
      schema.box_axes.push_back(axis);
      ++i;
    }
    P2P_ASSERT_MSG(schema.box_axes.size() >= 2,
                   "box block needs at least two box_ext_<axis> columns "
                   "(adaptive refinement subdivides >= 2 axes)");
  }
  P2P_ASSERT_MSG(i == columns.size(),
                 "report header has trailing columns after \"" +
                     std::string(tail.back()) + "\" (got \"" + columns[i] +
                     "\")");
  schema.num_columns = columns.size();
  return schema;
}

}  // namespace p2p::engine
