#include "relational/csv.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <string_view>

#include "common/parallel_for.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace hamlet {

namespace {

obs::Counter& BytesReadCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("ingest.bytes_read");
  return counter;
}

obs::Counter& RowsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("ingest.rows");
  return counter;
}

obs::Histogram& ReadLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("ingest.read_ns");
  return h;
}

obs::Histogram& ParseLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("ingest.parse_ns");
  return h;
}

obs::Histogram& MergeLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("ingest.merge_ns");
  return h;
}

/// The quoting state machine every pass below shares (framing pre-scan,
/// chunk tokenizer, field unescape): a '"' opens a quoted run only while
/// the field has no content yet, "" inside quotes is an escaped quote, a
/// '"' closing a run returns to unquoted mode (later characters append
/// literally), unquoted '\r' is dropped, and unquoted delimiter/newline
/// end the field/record. This is exactly ParseCsvLine's behavior
/// extended with in-quote newlines.

/// Unescapes one field's raw bytes into `scratch` (which is reused) and
/// returns a view of the result. Only called for fields that need a
/// transformation (quotes or '\r'); plain fields are viewed in place.
std::string_view UnescapeField(const char* begin, const char* end,
                               std::string& scratch) {
  scratch.clear();
  bool in_quotes = false;
  for (const char* p = begin; p < end; ++p) {
    const char ch = *p;
    if (in_quotes) {
      if (ch == '"') {
        if (p + 1 < end && p[1] == '"') {
          scratch.push_back('"');
          ++p;
        } else {
          in_quotes = false;
        }
      } else {
        scratch.push_back(ch);
      }
    } else if (ch == '"' && scratch.empty()) {
      in_quotes = true;
    } else if (ch != '\r') {
      // Unquoted delimiters/newlines cannot occur inside an extent: the
      // tokenizer already ended the field there.
      scratch.push_back(ch);
    }
  }
  return scratch;
}

/// Splits one record's raw bytes (no trailing record terminator) into
/// unescaped fields.
std::vector<std::string> SplitRecord(const char* begin, const char* end,
                                     char delimiter) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (const char* p = begin; p < end; ++p) {
    const char ch = *p;
    if (in_quotes) {
      if (ch == '"') {
        if (p + 1 < end && p[1] == '"') {
          cur.push_back('"');
          ++p;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(ch);
      }
    } else if (ch == '"' && cur.empty()) {
      in_quotes = true;
    } else if (ch == delimiter) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (ch != '\r') {
      cur.push_back(ch);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

/// A record-aligned chunk boundary: byte offset into the body plus the
/// 1-based file line its first record starts on.
struct ChunkStart {
  size_t offset = 0;
  size_t line = 0;
};

/// Serial framing pre-scan: walks the body once with the quoting state
/// machine and records a record-start boundary at (roughly) every
/// `body.size()/n_chunks` bytes. Boundaries land only on true record
/// starts — a quoted field spanning lines never gets split — so each
/// chunk parses independently from a clean state.
std::vector<ChunkStart> PlanChunks(std::string_view body, size_t start_line,
                                   uint32_t n_chunks, char delimiter) {
  std::vector<ChunkStart> starts{{0, start_line}};
  if (n_chunks <= 1 || body.empty()) return starts;
  size_t line = start_line;
  bool in_quotes = false;
  bool field_empty = true;
  uint32_t next = 1;
  size_t target = body.size() * next / n_chunks;
  for (size_t i = 0; i < body.size(); ++i) {
    const char ch = body[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < body.size() && body[i + 1] == '"') {
          ++i;
          field_empty = false;
        } else {
          in_quotes = false;
        }
      } else {
        if (ch == '\n') ++line;
        field_empty = false;
      }
    } else if (ch == '"' && field_empty) {
      in_quotes = true;
    } else if (ch == delimiter) {
      field_empty = true;
    } else if (ch == '\n') {
      ++line;
      field_empty = true;
      const size_t record_start = i + 1;
      if (next < n_chunks && record_start >= target &&
          record_start < body.size()) {
        starts.push_back({record_start, line});
        do {
          ++next;
          target = body.size() * next / n_chunks;
        } while (next < n_chunks && target <= record_start);
      }
    } else if (ch != '\r') {
      field_empty = false;
    }
  }
  return starts;
}

/// Raw extent of one field within the buffer; `escaped` marks fields
/// whose bytes need a transformation (quote handling or '\r' removal)
/// before they become a label.
struct FieldExtent {
  const char* begin = nullptr;
  const char* end = nullptr;
  bool escaped = false;
};

/// Read-only parse context shared by every chunk.
struct ParseContext {
  const std::string* path = nullptr;
  const Schema* schema = nullptr;
  /// Fixed (closed) domain per column, nullptr for fresh columns.
  const std::vector<std::shared_ptr<Domain>>* fixed = nullptr;
  char delimiter = ',';
  bool strict = true;
};

/// One chunk's parse result. Fresh-column codes are chunk-local (indices
/// into `labels[col]`, first-occurrence order); fixed-column codes are
/// final. The merge translates local codes in chunk order, which
/// reproduces the serial reader's first-occurrence global order exactly.
/// Local labels are views: into the file buffer, which outlives the
/// merge, or into `escaped` for the fields that needed unescaping. A
/// deque never moves its elements, so those views stay valid.
struct ChunkOutput {
  std::vector<std::vector<uint32_t>> codes;
  std::vector<std::vector<std::string_view>> labels;
  std::deque<std::string> escaped;
  Status status = Status::OK();
  uint32_t rows = 0;
};

/// Tokenizes and encodes one record-aligned chunk.
class ChunkParser {
 public:
  ChunkParser(const ParseContext& ctx, ChunkOutput* out)
      : ctx_(ctx), out_(out) {
    const uint32_t n_cols = ctx_.schema->num_columns();
    out_->codes.resize(n_cols);
    out_->labels.resize(n_cols);
    local_index_.resize(n_cols);
    row_codes_.resize(n_cols);
  }

  void Parse(const char* begin, const char* end, size_t start_line) {
    size_t line = start_line;
    const char* p = begin;
    while (p < end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<size_t>(end - p)));
      const char* record_end = nl != nullptr ? nl : end;
      if (record_end == p) {  // Blank line: skip, like the old reader.
        ++line;
        p = record_end + 1;
        continue;
      }
      const size_t len = static_cast<size_t>(record_end - p);
      // Fast path: a record with no quoting and no '\r' needs no state
      // machine — the newline found above is a true record end and every
      // delimiter byte is a field break, so memchr does all the scanning.
      if (std::memchr(p, '"', len) == nullptr &&
          std::memchr(p, '\r', len) == nullptr) {
        extents_.clear();
        const char* field_start = p;
        for (;;) {
          const char* d = static_cast<const char*>(
              std::memchr(field_start, ctx_.delimiter,
                          static_cast<size_t>(record_end - field_start)));
          if (d == nullptr) break;
          extents_.push_back({field_start, d, false});
          field_start = d + 1;
        }
        extents_.push_back({field_start, record_end, false});
        if (!HandleRecord(line)) return;
        if (nl == nullptr) return;
        ++line;
        p = nl + 1;
        continue;
      }
      // Slow path: quoting may extend the record past `nl` (quoted
      // newlines), and '\r' needs stripping — run the state machine for
      // this one record.
      const size_t record_line = line;
      bool newline_terminated = false;
      p = ScanRecordSlow(p, end, &line, &newline_terminated);
      if (!HandleRecord(record_line)) return;
      if (newline_terminated) ++line;
    }
  }

 private:
  /// State-machine scan of one record starting at `p` (used when the
  /// record contains quoting or '\r'). Fills extents_, bumps *line once
  /// per quoted newline, and returns the position just past the record —
  /// past its terminating newline when *newline_terminated is set.
  const char* ScanRecordSlow(const char* p, const char* end, size_t* line,
                             bool* newline_terminated) {
    extents_.clear();
    const char* field_start = p;
    bool in_quotes = false;
    bool field_empty = true;
    bool field_escaped = false;
    while (p < end) {
      const char ch = *p;
      if (in_quotes) {
        if (ch == '"') {
          if (p + 1 < end && p[1] == '"') {
            field_empty = false;
            p += 2;
            continue;
          }
          in_quotes = false;
        } else {
          if (ch == '\n') ++*line;
          field_empty = false;
        }
        ++p;
        continue;
      }
      if (ch == '"' && field_empty) {
        in_quotes = true;
        field_escaped = true;  // The opening quote must be stripped.
        ++p;
        continue;
      }
      if (ch == ctx_.delimiter) {
        extents_.push_back({field_start, p, field_escaped});
        field_start = p + 1;
        field_empty = true;
        field_escaped = false;
        ++p;
        continue;
      }
      if (ch == '\n') {
        extents_.push_back({field_start, p, field_escaped});
        *newline_terminated = true;
        return p + 1;
      }
      if (ch == '\r') {
        field_escaped = true;  // Dropped on unescape.
        ++p;
        continue;
      }
      field_empty = false;
      ++p;
    }
    extents_.push_back({field_start, p, field_escaped});
    return end;
  }

  std::string_view FieldView(const FieldExtent& extent) {
    if (!extent.escaped) {
      return std::string_view(extent.begin,
                              static_cast<size_t>(extent.end - extent.begin));
    }
    return UnescapeField(extent.begin, extent.end, scratch_);
  }

  /// Encodes one record. Returns false when the chunk must stop (error).
  bool HandleRecord(size_t record_line) {
    const uint32_t n_cols = ctx_.schema->num_columns();
    if (extents_.size() != n_cols) {
      out_->status = Status::InvalidArgument(StringFormat(
          "%s:%zu: row has %zu fields, header has %u", ctx_.path->c_str(),
          record_line, extents_.size(), n_cols));
      return false;
    }
    // Validate every fixed (closed) domain before touching any local
    // dictionary, so a lenient-skipped row adds no labels anywhere —
    // exactly the old AppendRowLabels ordering.
    for (uint32_t c = 0; c < n_cols; ++c) {
      const auto& domain = (*ctx_.fixed)[c];
      if (domain == nullptr) continue;
      const std::string_view value = FieldView(extents_[c]);
      const uint32_t code = domain->CodeOf(value);
      if (code == Domain::kNoCode) {
        if (ctx_.strict) {
          out_->status = Status::InvalidArgument(StringFormat(
              "%s:%zu: value '%.*s' not in the closed domain of column '%s'",
              ctx_.path->c_str(), record_line,
              static_cast<int>(value.size()), value.data(),
              ctx_.schema->column(c).name.c_str()));
          return false;
        }
        return true;  // Lenient: skip the row.
      }
      row_codes_[c] = code;
    }
    for (uint32_t c = 0; c < n_cols; ++c) {
      if ((*ctx_.fixed)[c] != nullptr) continue;
      const std::string_view value = FieldView(extents_[c]);
      std::vector<std::string_view>& labels = out_->labels[c];
      const uint32_t next = static_cast<uint32_t>(labels.size());
      const uint32_t code = local_index_[c].FindOrInsert(
          value, next, [&labels](uint32_t l) { return labels[l]; });
      if (code == next) {
        // `value` views the buffer, or the scratch an escaped field was
        // unescaped into; only the latter needs a stable copy.
        labels.push_back(extents_[c].escaped
                             ? out_->escaped.emplace_back(value)
                             : value);
      }
      row_codes_[c] = code;
    }
    for (uint32_t c = 0; c < n_cols; ++c) {
      out_->codes[c].push_back(row_codes_[c]);
    }
    ++out_->rows;
    return true;
  }

  const ParseContext& ctx_;
  ChunkOutput* out_;
  std::vector<FieldExtent> extents_;
  std::vector<uint32_t> row_codes_;
  std::string scratch_;
  /// Per fresh column: label -> chunk-local code, reading labels back
  /// through `out_->labels[col]`.
  std::vector<FlatLabelIndex> local_index_;
};

}  // namespace

std::vector<std::string> ParseCsvLine(const std::string& line,
                                      char delimiter) {
  return SplitRecord(line.data(), line.data() + line.size(), delimiter);
}

Result<Table> ReadCsvWithDomains(const std::string& path,
                                 std::string table_name, Schema schema,
                                 std::vector<std::shared_ptr<Domain>> domains,
                                 const CsvOptions& options) {
  obs::TraceSpan span("ingest.csv");
  std::string buffer;
  {
    obs::ScopedLatency latency(ReadLatency);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IOError(
          StringFormat("cannot open '%s' for reading", path.c_str()));
    }
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    buffer.resize(static_cast<size_t>(size > 0 ? size : 0));
    if (!buffer.empty() &&
        !in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()))) {
      return Status::IOError(
          StringFormat("short read from '%s'", path.c_str()));
    }
  }
  BytesReadCounter().Add(buffer.size());
  if (buffer.empty()) {
    return Status::IOError(StringFormat("'%s' is empty", path.c_str()));
  }

  // Frame and validate the header record (it may itself contain quoted
  // newlines, so it is walked with the same state machine).
  size_t header_end = buffer.size();
  size_t body_line = 1;
  {
    bool in_quotes = false;
    bool field_empty = true;
    for (size_t i = 0; i < buffer.size(); ++i) {
      const char ch = buffer[i];
      if (in_quotes) {
        if (ch == '"') {
          if (i + 1 < buffer.size() && buffer[i + 1] == '"') {
            ++i;
            field_empty = false;
          } else {
            in_quotes = false;
          }
        } else {
          if (ch == '\n') ++body_line;
          field_empty = false;
        }
      } else if (ch == '"' && field_empty) {
        in_quotes = true;
      } else if (ch == options.delimiter) {
        field_empty = true;
      } else if (ch == '\n') {
        ++body_line;
        header_end = i;
        break;
      } else if (ch != '\r') {
        field_empty = false;
      }
    }
  }
  std::vector<std::string> header = SplitRecord(
      buffer.data(), buffer.data() + header_end, options.delimiter);
  if (header.size() != schema.num_columns()) {
    return Status::InvalidArgument(StringFormat(
        "'%s' header has %zu columns, schema has %u", path.c_str(),
        header.size(), schema.num_columns()));
  }
  for (uint32_t c = 0; c < header.size(); ++c) {
    std::string name(TrimWhitespace(header[c]));
    if (name != schema.column(c).name) {
      return Status::InvalidArgument(StringFormat(
          "'%s' header column %u is '%s', schema expects '%s'",
          path.c_str(), c, name.c_str(), schema.column(c).name.c_str()));
    }
  }

  const uint32_t num_columns = schema.num_columns();
  const size_t body_start =
      header_end < buffer.size() ? header_end + 1 : buffer.size();
  const std::string_view body =
      std::string_view(buffer).substr(body_start);

  ParseContext ctx;
  ctx.path = &path;
  ctx.schema = &schema;
  ctx.fixed = &domains;
  ctx.delimiter = options.delimiter;
  ctx.strict = options.strict;

  // Shard the body into record-aligned chunks: one per shard of the
  // width, floored so tiny inputs stay single-chunk.
  const size_t min_chunk = std::max<size_t>(options.min_chunk_bytes, 1);
  const size_t max_chunks = body.size() / min_chunk + 1;
  const uint32_t n_chunks = ThreadPool::Global().ShardsFor(
      static_cast<uint32_t>(std::min<size_t>(max_chunks, UINT32_MAX)));
  const std::vector<ChunkStart> starts =
      PlanChunks(body, body_line, n_chunks, options.delimiter);

  std::vector<ChunkOutput> outs(starts.size());
  {
    obs::ScopedLatency latency(ParseLatency);
    // At most n_chunks chunks, so one shard each.
    ParallelFor(static_cast<uint32_t>(starts.size()), [&](uint32_t j) {
      const size_t lo = starts[j].offset;
      const size_t hi =
          j + 1 < starts.size() ? starts[j + 1].offset : body.size();
      ChunkParser parser(ctx, &outs[j]);
      parser.Parse(body.data() + lo, body.data() + hi, starts[j].line);
    });
  }
  // The lowest-indexed chunk's error is the first error in row order —
  // identical to what a serial read would have reported.
  for (const ChunkOutput& out : outs) {
    if (!out.status.ok()) return out.status;
  }

  // Deterministic merge: per column, walk the chunks in order, extend
  // the (fresh) global dictionary with each chunk's labels in local
  // first-occurrence order, and translate local codes through a one-shot
  // uint32 remap. Chunk order == row order, so the global dictionary
  // comes out in exactly the serial reader's first-occurrence order.
  std::vector<uint64_t> row_offset(outs.size() + 1, 0);
  for (size_t j = 0; j < outs.size(); ++j) {
    row_offset[j + 1] = row_offset[j] + outs[j].rows;
  }
  const uint64_t total_rows = row_offset[outs.size()];
  std::vector<bool> fresh(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    fresh[c] = domains[c] == nullptr;
    if (fresh[c]) domains[c] = std::make_shared<Domain>();
  }
  std::vector<std::vector<uint32_t>> final_codes(num_columns);
  {
    obs::ScopedLatency latency(MergeLatency);
    // A serial loop over the columns: the merge is a small share of the
    // read, and it costs the same CPU sharded or not.
    std::vector<uint32_t> translate;
    for (uint32_t c = 0; c < num_columns; ++c) {
      std::vector<uint32_t>& out = final_codes[c];
      if (outs.size() == 1) {
        // Single chunk: the local codes are already the global codes. A
        // fresh column's (empty) global dictionary extends in the local
        // first-occurrence order, so the translation is the identity;
        // fixed-column codes were final all along. Move, don't copy.
        if (fresh[c]) {
          for (const std::string_view label : outs[0].labels[c]) {
            domains[c]->GetOrAdd(label);
          }
        }
        out = std::move(outs[0].codes[c]);
        continue;
      }
      out.resize(total_rows);
      for (size_t j = 0; j < outs.size(); ++j) {
        const std::vector<uint32_t>& chunk_codes = outs[j].codes[c];
        uint64_t pos = row_offset[j];
        if (fresh[c]) {
          const std::vector<std::string_view>& labels = outs[j].labels[c];
          translate.resize(labels.size());
          for (uint32_t l = 0; l < labels.size(); ++l) {
            translate[l] = domains[c]->GetOrAdd(labels[l]);
          }
          for (uint32_t code : chunk_codes) out[pos++] = translate[code];
        } else {
          for (uint32_t code : chunk_codes) out[pos++] = code;
        }
      }
    }
  }

  RowsCounter().Add(total_rows);
  if (span.active()) {
    span.AddAttr("path", path);
    span.AddAttr("bytes", static_cast<uint64_t>(buffer.size()));
    span.AddAttr("rows", total_rows);
    span.AddAttr("chunks", static_cast<uint64_t>(starts.size()));
    span.AddAttr("columns", num_columns);
  }

  std::vector<Column> cols;
  cols.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    cols.emplace_back(std::move(final_codes[c]), domains[c]);
  }
  return Table(std::move(table_name), std::move(schema), std::move(cols));
}

Result<Table> ReadCsv(const std::string& path, std::string table_name,
                      Schema schema, const CsvOptions& options) {
  std::vector<std::shared_ptr<Domain>> domains(schema.num_columns(), nullptr);
  return ReadCsvWithDomains(path, std::move(table_name), std::move(schema),
                            std::move(domains), options);
}

namespace {

void WriteField(std::ostream& os, const std::string& field, char delimiter) {
  // '\r' must be quoted too (the reader drops unquoted carriage
  // returns), and so must the empty field: a single-column row with an
  // empty label would otherwise print as a blank line, which the reader
  // skips.
  bool needs_quotes = field.empty() ||
                      field.find(delimiter) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) {
    os << field;
    return;
  }
  os << '"';
  for (char ch : field) {
    if (ch == '"') os << '"';
    os << ch;
  }
  os << '"';
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError(
        StringFormat("cannot open '%s' for writing", path.c_str()));
  }
  for (uint32_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << options.delimiter;
    WriteField(out, table.schema().column(c).name, options.delimiter);
  }
  out << '\n';
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << options.delimiter;
      WriteField(out, table.column(c).label(r), options.delimiter);
    }
    out << '\n';
  }
  if (!out) {
    return Status::IOError(
        StringFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace hamlet
