#ifndef HAMLET_RELATIONAL_CSV_H_
#define HAMLET_RELATIONAL_CSV_H_

/// \file csv.h
/// CSV ingestion and export for categorical tables.
///
/// The reader expects a header row and treats every field as a category
/// label. Numeric columns should be discretized after loading (see
/// stats/binning.h) per the paper's all-nominal assumption; the reader
/// itself stays typeless. RFC-4180-style quoting ("" escapes a quote) is
/// supported, including quoted fields that span line breaks.
///
/// Ingestion is chunked (docs/PERFORMANCE.md "Chunked parallel CSV
/// ingest"): the file is read into one buffer, a serial framing scan
/// splits it into record-aligned byte ranges, and the chunks are
/// tokenized in parallel, at the caller's width (a ScopedWidth,
/// common/thread_pool.h), into per-chunk dictionaries. A chunk dictionary
/// is a list of std::string_view labels into the buffer (only fields that
/// needed unescaping are copied) behind a FlatLabelIndex
/// (relational/domain.h), so the parse allocates nothing per label. One
/// serial pass then merges the dictionaries column by column, in chunk
/// order, materializing each distinct label once, in its Domain — so
/// codes and domain label order are bit-identical to a serial read at any
/// width.

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace hamlet {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// If true, any malformed row is an error; otherwise rows with domain
  /// violations are skipped. A row whose field count mismatches the
  /// header is a line-numbered error in BOTH modes — such rows signal
  /// broken framing, and dropping them would silently bias the data.
  bool strict = true;
  /// Floor on bytes per parse chunk, so tiny files stay single-chunk
  /// where sharding overhead would dominate. Tests lower it to force
  /// multi-chunk parsing on small inputs; the result is identical.
  size_t min_chunk_bytes = 64 * 1024;
};

/// Reads a CSV file into a table. The schema must name exactly the header
/// columns (in file order). Domains are built from the data.
Result<Table> ReadCsv(const std::string& path, std::string table_name,
                      Schema schema, const CsvOptions& options = {});

/// Like ReadCsv but with caller-provided (possibly shared/closed) domains;
/// pass nullptr entries for fresh domains. A value outside a provided
/// domain is an error (closed-domain enforcement).
Result<Table> ReadCsvWithDomains(const std::string& path,
                                 std::string table_name, Schema schema,
                                 std::vector<std::shared_ptr<Domain>> domains,
                                 const CsvOptions& options = {});

/// Writes `table` (header + label rows) to `path`.
Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options = {});

/// Parses one CSV record with quoting; exposed for tests. A '"' opens a
/// quoted run only at the start of a field (mid-field quotes are
/// literal), "" inside quotes escapes a quote, characters after a
/// closing quote append literally, and unquoted '\r' is dropped.
std::vector<std::string> ParseCsvLine(const std::string& line,
                                      char delimiter);

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_CSV_H_
