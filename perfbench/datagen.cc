#include "datagen.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>

#include "common/crc32.h"
#include "common/rng.h"
#include "datasets/registry.h"
#include "relational/csv.h"
#include "support.h"

namespace perfbench {

using hamlet::Result;
using hamlet::Status;

uint64_t CsvCorpus::total_bytes() const {
  uint64_t total = 0;
  for (const CsvFile& f : files) total += f.bytes;
  return total;
}

namespace {

Result<CsvFile> WriteTable(const hamlet::Table& table,
                           const std::string& dir) {
  CsvFile file;
  file.table = table.name();
  file.path = dir + "/" + table.name() + ".csv";
  file.schema = table.schema();
  file.rows = table.num_rows();
  HAMLET_RETURN_NOT_OK(hamlet::WriteCsv(table, file.path));
  std::ifstream in(file.path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IOError("cannot read back " + file.path);
  }
  file.bytes = bytes.size();
  file.crc32 = hamlet::Crc32(bytes.data(), bytes.size());
  return file;
}

/// Domain objects already relabeled, so a FK keeps sharing its key's.
using RelabeledDomains =
    std::map<const hamlet::Domain*, std::shared_ptr<hamlet::Domain>>;

/// `table` with every digit of every label replaced through `digits` (a
/// permutation of "0123456789"). The map is a bijection on labels that
/// keeps their lengths, codes, and the order in which they first appear.
hamlet::Table Relabeled(const hamlet::Table& table, const std::string& digits,
                        RelabeledDomains* relabeled) {
  std::vector<hamlet::Column> columns;
  for (uint32_t c = 0; c < table.num_columns(); ++c) {
    const hamlet::Column& col = table.column(c);
    std::shared_ptr<hamlet::Domain>& domain = (*relabeled)[col.domain().get()];
    if (domain == nullptr) {
      std::vector<std::string> labels = col.domain()->labels();
      for (std::string& label : labels) {
        for (char& ch : label) {
          if (ch >= '0' && ch <= '9') ch = digits[ch - '0'];
        }
      }
      domain = std::make_shared<hamlet::Domain>(std::move(labels));
    }
    columns.emplace_back(col.codes(), domain);
  }
  return hamlet::Table(table.name(), table.schema(), std::move(columns));
}

}  // namespace

std::string DigitPermutation(uint64_t seed) {
  hamlet::Rng rng(seed);
  std::string digits;
  for (uint32_t d : rng.Permutation(10)) digits.push_back('0' + d);
  return digits;
}

Result<CsvCorpus> WriteMovieLensCorpus(const std::string& dir, double scale,
                                       uint64_t data_seed, uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  HAMLET_ASSIGN_OR_RETURN(
      hamlet::NormalizedDataset ds,
      hamlet::MakeDataset("MovieLens1M", scale, data_seed));
  const std::string digits = DigitPermutation(seed);
  RelabeledDomains relabeled;
  CsvCorpus corpus;
  corpus.dataset = ds.name();
  HAMLET_ASSIGN_OR_RETURN(
      CsvFile entity,
      WriteTable(Relabeled(ds.entity(), digits, &relabeled), dir));
  corpus.files.push_back(std::move(entity));
  for (const hamlet::Table& r : ds.attribute_tables()) {
    HAMLET_ASSIGN_OR_RETURN(CsvFile file,
                            WriteTable(Relabeled(r, digits, &relabeled), dir));
    corpus.files.push_back(std::move(file));
  }
  return corpus;
}

Result<hamlet::NormalizedDataset> LoadCorpus(const CsvCorpus& corpus,
                                             LoadTiming* timing,
                                             SpanRecorder* spans) {
  if (corpus.files.empty()) return Status::InvalidArgument("empty corpus");
  *timing = {};
  std::vector<hamlet::Table> attribute_tables;
  for (size_t i = 1; i < corpus.files.size(); ++i) {
    const CsvFile& f = corpus.files[i];
    const int32_t span = spans ? spans->Begin("ingest." + f.table) : -1;
    const double t0 = NowSeconds();
    HAMLET_ASSIGN_OR_RETURN(hamlet::Table t,
                            hamlet::ReadCsv(f.path, f.table, f.schema));
    timing->ingest_s += NowSeconds() - t0;
    if (spans) spans->End(span);
    timing->rows += t.num_rows();
    attribute_tables.push_back(std::move(t));
  }

  // The entity's FK columns take their referenced primary key's domain.
  const CsvFile& s = corpus.files[0];
  std::vector<std::shared_ptr<hamlet::Domain>> domains(
      s.schema.num_columns());
  for (uint32_t c : s.schema.ForeignKeyIndices()) {
    for (const hamlet::Table& r : attribute_tables) {
      if (r.name() != s.schema.column(c).ref_table) continue;
      HAMLET_ASSIGN_OR_RETURN(uint32_t pk, r.schema().PrimaryKeyIndex());
      domains[c] = r.column(pk).domain();
    }
  }
  const int32_t span = spans ? spans->Begin("ingest." + s.table) : -1;
  const double t0 = NowSeconds();
  HAMLET_ASSIGN_OR_RETURN(
      hamlet::Table entity,
      hamlet::ReadCsvWithDomains(s.path, s.table, s.schema, domains));
  timing->ingest_s += NowSeconds() - t0;
  if (spans) spans->End(span);
  timing->rows += entity.num_rows();

  const int32_t catalog_span = spans ? spans->Begin("catalog") : -1;
  const double t1 = NowSeconds();
  HAMLET_ASSIGN_OR_RETURN(
      hamlet::NormalizedDataset ds,
      hamlet::NormalizedDataset::Make(corpus.dataset, std::move(entity),
                                      std::move(attribute_tables)));
  timing->catalog_s = NowSeconds() - t1;
  if (spans) spans->End(catalog_span);
  return ds;
}

}  // namespace perfbench
