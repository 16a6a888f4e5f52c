#ifndef HAMLET_PERFBENCH_DATAGEN_H_
#define HAMLET_PERFBENCH_DATAGEN_H_

/// \file datagen.h
/// Inputs and ingest. The benchmark's inputs are CSV files produced from
/// the workload seed by MakeDataset + WriteCsv, outside any timed region;
/// the timed load then goes CSV bytes -> ReadCsv* -> NormalizedDataset,
/// exactly what an analyst starting from files pays.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "relational/schema.h"

namespace perfbench {

class SpanRecorder;

/// One written CSV file and its fingerprint.
struct CsvFile {
  std::string table;
  std::string path;
  hamlet::Schema schema;
  uint32_t rows = 0;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;  ///< CRC-32 of the file's bytes.
};

/// A dataset on disk: the entity table first, then the attribute tables
/// in the entity's FK order.
struct CsvCorpus {
  std::string dataset;
  std::vector<CsvFile> files;
  uint64_t total_bytes() const;
};

/// The digit substitution --seed applies to every label: a permutation
/// of "0123456789" ("UserID_17" becomes "UserID_42" under "0421...").
std::string DigitPermutation(uint64_t seed);

/// Generates MovieLens1M at `scale` from the generator seed `data_seed`
/// and writes one CSV per table into `dir` (created if missing), every
/// label's digits mapped through DigitPermutation(seed). So the bytes,
/// and every hash and string compare ingest does, follow `seed`, while
/// codes, domain sizes, file sizes and every learning result stay those
/// of the fixed problem `data_seed` draws.
hamlet::Result<CsvCorpus> WriteMovieLensCorpus(const std::string& dir,
                                               double scale,
                                               uint64_t data_seed,
                                               uint64_t seed);

/// What one load cost.
struct LoadTiming {
  double ingest_s = 0;   ///< Every ReadCsv / ReadCsvWithDomains call.
  double catalog_s = 0;  ///< NormalizedDataset::Make.
  uint64_t rows = 0;     ///< Rows ingested across all files.
};

/// Loads the corpus: attribute tables with ReadCsv, then the entity with
/// ReadCsvWithDomains so each FK shares its referenced key's (closed)
/// domain, then NormalizedDataset::Make. With `spans`, each call is
/// wrapped in a span ("ingest.<table>", "catalog").
hamlet::Result<hamlet::NormalizedDataset> LoadCorpus(const CsvCorpus& corpus,
                                                     LoadTiming* timing,
                                                     SpanRecorder* spans);

}  // namespace perfbench

#endif  // HAMLET_PERFBENCH_DATAGEN_H_
