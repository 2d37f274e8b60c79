// Shared experiment environment for the figure-reproduction benches.
//
// Protocol notes (documented in EXPERIMENTS.md):
//  * "Original" means the dataset stored as QF = 100 baseline JPEG, the
//    paper's CR = 1 reference point.
//  * Unless a figure specifies otherwise (Fig. 2 CASE 2 trains on compressed
//    data), models are trained once on the original training set and then
//    evaluated on re-encoded test sets — the paper's CASE 1 deployment
//    scenario (the edge device compresses what it uploads for inference).
//  * All randomness is seeded; every bench is bit-reproducible.
#pragma once

#include <string>
#include <vector>

#include "core/deepnjpeg.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"

namespace dnj::bench {

struct ExperimentEnv {
  data::GeneratorConfig gen_config;
  data::Dataset train_raw;   ///< straight from the generator
  data::Dataset test_raw;
  data::Dataset train;       ///< QF-100 "original" (what the paper stores)
  data::Dataset test;
  // Byte accounting uses entropy-coded scan payloads (headers/tables ship
  // once per deployment; see jpeg::scan_byte_count) — the regime the
  // paper's CR numbers describe.
  std::size_t reference_train_bytes = 0;  ///< QF-100 scan bytes of the train set
  std::size_t reference_test_bytes = 0;
  std::size_t reference_bytes = 0;        ///< train + test
};

/// Builds the standard experiment environment: 8 frequency-signature
/// classes, 32x32 grayscale, `train_per_class`/`test_per_class` images.
ExperimentEnv make_env(int train_per_class = 60, int test_per_class = 25,
                       std::uint64_t seed = 0xDAC2018ULL);

/// Training schedule used by every figure bench. 20 epochs gets every
/// architecture (including the slow-starting plain-VGG stack) to its
/// plateau on the standard environment.
nn::TrainConfig default_train_config(int epochs = 20);

/// Trains `kind` on `train` and returns the model (verbose off).
nn::LayerPtr train_model(nn::ModelKind kind, const data::Dataset& train, int epochs = 20,
                         std::uint64_t seed = 41);

/// Re-encodes a dataset at an IJG quality factor (4:4:4, like the paper's
/// single-table pipeline).
data::Dataset recompress_quality(const data::Dataset& ds, int quality,
                                 std::size_t* bytes_out = nullptr);

/// Re-encodes a dataset with a custom quantization table.
data::Dataset recompress_table(const data::Dataset& ds, const jpeg::QuantTable& table,
                               std::size_t* bytes_out = nullptr);

/// The one result emitter every bench binary uses: creates
/// `bench_results/<name>.json` under the current working directory.
/// Produces one top-level object; arrays of objects nest one level deep —
/// enough both for the perf benches' result files (BENCH_*.json) and for
/// the figure benches' tabular output
/// (begin_rows/row, which replaced the seed's separate CSV writer). Keys
/// are written in call order, commas are managed internally, and any scopes
/// still open when the writer is destroyed are closed so the file is always
/// valid JSON.
///
/// Construction stamps three run-metadata fields before any caller keys —
/// "git_sha" (the commit the binary was configured from), "simd_level"
/// (the dispatch level active at construction) and "threads" (the
/// DNJ_THREADS/hardware default) — so every recorded trajectory is
/// attributable to a commit and a machine configuration.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& name);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  void field(const std::string& key, double value);
  void field(const std::string& key, std::size_t value);
  void field(const std::string& key, int value);
  void field(const std::string& key, bool value);  ///< emits true/false literals
  void begin_array(const std::string& key);
  void end_array();
  void begin_object();  ///< only valid inside an array
  void end_object();

  /// Tabular mode (the CSV replacement): begin_rows fixes the column names,
  /// each row() emits one object of column->cell pairs into a "rows" array.
  void begin_rows(const std::vector<std::string>& cols);
  void row(const std::vector<std::string>& cells);
  void end_rows();

  const std::string& path() const { return path_; }

 private:
  void comma_and_key(const std::string& key);
  void comma_only();
  void close_scope();

  std::string path_;
  void* file_;                     // FILE*
  std::vector<bool> needs_comma_;  // one flag per open scope
  std::vector<char> scope_kind_;   // 'A' = array, 'O' = object, per open scope
  std::vector<std::string> row_cols_;
};

/// Formats a double with fixed precision.
std::string fmt(double v, int precision = 3);

}  // namespace dnj::bench
