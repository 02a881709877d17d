// Micro-benchmarks backing the §5.3.5 constants: t_classify (decision-tree
// prediction, paper: 0.4 us including the history table) and the daily
// retraining cost (paper: "a few minutes" on 144k rows — the presorted
// splitter makes a single tree a sub-second affair).
//
// Runs the cells one at a time, so no cell times another's contention, and
// writes a machine-readable report to BENCH_classifier.json (override with
// argv[1]). Fit cells use synthetic datasets (deterministic seeds) so
// fit-time numbers are comparable across machines and revisions: the
// tree_fit_* cells an 8-feature continuous set, tree_fit_trainer_* one
// shaped like the retrain barrier's training set.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/history_table.h"
#include "ml/compiled_tree.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "util/rng.h"

namespace {

using namespace otac;

/// Linearly separable-ish labels with noise: uniform features in [0, 100],
/// alternating-sign weights, so a 30-split tree has real structure to find.
ml::Dataset make_dataset(std::size_t rows, std::size_t features,
                         std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f) {
    names.push_back(std::string{"f"}.append(std::to_string(f)));
  }
  ml::Dataset data{names};
  Rng rng{seed};
  std::vector<float> row(features);
  for (std::size_t i = 0; i < rows; ++i) {
    float score = 0.0F;
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = static_cast<float>(rng.uniform_int(0, 1000)) / 10.0F;
      score += row[f] * (f % 2 == 0 ? 1.0F : -0.5F);
    }
    const int label =
        (score + static_cast<float>(rng.uniform_int(0, 40))) > 30.0F ? 1 : 0;
    data.add_row(row, label, 1.0F);
  }
  return data;
}

/// Shaped like the daily trainer's set: nine features, seven of them
/// integer-valued with the distinct-value counts of the trainer's features
/// (2 up to ~4.5k levels) and two continuous; negatives carry the §4.4.1
/// cost weight v = 2, uniform per class as in DailyTrainer::train.
ml::Dataset make_trainer_dataset(std::size_t rows, std::uint64_t seed) {
  constexpr std::int64_t kLevels[] = {2, 12, 24, 416, 452, 4474, 4483};
  std::vector<std::string> names;
  for (std::size_t f = 0; f < 9; ++f) {
    names.push_back(std::string{"f"}.append(std::to_string(f)));
  }
  ml::Dataset data{names};
  Rng rng{seed};
  std::vector<float> row(9);
  for (std::size_t i = 0; i < rows; ++i) {
    double score = 0.0;
    for (std::size_t f = 0; f < 7; ++f) {
      const std::int64_t level = rng.uniform_int(0, kLevels[f] - 1);
      row[f] = static_cast<float>(level);
      score += static_cast<double>(level) / static_cast<double>(kLevels[f]) *
               (f % 2 == 0 ? 1.0 : -0.7);
    }
    const double a = rng.lognormal(0.0, 1.5);
    const double b = rng.uniform(0.0, 1e4);
    row[7] = static_cast<float>(a);
    row[8] = static_cast<float>(b);
    score += 0.2 * std::log1p(a) - b * 2e-5 + rng.uniform(-0.5, 0.5);
    data.add_row(row, score > 0.5 ? 1 : 0, 1.0F);
  }
  data.apply_cost_matrix(2.0);
  return data;
}

ml::DecisionTreeConfig tree_config() {
  ml::DecisionTreeConfig config;
  config.max_splits = 30;  // the paper's split budget (§3.1.2)
  return config;
}

struct CellResult {
  std::string json;
  std::string line;
};

CellResult make_result(const std::string& name, std::size_t ops,
                       double seconds, const std::string& extra_json) {
  const double ops_per_sec = static_cast<double>(ops) / seconds;
  const double ns_per_op = seconds * 1e9 / static_cast<double>(ops);
  CellResult result;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cell\": \"%s\", \"ops\": %zu, \"ops_per_sec\": %.0f, "
                "\"ns_per_op\": %.2f%s}",
                name.c_str(), ops, ops_per_sec, ns_per_op, extra_json.c_str());
  result.json = buffer;
  std::snprintf(buffer, sizeof(buffer), "%-18s %12.0f ops/s %10.1f ns/op",
                name.c_str(), ops_per_sec, ns_per_op);
  result.line = buffer;
  return result;
}

/// Fit cell: ops == rows, plus an explicit fit_seconds field.
CellResult run_tree_fit(std::size_t rows, int reps) {
  const ml::Dataset data = make_dataset(rows, 8, 7);
  std::size_t splits = 0;
  const double seconds = bench::best_of(reps, [&] {
    ml::DecisionTree tree{tree_config()};
    tree.fit(data);
    splits = tree.split_count();
  });
  char extra[96];
  std::snprintf(extra, sizeof(extra), ", \"fit_seconds\": %.4f, \"splits\": %zu",
                seconds, splits);
  return make_result("tree_fit_" + std::to_string(rows / 1000) + "k", rows,
                     seconds, extra);
}

/// Trainer-shaped fit cell: what one retrain barrier fits.
CellResult run_trainer_fit(std::size_t rows, int reps) {
  const ml::Dataset data = make_trainer_dataset(rows, 11);
  std::size_t splits = 0;
  std::size_t height = 0;
  const double seconds = bench::best_of(reps, [&] {
    ml::DecisionTree tree{tree_config()};
    tree.fit(data);
    splits = tree.split_count();
    height = tree.height();
  });
  char extra[128];
  std::snprintf(extra, sizeof(extra),
                ", \"fit_seconds\": %.4f, \"splits\": %zu, \"height\": %zu",
                seconds, splits, height);
  return make_result("tree_fit_trainer_" + std::to_string(rows / 1000) + "k",
                     rows, seconds, extra);
}

/// Predict cell: t_classify core — one tree traversal per row.
CellResult run_tree_predict(int reps) {
  const ml::Dataset data = make_dataset(bench::scaled(140'000), 8, 7);
  ml::DecisionTree tree{tree_config()};
  tree.fit(data);
  const std::size_t kOps = bench::scaled(1'000'000);
  double sink = 0.0;
  const double seconds = bench::best_of(reps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      sink += tree.predict_proba(data.row(i % data.num_rows()));
    }
  });
  char extra[64];
  std::snprintf(extra, sizeof(extra), ", \"sink\": %.0f", sink);
  return make_result("tree_predict", kOps, seconds, extra);
}

/// Compiled-tree scalar cell: the same traversal as tree_predict through
/// the flattened SoA node array — isolates the layout win from batching.
CellResult run_compiled_predict(int reps) {
  const ml::Dataset data = make_dataset(bench::scaled(140'000), 8, 7);
  ml::DecisionTree tree{tree_config()};
  tree.fit(data);
  const ml::CompiledTree compiled = ml::CompiledTree::compile(tree);
  const std::size_t kOps = bench::scaled(1'000'000);
  double sink = 0.0;
  const double seconds = bench::best_of(reps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      sink += compiled.predict_proba(data.row(i % data.num_rows()));
    }
  });
  char extra[64];
  std::snprintf(extra, sizeof(extra), ", \"sink\": %.0f", sink);
  return make_result("compiled_predict", kOps, seconds, extra);
}

/// Batched cell: level-synchronous branch-free walk over `batch` rows per
/// predict_proba_batch call (the serving path's admission micro-batch).
/// Dataset storage is row-major contiguous, so rows pass straight through
/// with stride = num_features().
CellResult run_compiled_batch(std::size_t batch, int reps) {
  const ml::Dataset data = make_dataset(bench::scaled(140'000), 8, 7);
  ml::DecisionTree tree{tree_config()};
  tree.fit(data);
  const ml::CompiledTree compiled = ml::CompiledTree::compile(tree);
  const std::size_t kOps =
      bench::scaled(1'000'000) / batch * batch;  // whole batches only
  const float* rows = data.row(0).data();
  const std::size_t stride = data.num_features();
  const std::size_t usable = data.num_rows() / batch * batch;
  std::vector<float> out(batch, 0.0F);
  double sink = 0.0;
  const double seconds = bench::best_of(reps, [&] {
    for (std::size_t i = 0; i < kOps; i += batch) {
      compiled.predict_proba_batch(rows + (i % usable) * stride, batch,
                                   stride, out.data());
      sink += static_cast<double>(out[0]);
    }
  });
  char extra[64];
  std::snprintf(extra, sizeof(extra), ", \"batch\": %zu, \"sink\": %.0f",
                batch, sink);
  return make_result("compiled_batch" + std::to_string(batch), kOps, seconds,
                     extra);
}

/// History-table cell: the rectify-or-record step of every classification.
CellResult run_history_table(int reps) {
  const std::size_t kOps = bench::scaled(1'000'000);
  std::size_t rectified = 0;
  const double seconds = bench::best_of(reps, [&] {
    HistoryTable table{4096};
    rectified = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto photo = static_cast<PhotoId>(i % 8192);
      if (table.rectify(photo, i, 1000.0)) {
        ++rectified;
      } else {
        table.record(photo, i);
      }
    }
  });
  char extra[64];
  std::snprintf(extra, sizeof(extra), ", \"rectified\": %zu", rectified);
  return make_result("history_table", kOps, seconds, extra);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string{"BENCH_classifier.json"};
  constexpr int kReps = 3;

  const std::vector<std::function<CellResult()>> cells = {
      [] { return run_tree_fit(bench::scaled(35'000), kReps); },
      [] { return run_tree_fit(bench::scaled(140'000), kReps); },
      [] { return run_trainer_fit(bench::scaled(144'000), kReps); },
      [] { return run_tree_predict(kReps); },
      [] { return run_compiled_predict(kReps); },
      [] { return run_compiled_batch(8, kReps); },
      [] { return run_compiled_batch(64, kReps); },
      [] { return run_history_table(kReps); },
  };

  bench::Report report;
  report.bench = "classifier";
  report.reps = kReps;
  for (const auto& cell : cells) {
    const CellResult result = cell();
    std::puts(result.line.c_str());
    report.cells.push_back(result.json);
  }
  report.write(out_path);
  return 0;
}
