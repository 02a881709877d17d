// Row-major tabular dataset for binary classification.
//
// Labels follow the paper's convention: class 1 ("positive") is
// one-time-access, class 0 ("negative") is non-one-time-access. Instance
// weights carry the cost matrix of §4.4.1 into every learner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace otac::ml {

struct DatasetSplit;

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names);

  [[nodiscard]] std::size_t num_rows() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t num_features() const noexcept {
    return feature_names_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }

  [[nodiscard]] const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }

  /// Reserve storage for `rows` rows.
  void reserve(std::size_t rows);

  /// Append a row. `features` must match num_features(); label is 0/1;
  /// weight must be positive.
  void add_row(std::span<const float> features, int label, float weight = 1.0F);

  [[nodiscard]] std::span<const float> row(std::size_t i) const noexcept {
    return {values_.data() + i * num_features(), num_features()};
  }
  [[nodiscard]] int label(std::size_t i) const noexcept { return labels_[i]; }
  [[nodiscard]] float weight(std::size_t i) const noexcept { return weights_[i]; }
  [[nodiscard]] std::span<const float> weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] float value(std::size_t i, std::size_t f) const noexcept {
    return values_[i * num_features() + f];
  }

  [[nodiscard]] std::span<const int> labels() const noexcept { return labels_; }

  /// Weighted count of positive/total (used for priors and Gini roots).
  [[nodiscard]] double positive_weight() const noexcept;
  [[nodiscard]] double total_weight() const noexcept;

  /// New dataset keeping only the given rows (indices may repeat —
  /// bootstrap sampling uses that).
  [[nodiscard]] Dataset subset_rows(std::span<const std::size_t> indices) const;

  /// New dataset keeping only the given feature columns, in that order.
  [[nodiscard]] Dataset subset_features(
      std::span<const std::size_t> features) const;

  /// Replace every weight (e.g. boosting reweighting). Must match rows.
  void set_weights(std::span<const float> weights);

  /// Apply the paper's cost matrix: multiply the weight of every negative
  /// (non-one-time) row by v, so false positives cost v (§4.4.1 Table 4).
  void apply_cost_matrix(double false_positive_cost);

  /// Deterministic shuffled split: fraction*(n) rows into test.
  [[nodiscard]] DatasetSplit train_test_split(double test_fraction,
                                              Rng& rng) const;

  /// K-fold partition of row indices (shuffled, near-equal sizes).
  [[nodiscard]] std::vector<std::vector<std::size_t>> kfold_indices(
      std::size_t folds, Rng& rng) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<float> values_;  // row-major
  std::vector<int> labels_;
  std::vector<float> weights_;
};

struct DatasetSplit {
  Dataset train;
  Dataset test;
};

}  // namespace otac::ml
