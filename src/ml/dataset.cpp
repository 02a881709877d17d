#include "ml/dataset.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace otac::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {
  if (feature_names_.empty()) {
    throw std::invalid_argument("Dataset: need at least one feature");
  }
}

void Dataset::reserve(std::size_t rows) {
  values_.reserve(rows * num_features());
  labels_.reserve(rows);
  weights_.reserve(rows);
}

void Dataset::add_row(std::span<const float> features, int label,
                      float weight) {
  if (features.size() != num_features()) {
    throw std::invalid_argument("Dataset: feature arity mismatch");
  }
  if (label != 0 && label != 1) {
    throw std::invalid_argument("Dataset: label must be 0 or 1");
  }
  if (!(weight > 0.0F)) {
    throw std::invalid_argument("Dataset: weight must be positive");
  }
  values_.insert(values_.end(), features.begin(), features.end());
  labels_.push_back(label);
  weights_.push_back(weight);
}

double Dataset::positive_weight() const noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == 1) total += static_cast<double>(weights_[i]);
  }
  return total;
}

double Dataset::total_weight() const noexcept {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

Dataset Dataset::subset_rows(std::span<const std::size_t> indices) const {
  Dataset out{feature_names_};
  out.values_.reserve(indices.size() * num_features());
  out.labels_.reserve(indices.size());
  out.weights_.reserve(indices.size());
  for (const std::size_t i : indices) {
    if (i >= num_rows()) throw std::out_of_range("Dataset: row index");
    const auto r = row(i);
    out.values_.insert(out.values_.end(), r.begin(), r.end());
    out.labels_.push_back(labels_[i]);
    out.weights_.push_back(weights_[i]);
  }
  return out;
}

Dataset Dataset::subset_features(std::span<const std::size_t> features) const {
  std::vector<std::string> names;
  names.reserve(features.size());
  for (const std::size_t f : features) {
    if (f >= num_features()) throw std::out_of_range("Dataset: feature index");
    names.push_back(feature_names_[f]);
  }
  Dataset out{std::move(names)};
  out.values_.reserve(num_rows() * features.size());
  for (std::size_t i = 0; i < num_rows(); ++i) {
    for (const std::size_t f : features) {
      out.values_.push_back(value(i, f));
    }
  }
  out.labels_ = labels_;
  out.weights_ = weights_;
  return out;
}

void Dataset::set_weights(std::span<const float> weights) {
  if (weights.size() != num_rows()) {
    throw std::invalid_argument("Dataset: weight count mismatch");
  }
  weights_.assign(weights.begin(), weights.end());
}

void Dataset::apply_cost_matrix(double false_positive_cost) {
  if (!(false_positive_cost > 0.0)) {
    throw std::invalid_argument("Dataset: cost must be positive");
  }
  for (std::size_t i = 0; i < num_rows(); ++i) {
    if (labels_[i] == 0) {
      weights_[i] =
          static_cast<float>(static_cast<double>(weights_[i]) *
                             false_positive_cost);
    }
  }
}

DatasetSplit Dataset::train_test_split(double test_fraction, Rng& rng) const {
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    throw std::invalid_argument("Dataset: test_fraction must be in (0,1)");
  }
  std::vector<std::size_t> order(num_rows());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  const auto test_count = static_cast<std::size_t>(
      static_cast<double>(num_rows()) * test_fraction);
  const std::span test_span{order.data(), test_count};
  const std::span train_span{order.data() + test_count,
                             order.size() - test_count};
  return DatasetSplit{subset_rows(train_span), subset_rows(test_span)};
}

std::vector<std::vector<std::size_t>> Dataset::kfold_indices(std::size_t folds,
                                                             Rng& rng) const {
  if (folds < 2 || folds > num_rows()) {
    throw std::invalid_argument("Dataset: invalid fold count");
  }
  std::vector<std::size_t> order(num_rows());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<std::vector<std::size_t>> out(folds);
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[i % folds].push_back(order[i]);
  }
  return out;
}

}  // namespace otac::ml
