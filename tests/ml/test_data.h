// Shared synthetic datasets for classifier tests.
#pragma once

#include <cmath>

#include "ml/dataset.h"
#include "util/rng.h"

namespace otac::ml::testing {

/// Two Gaussian blobs separated along the first two of `dims` features;
/// `noise` controls overlap (0.5 ~ well separated, 2.0 ~ heavy overlap).
inline Dataset gaussian_blobs(std::size_t n, std::size_t dims, double noise,
                              std::uint64_t seed, double positive_fraction = 0.5) {
  std::vector<std::string> names;
  names.reserve(dims);
  for (std::size_t f = 0; f < dims; ++f) {
    names.push_back(std::string{"f"}.append(std::to_string(f)));
  }
  Dataset data{std::move(names)};
  Rng rng{seed};
  std::vector<float> row(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(positive_fraction) ? 1 : 0;
    const double center = label == 1 ? 1.0 : -1.0;
    for (std::size_t f = 0; f < dims; ++f) {
      const double mean = f < 2 ? center : 0.0;
      row[f] = static_cast<float>(mean + noise * rng.normal());
    }
    data.add_row(row, label);
  }
  return data;
}

/// XOR-style dataset no linear model can fit but trees/NNs can.
inline Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data{{"x", "y"}};
  Rng rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float y = static_cast<float>(rng.uniform(-1.0, 1.0));
    const int label = (x > 0) != (y > 0) ? 1 : 0;
    data.add_row(std::vector<float>{x, y}, label);
  }
  return data;
}

/// Accuracy of a fitted classifier on a dataset.
template <typename C>
double accuracy_on(const C& classifier, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    if (classifier.predict(data.row(i)) == data.label(i)) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(data.num_rows());
}

}  // namespace otac::ml::testing
