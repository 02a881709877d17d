// Golden-equivalence pin for the presort-partition CART rewrite.
//
// The serialized-tree hashes below were captured from the seed splitter
// (per-node gather + std::sort, commit 34e37c1) on a fixed synthetic
// dataset. The presorted splitter must produce the *identical* tree —
// same splits, thresholds, probabilities, and importance — which holds
// because unit weights make the double accumulations exact, thresholds
// are midpoints of distinct boundary values, and the RNG draw sequence of
// feature subsampling is unchanged. Any reordering bug, tie-handling
// slip, or float deviation changes the serialize() blob and trips these.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "util/rng.h"

namespace otac::ml {
namespace {

Dataset make_golden_dataset(std::size_t rows, std::size_t features,
                            std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f) {
    names.push_back(std::string{"f"}.append(std::to_string(f)));
  }
  Dataset data{names};
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

/// Shaped like the trainer's set: seven integer-valued features with the
/// trainer's distinct-value counts scaled down (a binary flag up to a few
/// thousand levels), one continuous feature and one constant feature.
/// Integer-valued floats share their low mantissa digit, so the presort's
/// radix passes over it are identities; the constant feature's are all
/// identities, and every one of its segments is constant.
Dataset make_integer_dataset(std::size_t rows, std::uint64_t seed) {
  constexpr std::int64_t kLevels[] = {2, 12, 24, 416, 452, 4474, 4483};
  std::vector<std::string> names;
  for (std::size_t f = 0; f < 9; ++f) {
    names.push_back(std::string{"f"}.append(std::to_string(f)));
  }
  Dataset data{names};
  Rng rng{seed};
  std::vector<float> row(9);
  for (std::size_t i = 0; i < rows; ++i) {
    float score = 0.0F;
    for (std::size_t f = 0; f < 7; ++f) {
      const std::int64_t level = rng.uniform_int(0, kLevels[f] - 1);
      row[f] = static_cast<float>(level);
      score += static_cast<float>(level) / static_cast<float>(kLevels[f]) *
               (f % 2 == 0 ? 1.0F : -0.7F);
    }
    row[7] = static_cast<float>(rng.normal());
    row[8] = 3.0F;
    score += 0.3F * row[7];
    const int label =
        score + static_cast<float>(rng.uniform(-0.4, 0.4)) > 0.6F ? 1 : 0;
    data.add_row(row, label, 1.0F);
  }
  return data;
}

std::uint64_t blob_hash(const std::string& blob) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : blob) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(PresortGolden, FullFeatureTreeMatchesSeedSplitter) {
  const Dataset data = make_golden_dataset(4000, 6, 99);
  DecisionTreeConfig config;
  config.max_splits = 30;
  DecisionTree tree{config};
  tree.fit(data);

  EXPECT_EQ(tree.split_count(), 30U);
  EXPECT_EQ(tree.height(), 8U);
  EXPECT_EQ(tree.node_count(), 61U);
  EXPECT_EQ(blob_hash(tree.serialize()), 0x5715a8d9e1cde63bULL)
      << "serialized tree diverged from the seed splitter";
}

TEST(PresortGolden, FeatureSubsampledTreeMatchesSeedSplitter) {
  // Random-forest mode: pins the RNG draw sequence of feature subsampling
  // on top of the split arithmetic.
  const Dataset data = make_golden_dataset(4000, 6, 99);
  DecisionTreeConfig config;
  config.max_splits = 30;
  config.max_features = 2;
  config.feature_subsample_seed = 1234;
  DecisionTree tree{config};
  tree.fit(data);

  EXPECT_EQ(tree.split_count(), 30U);
  EXPECT_EQ(blob_hash(tree.serialize()), 0x184bb9d7b7e7e7f1ULL)
      << "serialized tree diverged from the seed splitter";
}

// The pins below were captured from the splitter at commit bfb9f06, before
// its partition and positive-mass lookup went branch-free and its presort
// began skipping identity radix passes.

TEST(PresortGolden, ClassUniformCostWeightsMatchParentSplitter) {
  // The trainer's weights: 1 for positives, v for negatives. Non-unit
  // weights make the double sums inexact, so these pin the operand order.
  const std::uint64_t expected[] = {0x4e25449b1f78951eULL,
                                    0x78bb53e82f9aa174ULL};
  const double costs[] = {2.0, 3.0};
  for (std::size_t i = 0; i < 2; ++i) {
    Dataset data = make_golden_dataset(4000, 6, 99);
    data.apply_cost_matrix(costs[i]);
    DecisionTree tree{DecisionTreeConfig{}};
    tree.fit(data);
    EXPECT_EQ(tree.split_count(), 30U);
    EXPECT_EQ(blob_hash(tree.serialize()), expected[i]) << "v = " << costs[i];
  }
}

TEST(PresortGolden, NonUniformWeightsMatchParentSplitter) {
  // AdaBoost-style per-row weights take the row-indexed weight path.
  Dataset data = make_golden_dataset(4000, 6, 99);
  Rng rng{31};
  std::vector<float> weights(data.num_rows());
  for (float& w : weights) w = static_cast<float>(rng.uniform(0.25, 4.0));
  data.set_weights(weights);
  DecisionTree tree{DecisionTreeConfig{}};
  tree.fit(data);
  EXPECT_EQ(tree.split_count(), 30U);
  EXPECT_EQ(blob_hash(tree.serialize()), 0x2deff57bb00b4481ULL);
}

TEST(PresortGolden, IntegerAndConstantFeaturesMatchParentSplitter) {
  Dataset data = make_integer_dataset(12000, 17);
  data.apply_cost_matrix(2.0);
  DecisionTree tree{DecisionTreeConfig{}};
  tree.fit(data);
  EXPECT_EQ(tree.split_count(), 30U);
  EXPECT_EQ(tree.feature_importance()[8], 0.0);  // the constant feature
  EXPECT_EQ(blob_hash(tree.serialize()), 0xa5fa877f64f21928ULL);
}

TEST(PresortGolden, SubsampledCostWeightedTreeMatchesParentSplitter) {
  Dataset data = make_integer_dataset(12000, 23);
  data.apply_cost_matrix(3.0);
  DecisionTreeConfig config;
  config.max_features = 3;
  config.feature_subsample_seed = 77;
  DecisionTree tree{config};
  tree.fit(data);
  EXPECT_EQ(tree.split_count(), 30U);
  EXPECT_EQ(blob_hash(tree.serialize()), 0xb6809e61d1527197ULL);
}

TEST(PresortGolden, RefitProducesIdenticalTree) {
  // fit() must be stateless across calls: the presort index is rebuilt per
  // fit, so refitting the same data yields the same blob.
  const Dataset data = make_golden_dataset(1000, 4, 5);
  DecisionTreeConfig config;
  config.max_splits = 15;
  DecisionTree tree{config};
  tree.fit(data);
  const std::string first = tree.serialize();
  tree.fit(data);
  EXPECT_EQ(tree.serialize(), first);
}

}  // namespace
}  // namespace otac::ml
