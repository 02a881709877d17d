// Bit-identity pin for the batched inference engine (ml/compiled_tree.h).
//
// CompiledTree must reproduce DecisionTree::predict_proba *bit for bit* —
// the golden eviction hashes and the shards=1 identity of the sharded
// replay both ride on it. The suite sweeps every golden-pinned tree recipe
// (the schedules/seeds of tests/ml/presort_golden_test.cpp), degenerate
// shapes (root-only leaf, single split, max-splits chain), every batch
// size 1..kMaxBatch, NaN routing, the arity-mismatch throw, and the
// seqlock word-codec round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/model_slot.h"
#include "ml/compiled_tree.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "util/rng.h"

namespace otac::ml {
namespace {

Dataset make_golden_dataset(std::size_t rows, std::size_t features,
                            std::uint64_t seed) {
  // Same generator as tests/ml/presort_golden_test.cpp, so the trees under
  // test are exactly the golden-pinned ones.
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

/// Assert scalar and batched compiled predictions match the reference tree
/// bit for bit over every row of `data`, for every batch size 1..kMaxBatch.
void expect_bit_identity(const DecisionTree& tree, const Dataset& data) {
  const CompiledTree compiled = CompiledTree::compile(tree);
  EXPECT_EQ(compiled.node_count(), tree.node_count());
  EXPECT_EQ(compiled.height(), tree.height());
  ASSERT_LE(compiled.required_arity(), data.num_features());

  // Scalar parity (exact double equality — both are widened floats).
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    ASSERT_EQ(compiled.predict_proba(data.row(i)),
              tree.predict_proba(data.row(i)))
        << "row " << i;
  }

  // Batched parity at every batch size. Dataset rows are contiguous
  // row-major storage, so row(0).data() with stride num_features() is the
  // arena layout the serving path uses.
  const float* rows = data.row(0).data();
  const std::size_t stride = data.num_features();
  std::vector<float> out(CompiledTree::kMaxBatch, -1.0F);
  for (std::size_t batch = 1; batch <= CompiledTree::kMaxBatch; ++batch) {
    for (std::size_t begin = 0; begin + batch <= data.num_rows();
         begin += batch) {
      compiled.predict_proba_batch(rows + begin * stride, batch, stride,
                                   out.data());
      for (std::size_t r = 0; r < batch; ++r) {
        ASSERT_EQ(static_cast<double>(out[r]),
                  tree.predict_proba(data.row(begin + r)))
            << "batch " << batch << " row " << begin + r;
      }
    }
  }
}

TEST(CompiledTree, GoldenFullFeatureTreeBitIdentical) {
  const Dataset data = make_golden_dataset(4000, 6, 99);
  DecisionTreeConfig config;
  config.max_splits = 30;
  DecisionTree tree{config};
  tree.fit(data);
  ASSERT_EQ(tree.split_count(), 30U);  // the golden-pinned shape
  expect_bit_identity(tree, data);
}

TEST(CompiledTree, GoldenFeatureSubsampledTreeBitIdentical) {
  const Dataset data = make_golden_dataset(4000, 6, 99);
  DecisionTreeConfig config;
  config.max_splits = 30;
  config.max_features = 2;
  config.feature_subsample_seed = 1234;
  DecisionTree tree{config};
  tree.fit(data);
  expect_bit_identity(tree, data);
}

TEST(CompiledTree, GoldenSmallTreeBitIdentical) {
  const Dataset data = make_golden_dataset(1000, 4, 5);
  DecisionTreeConfig config;
  config.max_splits = 15;
  DecisionTree tree{config};
  tree.fit(data);
  expect_bit_identity(tree, data);
}

TEST(CompiledTree, RootOnlyLeaf) {
  // One class -> no split is ever profitable -> a single leaf. max_splits=0
  // forces the shape regardless.
  Dataset data{{"f0", "f1"}};
  for (int i = 0; i < 50; ++i) {
    data.add_row(std::vector<float>{static_cast<float>(i), 1.0F}, 1);
  }
  DecisionTreeConfig config;
  config.max_splits = 0;
  DecisionTree tree{config};
  tree.fit(data);
  ASSERT_EQ(tree.node_count(), 1U);
  ASSERT_EQ(tree.height(), 0U);
  const CompiledTree compiled = CompiledTree::compile(tree);
  EXPECT_EQ(compiled.required_arity(), 0U);
  expect_bit_identity(tree, data);
  // height 0 => the batched walk runs zero levels and still lands on the
  // root leaf.
  float out = -1.0F;
  compiled.predict_proba_batch(data.row(0).data(), 1, data.num_features(),
                               &out);
  EXPECT_EQ(static_cast<double>(out), tree.predict_proba(data.row(0)));
}

TEST(CompiledTree, SingleSplit) {
  Dataset data{{"f0"}};
  for (int i = 0; i < 60; ++i) {
    data.add_row(std::vector<float>{static_cast<float>(i)}, i < 30 ? 0 : 1);
  }
  DecisionTreeConfig config;
  config.max_splits = 1;
  DecisionTree tree{config};
  tree.fit(data);
  ASSERT_EQ(tree.split_count(), 1U);
  ASSERT_EQ(tree.node_count(), 3U);
  expect_bit_identity(tree, data);
}

TEST(CompiledTree, MaxSplitsChain) {
  // A staircase label pattern on one feature grows a deep chain: splits
  // keep subdividing the same axis, exercising uneven leaf depths (some
  // rows finish their walk many levels before others — the self-loop
  // encoding must hold them in place).
  Dataset data{{"f0"}};
  for (int i = 0; i < 512; ++i) {
    data.add_row(std::vector<float>{static_cast<float>(i)},
                 (i / 32) % 2);
  }
  DecisionTreeConfig config;
  config.max_splits = 30;
  config.max_depth = 30;
  DecisionTree tree{config};
  tree.fit(data);
  ASSERT_GE(tree.height(), 4U);
  expect_bit_identity(tree, data);
}

TEST(CompiledTree, NanRoutesRightLikeScalar) {
  const Dataset data = make_golden_dataset(500, 4, 7);
  DecisionTreeConfig config;
  config.max_splits = 10;
  DecisionTree tree{config};
  tree.fit(data);
  const CompiledTree compiled = CompiledTree::compile(tree);

  std::vector<float> row(data.row(0).begin(), data.row(0).end());
  for (std::size_t poison = 0; poison < row.size(); ++poison) {
    std::vector<float> nan_row = row;
    nan_row[poison] = std::numeric_limits<float>::quiet_NaN();
    const double scalar_ref = tree.predict_proba(nan_row);
    EXPECT_EQ(compiled.predict_proba(nan_row), scalar_ref);
    float out = -1.0F;
    compiled.predict_proba_batch(nan_row.data(), 1, nan_row.size(), &out);
    EXPECT_EQ(static_cast<double>(out), scalar_ref);
  }
}

TEST(CompiledTree, ErrorSemanticsMatchDecisionTree) {
  EXPECT_THROW((void)CompiledTree{}.predict_proba(std::vector<float>{1.0F}),
               std::logic_error);
  EXPECT_THROW(CompiledTree::compile(DecisionTree{}), std::logic_error);

  const Dataset data = make_golden_dataset(500, 4, 7);
  DecisionTreeConfig config;
  config.max_splits = 10;
  DecisionTree tree{config};
  tree.fit(data);
  const CompiledTree compiled = CompiledTree::compile(tree);
  // Narrow rows behave identically: either both walks reach a split whose
  // feature is out of range (invalid_argument) or both land on a leaf first
  // and return the same probability. Sweep widths 0..3 so at least one
  // width is narrower than required_arity().
  ASSERT_GT(compiled.required_arity(), 1U);
  const std::span<const float> full = data.row(0);
  for (std::size_t width = 0; width < compiled.required_arity(); ++width) {
    const std::span<const float> narrow = full.subspan(0, width);
    bool tree_threw = false;
    bool compiled_threw = false;
    double tree_value = -1.0;
    double compiled_value = -2.0;
    try {
      tree_value = tree.predict_proba(narrow);
    } catch (const std::invalid_argument&) {
      tree_threw = true;
    }
    try {
      compiled_value = compiled.predict_proba(narrow);
    } catch (const std::invalid_argument&) {
      compiled_threw = true;
    }
    EXPECT_EQ(tree_threw, compiled_threw) << "width " << width;
    if (!tree_threw && !compiled_threw) {
      EXPECT_EQ(tree_value, compiled_value) << "width " << width;
    }
  }

  float out = 0.0F;
  EXPECT_THROW(
      compiled.predict_proba_batch(data.row(0).data(),
                                   CompiledTree::kMaxBatch + 1,
                                   data.num_features(), &out),
      std::invalid_argument);
}

TEST(CompiledTree, WordCodecRoundTripsExactly) {
  const Dataset data = make_golden_dataset(4000, 6, 99);
  DecisionTreeConfig config;
  config.max_splits = 30;
  DecisionTree tree{config};
  tree.fit(data);
  const CompiledTree compiled = CompiledTree::compile(tree);

  std::vector<std::uint32_t> words(compiled.word_count(), 0);
  compiled.encode_words(words);
  CompiledTree decoded;
  ASSERT_TRUE(CompiledTree::decode_words(words, decoded));
  EXPECT_EQ(decoded, compiled);

  // Decode into a previously used object (the per-shard reuse path).
  const Dataset small = make_golden_dataset(1000, 4, 5);
  DecisionTreeConfig small_config;
  small_config.max_splits = 15;
  DecisionTree small_tree{small_config};
  small_tree.fit(small);
  const CompiledTree small_compiled = CompiledTree::compile(small_tree);
  std::vector<std::uint32_t> small_words(small_compiled.word_count(), 0);
  small_compiled.encode_words(small_words);
  ASSERT_TRUE(CompiledTree::decode_words(small_words, decoded));
  EXPECT_EQ(decoded, small_compiled);

  // Implausible images are rejected, not trusted.
  CompiledTree sink;
  EXPECT_FALSE(CompiledTree::decode_words(std::vector<std::uint32_t>{}, sink));
  std::vector<std::uint32_t> truncated(words.begin(), words.begin() + 4);
  EXPECT_FALSE(CompiledTree::decode_words(truncated, sink));
}

TEST(ModelSlot, StoreLoadRoundTripsExactly) {
  const Dataset data = make_golden_dataset(4000, 6, 99);
  DecisionTreeConfig config;
  config.max_splits = 30;
  DecisionTree tree{config};
  tree.fit(data);
  const CompiledTree compiled = CompiledTree::compile(tree);
  ASSERT_TRUE(otac::ModelSlot::fits(compiled));

  otac::ModelSlot slot;
  CompiledTree loaded;
  EXPECT_FALSE(slot.load(loaded));  // nothing published yet
  EXPECT_EQ(slot.publish_count(), 0U);

  slot.store(compiled);
  EXPECT_EQ(slot.publish_count(), 1U);
  ASSERT_TRUE(slot.load(loaded));
  EXPECT_EQ(loaded, compiled);

  // Re-publish a different tree; the reader-owned snapshot is reused.
  const Dataset small = make_golden_dataset(1000, 4, 5);
  DecisionTreeConfig small_config;
  small_config.max_splits = 15;
  DecisionTree small_tree{small_config};
  small_tree.fit(small);
  const CompiledTree small_compiled = CompiledTree::compile(small_tree);
  slot.store(small_compiled);
  EXPECT_EQ(slot.publish_count(), 2U);
  ASSERT_TRUE(slot.load(loaded));
  EXPECT_EQ(loaded, small_compiled);
}

TEST(ModelSlot, RejectsEmptyAndOversizedTrees) {
  otac::ModelSlot slot;
  EXPECT_THROW(slot.store(CompiledTree{}), std::length_error);

  // Hand-build an oversized-but-structurally-valid image through the word
  // codec (kMaxNodes + 1 leaves): no fitted tree reaches this size, but the
  // slot must still reject it rather than overrun a generation.
  const std::size_t count = otac::ModelSlot::kMaxNodes + 1;
  std::vector<std::uint32_t> words(CompiledTree::kHeaderWords +
                                   CompiledTree::kWordsPerNode * count);
  words[0] = static_cast<std::uint32_t>(count);
  words[1] = 0;  // height
  words[2] = 0;  // required arity
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t* node =
        words.data() + CompiledTree::kHeaderWords + CompiledTree::kWordsPerNode * i;
    node[0] = 0;                                  // feature
    node[1] = static_cast<std::uint32_t>(i);      // left: self-loop leaf
    node[2] = static_cast<std::uint32_t>(i);      // right
    node[3] = 0;                                  // threshold bits
    node[4] = 0x3F000000U;                        // probability bits (0.5F)
  }
  CompiledTree oversized;
  ASSERT_TRUE(CompiledTree::decode_words(words, oversized));
  ASSERT_GT(oversized.node_count(), otac::ModelSlot::kMaxNodes);
  EXPECT_FALSE(otac::ModelSlot::fits(oversized));
  EXPECT_THROW(slot.store(oversized), std::length_error);
  // The failed publish left the slot empty and unpublished.
  CompiledTree loaded;
  EXPECT_FALSE(slot.load(loaded));
  EXPECT_EQ(slot.publish_count(), 0U);
}

}  // namespace
}  // namespace otac::ml
