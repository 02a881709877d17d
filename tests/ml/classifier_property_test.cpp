// Cross-classifier property tests: contracts every learner must satisfy,
// parameterized over all seven Table-1 algorithms.
#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>

#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "tests/ml/test_data.h"

namespace otac::ml {
namespace {

const ClassifierFactory kFactories[] = {
    [] { return std::make_unique<GaussianNaiveBayes>(); },
    [] { return std::make_unique<DecisionTree>(); },
    [] { return std::make_unique<MlpClassifier>(); },
    [] { return std::make_unique<KnnClassifier>(); },
    [] { return std::make_unique<AdaBoost>(); },
    [] { return std::make_unique<RandomForest>(); },
    [] { return std::make_unique<LogisticRegression>(); },
};

// gtest prints a parameter it has no printer for as its raw bytes, and ctest
// names every case after that print-out. So the parameter holds no pointer
// (whose bytes change with each run's address-space layout) and no padding:
// the case names are the same on every build and every run.
struct NamedFactory {
  char label[32];
  std::size_t index;  // into kFactories

  [[nodiscard]] std::unique_ptr<Classifier> factory() const {
    return kFactories[index]();
  }
};
static_assert(std::has_unique_object_representations_v<NamedFactory>);

const NamedFactory kCases[] = {
    {"NaiveBayes", 0}, {"DecisionTree", 1}, {"MLP", 2},      {"KNN", 3},
    {"AdaBoost", 4},   {"RandomForest", 5}, {"Logistic", 6},
};

class ClassifierProperty : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(ClassifierProperty, ProbabilitiesAreProbabilities) {
  const Dataset data = testing::gaussian_blobs(800, 3, 1.0, 42);
  const auto model = GetParam().factory();
  model->fit(data);
  Rng rng{3};
  for (int i = 0; i < 300; ++i) {
    std::vector<float> row(3);
    for (auto& v : row) v = static_cast<float>(3.0 * rng.normal());
    const double p = model->predict_proba(row);
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
    ASSERT_EQ(model->predict(row), p >= 0.5 ? 1 : 0);
  }
}

TEST_P(ClassifierProperty, BeatsChanceOnSeparableBlobs) {
  const Dataset data = testing::gaussian_blobs(1500, 3, 0.7, 42);
  Rng rng{5};
  const auto split = data.train_test_split(0.3, rng);
  const auto model = GetParam().factory();
  model->fit(split.train);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < split.test.num_rows(); ++i) {
    correct += model->predict(split.test.row(i)) == split.test.label(i);
  }
  const double accuracy = static_cast<double>(correct) /
                          static_cast<double>(split.test.num_rows());
  EXPECT_GT(accuracy, 0.8) << GetParam().label;
}

TEST_P(ClassifierProperty, DeterministicRefit) {
  const Dataset data = testing::gaussian_blobs(600, 3, 1.0, 42);
  const auto a = GetParam().factory();
  const auto b = GetParam().factory();
  a->fit(data);
  b->fit(data);
  Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    std::vector<float> row(3);
    for (auto& v : row) v = static_cast<float>(rng.normal());
    ASSERT_DOUBLE_EQ(a->predict_proba(row), b->predict_proba(row))
        << GetParam().label;
  }
}

TEST_P(ClassifierProperty, RefitReplacesOldModel) {
  // Fit on one problem, then refit on the inverted problem: predictions
  // must flip, proving fit() does not accumulate stale state.
  Dataset first{{"x"}};
  Dataset second{{"x"}};
  Rng rng{17};
  for (int i = 0; i < 400; ++i) {
    const float x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const int label = x > 0 ? 1 : 0;
    first.add_row(std::vector<float>{x}, label);
    second.add_row(std::vector<float>{x}, 1 - label);
  }
  const auto model = GetParam().factory();
  model->fit(first);
  EXPECT_EQ(model->predict(std::vector<float>{0.8F}), 1) << GetParam().label;
  model->fit(second);
  EXPECT_EQ(model->predict(std::vector<float>{0.8F}), 0) << GetParam().label;
}

TEST_P(ClassifierProperty, CostWeightsShiftDecisionsTowardNegatives) {
  // Heavily weighting the negative class must not *increase* the number of
  // positive predictions on ambiguous data.
  const Dataset data = testing::gaussian_blobs(1500, 2, 2.0, 42);
  const auto count_positives = [&](double cost) {
    Dataset weighted = data;
    weighted.apply_cost_matrix(cost);
    const auto model = GetParam().factory();
    model->fit(weighted);
    std::size_t positives = 0;
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      positives += model->predict(data.row(i)) == 1;
    }
    return positives;
  };
  EXPECT_LE(count_positives(4.0), count_positives(1.0) + data.num_rows() / 50)
      << GetParam().label;
}

TEST_P(ClassifierProperty, NameIsNonEmpty) {
  EXPECT_FALSE(GetParam().factory()->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllClassifiers, ClassifierProperty, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      return std::string{info.param.label};
    });

}  // namespace
}  // namespace otac::ml
