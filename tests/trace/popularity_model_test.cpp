#include "trace/popularity_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/social_model.h"

namespace otac {
namespace {

TEST(Lomax, CdfBasics) {
  EXPECT_DOUBLE_EQ(lomax_cdf(0.0, 1.5, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(lomax_cdf(-1.0, 1.5, 2.0), 0.0);
  EXPECT_GT(lomax_cdf(1.0, 1.5, 2.0), 0.0);
  EXPECT_LT(lomax_cdf(1.0, 1.5, 2.0), 1.0);
  EXPECT_NEAR(lomax_cdf(1e12, 1.5, 2.0), 1.0, 1e-6);
}

TEST(Lomax, CdfInverseRoundTrip) {
  for (const double u : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const double x = lomax_cdf_inverse(u, 1.2, 3.0);
    EXPECT_NEAR(lomax_cdf(x, 1.2, 3.0), u, 1e-9) << "u=" << u;
  }
}

TEST(Sigmoid, Basics) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
}

TEST(Bisect, FindsRootOfMonotoneFunction) {
  const double x = bisect_nondecreasing(
      0.0, 1.0, 9.0, 60, [](double v) { return v * v; });
  EXPECT_NEAR(x, 3.0, 1e-6);  // hi auto-expands past the initial bracket
}

class PopularityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_owners = 2000;
    config_.num_photos = 40000;
    Rng owner_rng{7};
    auto owners = generate_owners(config_, owner_rng);
    Rng photo_rng{8};
    std::vector<PhotoMeta> photos;
    photos.reserve(config_.num_photos);
    for (std::uint32_t i = 0; i < config_.num_photos; ++i) {
      PhotoMeta photo;
      photo.owner = static_cast<UserId>(photo_rng.next_below(owners.size()));
      photo.type = type_from_index(static_cast<int>(photo_rng.next_below(12)));
      photo.size_bytes = 32'000;
      photo.upload_time =
          SimTime{photo_rng.uniform_int(0, 8 * kSecondsPerDay)};
      photos.push_back(photo);
    }
    catalog_ = PhotoCatalog{std::move(photos), std::move(owners)};
    mass_.assign(config_.num_photos, 0.8);
  }

  WorkloadConfig config_;
  PhotoCatalog catalog_;
  std::vector<double> mass_;
  ThreadPool pool_;
};

TEST_F(PopularityFixture, ScoresAreStandardized) {
  Rng rng{42};
  const auto result =
      PopularityModel{}.assign(config_, catalog_, mass_, rng, pool_);
  double mean = 0.0;
  for (const float z : result.score) mean += z;
  mean /= result.score.size();
  double var = 0.0;
  for (const float z : result.score) var += (z - mean) * (z - mean);
  var /= result.score.size();
  EXPECT_NEAR(mean, 0.0, 1e-3);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST_F(PopularityFixture, OneTimeFractionMatchesTarget) {
  Rng rng{42};
  const auto result =
      PopularityModel{}.assign(config_, catalog_, mass_, rng, pool_);
  std::size_t one_time = 0;
  for (const std::uint32_t c : result.count) {
    ASSERT_GE(c, 1u);
    if (c == 1) ++one_time;
  }
  const double fraction =
      static_cast<double>(one_time) / result.count.size();
  EXPECT_NEAR(fraction, config_.one_time_object_fraction, 0.02);
}

TEST_F(PopularityFixture, AccessShareMatchesTarget) {
  Rng rng{42};
  const auto result =
      PopularityModel{}.assign(config_, catalog_, mass_, rng, pool_);
  double total = 0.0;
  double one_time = 0.0;
  for (const std::uint32_t c : result.count) {
    total += c;
    if (c == 1) one_time += 1.0;
  }
  EXPECT_NEAR(one_time / total, config_.one_time_access_share, 0.03);
}

TEST_F(PopularityFixture, HighScorePhotosGetMoreAccesses) {
  Rng rng{42};
  const auto result =
      PopularityModel{}.assign(config_, catalog_, mass_, rng, pool_);
  double top_mean = 0.0, bottom_mean = 0.0;
  std::size_t top_n = 0, bottom_n = 0;
  for (std::size_t i = 0; i < result.count.size(); ++i) {
    if (result.score[i] > 1.0) {
      top_mean += result.count[i];
      ++top_n;
    } else if (result.score[i] < -1.0) {
      bottom_mean += result.count[i];
      ++bottom_n;
    }
  }
  ASSERT_GT(top_n, 100u);
  ASSERT_GT(bottom_n, 100u);
  EXPECT_GT(top_mean / top_n, 2.5 * (bottom_mean / bottom_n));
}

TEST_F(PopularityFixture, CountsRespectCap) {
  config_.max_accesses_per_photo = 16;
  Rng rng{42};
  const auto result =
      PopularityModel{}.assign(config_, catalog_, mass_, rng, pool_);
  for (const std::uint32_t c : result.count) EXPECT_LE(c, 16u);
}

TEST_F(PopularityFixture, RejectsMismatchedMass) {
  Rng rng{42};
  std::vector<double> wrong(10, 0.5);
  EXPECT_THROW(PopularityModel{}.assign(config_, catalog_, wrong, rng, pool_),
               std::invalid_argument);
}

TEST_F(PopularityFixture, RejectsInfeasibleShare) {
  config_.one_time_access_share = 0.9;  // > object fraction => mu < 1
  Rng rng{42};
  EXPECT_THROW(PopularityModel{}.assign(config_, catalog_, mass_, rng, pool_),
               std::invalid_argument);
}

TEST(UploadHourBoost, PeaksAtEightPm) {
  EXPECT_NEAR(PopularityModel::upload_hour_boost(20), 1.0, 1e-9);
  EXPECT_LT(PopularityModel::upload_hour_boost(8), -0.99);
}

}  // namespace
}  // namespace otac
