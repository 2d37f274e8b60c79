#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "stats/band_stats.hpp"
#include "stats/distribution.hpp"
#include "stats/histogram.hpp"
#include "stats/moments.hpp"

namespace dnj::stats {
namespace {

TEST(RunningMoments, EmptyIsZero) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.stddev(), 0.0);
}

TEST(RunningMoments, KnownValues) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(m.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
}

TEST(RunningMoments, SampleVarianceUsesNMinusOne) {
  RunningMoments m;
  for (double v : {1.0, 2.0, 3.0}) m.add(v);
  EXPECT_DOUBLE_EQ(m.sample_variance(), 1.0);
  EXPECT_NEAR(m.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningMoments, MeanAbsTracksLaplaceScale) {
  RunningMoments m;
  for (double v : {-2.0, 2.0, -4.0, 4.0}) m.add(v);
  EXPECT_DOUBLE_EQ(m.mean_abs(), 3.0);
}

class MomentsMerge : public ::testing::TestWithParam<int> {};

TEST_P(MomentsMerge, MergeEqualsSequential) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::normal_distribution<double> dist(3.0, 2.5);
  RunningMoments all, left, right;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const double v = dist(rng);
    all.add(v);
    (i < n / 3 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MomentsMerge, ::testing::Range(1, 6));

TEST(RunningMoments, MergeWithEmpty) {
  RunningMoments a, b;
  a.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Histogram, BinningAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-3.0);   // clamps to bin 0
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.pmf(0), 0.5);
  EXPECT_DOUBLE_EQ(h.cdf(9), 1.0);
}

TEST(Histogram, ExtremeValuesSaturateWithoutOverflow) {
  // Values whose bin index does not fit an int must still saturate into
  // the edge bins (the cast itself would otherwise overflow) — the
  // serving layer feeds unbounded latencies into fixed-range histograms.
  Histogram h(0.0, 10.0, 10);
  h.add(1e18);
  h.add(-1e18);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, QuantileInterpolatesWithinBins) {
  // 100 samples at the centres of [0, 100) with unit bins: the sample in
  // bin b contributes the segment [b, b+1) of the interpolated CDF, so
  // quantile(p) == 100 * p exactly for every p.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
}

TEST(Histogram, QuantileOnLumpedMass) {
  // All mass in one bin: every quantile interpolates inside that bin.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 4; ++i) h.add(3.2);  // bin 3 = [3, 4)
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, QuantileOfEmptyIsLo) {
  Histogram h(5.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(LaplaceFit, MleRecoversScale) {
  std::mt19937_64 rng(42);
  std::exponential_distribution<double> expd(1.0 / 3.0);  // |Laplace(b=3)|
  std::bernoulli_distribution sign(0.5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back((sign(rng) ? 1.0 : -1.0) * expd(rng));
  const LaplaceFit fit = LaplaceFit::mle(samples);
  EXPECT_NEAR(fit.b, 3.0, 0.1);
}

TEST(LaplaceFit, CdfPdfConsistency) {
  LaplaceFit f;
  f.b = 2.0;
  EXPECT_DOUBLE_EQ(f.cdf(0.0), 0.5);
  EXPECT_NEAR(f.cdf(1e9), 1.0, 1e-12);
  EXPECT_NEAR(f.cdf(-1e9), 0.0, 1e-12);
  EXPECT_NEAR(f.pdf(0.0), 0.25, 1e-12);
}

TEST(GaussianFit, MleRecoversParams) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> dist(-1.5, 4.0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(dist(rng));
  const GaussianFit fit = GaussianFit::mle(samples);
  EXPECT_NEAR(fit.mu, -1.5, 0.1);
  EXPECT_NEAR(fit.sigma, 4.0, 0.1);
}

TEST(GaussianFit, CdfAtMean) {
  GaussianFit g;
  g.mu = 3.0;
  g.sigma = 1.0;
  EXPECT_NEAR(g.cdf(3.0), 0.5, 1e-12);
}

TEST(KsDistance, GoodFitIsSmallBadFitIsLarge) {
  std::mt19937_64 rng(9);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(dist(rng));
  GaussianFit good = GaussianFit::mle(samples);
  GaussianFit bad;
  bad.mu = 5.0;
  bad.sigma = 0.3;
  EXPECT_LT(ks_distance(samples, good), 0.05);
  EXPECT_GT(ks_distance(samples, bad), 0.5);
}

TEST(LogLikelihood, PrefersTrueModel) {
  std::mt19937_64 rng(13);
  std::exponential_distribution<double> expd(1.0);
  std::bernoulli_distribution sign(0.5);
  std::vector<double> laplace_samples;
  for (int i = 0; i < 5000; ++i)
    laplace_samples.push_back((sign(rng) ? 1.0 : -1.0) * expd(rng));
  const LaplaceFit lf = LaplaceFit::mle(laplace_samples);
  const GaussianFit gf = GaussianFit::mle(laplace_samples);
  EXPECT_GT(log_likelihood(laplace_samples, lf), log_likelihood(laplace_samples, gf));
}

TEST(BandStats, AccumulatesPerBand) {
  BandStats bs;
  std::array<double, 64> block{};
  for (int k = 0; k < 64; ++k) block[static_cast<std::size_t>(k)] = k;
  bs.add_block(block);
  for (double& v : block) v = -v;
  bs.add_block(block);
  EXPECT_EQ(bs.band(5).count(), 2u);
  EXPECT_DOUBLE_EQ(bs.band(5).mean(), 0.0);
  EXPECT_DOUBLE_EQ(bs.band(5).stddev(), 5.0);
  const auto sigmas = bs.stddevs();
  EXPECT_DOUBLE_EQ(sigmas[63], 63.0);
  EXPECT_DOUBLE_EQ(sigmas[0], 0.0);
}

TEST(BandStats, MergeMatchesCombined) {
  std::mt19937_64 rng(21);
  std::normal_distribution<double> dist(0.0, 10.0);
  BandStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    std::array<double, 64> block{};
    for (double& v : block) v = dist(rng);
    all.add_block(block);
    (i % 2 ? a : b).add_block(block);
  }
  a.merge(b);
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(a.band(k).count(), all.band(k).count());
    EXPECT_NEAR(a.band(k).stddev(), all.band(k).stddev(), 1e-9);
  }
}

TEST(FitErrors, EmptyInputThrows) {
  EXPECT_THROW(LaplaceFit::mle({}), std::invalid_argument);
  EXPECT_THROW(GaussianFit::mle({}), std::invalid_argument);
  LaplaceFit f;
  EXPECT_THROW(ks_distance(std::vector<double>{}, f), std::invalid_argument);
}

}  // namespace
}  // namespace dnj::stats
