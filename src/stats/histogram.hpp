// Fixed-range histogram used to characterize the per-band DCT coefficient
// distributions (the paper builds "individual histograms" per frequency band
// in Algorithm 1 before extracting sigma) and, behind obs::HistogramHandle,
// the serving layer's latency distributions and their p50/p95/p99.
#pragma once

#include <cstdint>
#include <vector>

namespace dnj::stats {

class Histogram {
 public:
  /// Bins the half-open range [lo, hi) uniformly into `bins` buckets.
  Histogram(double lo, double hi, int bins);

  /// Adds a sample; values outside [lo, hi) land in saturating edge bins.
  void add(double x);

  int bins() const { return static_cast<int>(counts_.size()); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::uint64_t count(int bin) const { return counts_.at(bin); }
  std::uint64_t total() const { return total_; }

  /// Centre value of a bin.
  double bin_center(int bin) const;
  /// Empirical probability mass of a bin.
  double pmf(int bin) const;
  /// Empirical CDF evaluated at the right edge of `bin`.
  double cdf(int bin) const;

  /// Streaming quantile: the value v with CDF(v) >= p, linearly
  /// interpolated inside the bin the rank lands in (samples in a bin are
  /// treated as uniformly spread over it). p is clamped to [0, 1];
  /// quantile(0) is the left edge of the first occupied bin, quantile(1)
  /// the right edge of the last. An empty histogram returns lo(). Values
  /// that saturated into the edge bins are quantified at those bins, so
  /// quantiles near 0/1 are floor/ceiling estimates when the range clipped.
  double quantile(double p) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace dnj::stats
