#include "stats/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace dnj::stats {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins <= 0) throw std::invalid_argument("Histogram: bins must be positive");
  width_ = (hi - lo) / bins;
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::add(double x) {
  // Saturate in double before the int cast: values far outside the range
  // (e.g. a pathological multi-hour latency fed by the serving layer)
  // would otherwise overflow the cast itself. +inf saturates into the top
  // bin like any too-large value; NaN and -inf land in bin 0.
  const double pos = (x - lo_) / width_;
  int bin = 0;
  if (pos >= static_cast<double>(bins())) {
    bin = bins() - 1;
  } else if (pos > 0.0) {
    bin = static_cast<int>(pos);
  }
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_center(int bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::pmf(int bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double Histogram::cdf(int bin) const {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (int b = 0; b <= bin; ++b) acc += count(b);
  return static_cast<double>(acc) / static_cast<double>(total_);
}

double Histogram::quantile(double p) const {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(total_);
  double acc = 0.0;
  for (int b = 0; b < bins(); ++b) {
    const double c = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
    if (c == 0.0) continue;
    if (acc + c >= rank) {
      // rank falls inside bin b; spread its samples uniformly across it.
      const double frac = std::clamp((rank - acc) / c, 0.0, 1.0);
      return lo_ + (static_cast<double>(b) + frac) * width_;
    }
    acc += c;
  }
  // Numerical slack only: the loop always crosses `rank` at the last
  // occupied bin because acc reaches total_ >= rank there.
  return hi_;
}

}  // namespace dnj::stats
