#include "stats.h"

#include <algorithm>
#include <cmath>

namespace sbd::bench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.empty()) return {};
  if (xs.size() == 1) return {xs[0], xs[0], xs[0]};
  std::sort(xs.begin(), xs.end());
  const long n = static_cast<long>(xs.size());
  const long m = n + 1;
  double q[3];
  for (long i = 1; i <= 3; i++) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    // Terms of weight 0 are skipped: inf * 0 would turn a quartile that
    // does not reach an infinite value into NaN.
    double sum = 0;
    if (delta != 4) sum += xs[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta);
    if (delta != 0) sum += xs[static_cast<size_t>(j)] * static_cast<double>(delta);
    q[i - 1] = sum / 4.0;
  }
  return {q[0], q[1], q[2]};
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double logSum = 0;
  for (double x : xs) {
    if (!(x > 0)) return 0;
    logSum += std::log(x);
  }
  return std::exp(logSum / static_cast<double>(xs.size()));
}

ZipfCdf::ZipfCdf(uint32_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint32_t i = 0; i < n; i++) sum += 1.0 / std::pow(i + 1.0, theta);
  double acc = 0;
  for (uint32_t i = 0; i < n; i++) {
    acc += 1.0 / std::pow(i + 1.0, theta) / sum;
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;
}

uint32_t ZipfCdf::sample(double u) const {
  return static_cast<uint32_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
}

}  // namespace sbd::bench
