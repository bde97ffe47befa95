// Order statistics and samplers shared by every sbd_bench workload.
//
// Latency sets may hold +infinity: a failed or unfinished operation is
// entered as +inf, so it counts against every percentile it reaches
// instead of silently vanishing from the set.
#pragma once

#include <cstdint>
#include <vector>

namespace sbd::bench {

// Nearest-rank percentile (p in [0, 1]): the smallest value with at
// least p of the set at or below it. 0 for an empty set.
double percentile(std::vector<double> xs, double p);

double median(std::vector<double> xs);

// First, second and third quartiles by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// that quartiles computed from this program's output agree with its own.
// Needs at least two values; a single value is its own quartiles.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> xs);

// Geometric mean of positive values; 0 if any value is <= 0 or the set
// is empty.
double geomean(const std::vector<double>& xs);

// Zipf(theta) over [0, n): rank k is drawn with probability
// proportional to 1 / (k + 1)^theta, by inverse CDF over a table.
class ZipfCdf {
 public:
  ZipfCdf(uint32_t n, double theta);
  // Maps u in [0, 1) to a rank.
  uint32_t sample(double u) const;
  // P(rank <= k).
  double cdf(uint32_t k) const { return cdf_[k]; }

 private:
  std::vector<double> cdf_;
};

}  // namespace sbd::bench
