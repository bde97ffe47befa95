// Self-test of the order statistics and the Zipf sampler the benchmark
// reports with. Exits 1 on the first wrong answer.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  const bool ok = std::isinf(want) ? got == want : std::fabs(got - want) <= 1e-9 * (1 + std::fabs(want));
  if (!ok) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    failures++;
  }
}

}  // namespace

int main() {
  using namespace sbd::bench;
  const double inf = std::numeric_limits<double>::infinity();

  // Nearest rank: p50 of 1..10 is 5, p95 is 10, p0 is the minimum.
  std::vector<double> ten;
  for (int i = 10; i >= 1; i--) ten.push_back(i);
  expect_near(percentile(ten, 0.50), 5, "p50 of 1..10");
  expect_near(percentile(ten, 0.95), 10, "p95 of 1..10");
  expect_near(percentile(ten, 0.90), 9, "p90 of 1..10");
  expect_near(percentile(ten, 0.0), 1, "p0 of 1..10");
  expect_near(percentile({}, 0.5), 0, "percentile of an empty set");

  // Failures are +inf: they push the tail, not the middle.
  std::vector<double> withFailures = {1, 2, 3, 4, 5, 6, 7, 8, 9, inf};
  expect_near(percentile(withFailures, 0.50), 5, "p50 with one failure in ten");
  expect_near(percentile(withFailures, 0.90), 9, "p90 with one failure in ten");
  expect_near(percentile(withFailures, 0.95), inf, "p95 with one failure in ten");

  expect_near(median({3, 1, 2}), 2, "median of three");
  expect_near(median({4, 1, 3, 2}), 2.5, "median of four");

  // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(ten);
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  // Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles q5 = quartiles({16, 1, 8, 2, 4});
  expect_near(q5.q1, 1.5, "q1 of five");
  expect_near(q5.q2, 4.0, "q2 of five");
  expect_near(q5.q3, 12.0, "q3 of five");

  // Python: statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
  const Quartiles q2 = quartiles({3, 1});
  expect_near(q2.q1, 0.5, "q1 of two");
  expect_near(q2.q3, 3.5, "q3 of two");
  // A failed operation (+inf) past the quartile leaves it finite.
  expect_near(quartiles({1, 2, 3, 4, 5, 6, 7, inf}).q1, 2.25, "q1 with a failure");

  expect_near(geomean({1, 4, 16}), 4, "geomean of 1, 4, 16");
  expect_near(geomean({2, 0}), 0, "geomean with a zero");

  // Zipf(1) over 4 ranks: weights 1, 1/2, 1/3, 1/4 summing to 25/12.
  const ZipfCdf z(4, 1.0);
  expect_near(z.cdf(0), 12.0 / 25, "zipf cdf(0)");
  expect_near(z.cdf(1), 18.0 / 25, "zipf cdf(1)");
  expect_near(z.cdf(2), 22.0 / 25, "zipf cdf(2)");
  expect_near(z.cdf(3), 1.0, "zipf cdf(3)");
  expect_near(z.sample(0.0), 0, "zipf sample(0)");
  expect_near(z.sample(0.47), 0, "zipf sample below cdf(0)");
  expect_near(z.sample(0.49), 1, "zipf sample above cdf(0)");
  expect_near(z.sample(0.999999), 3, "zipf sample near 1");
  // Theta 0 is uniform.
  const ZipfCdf u(5, 0.0);
  expect_near(u.cdf(1), 0.4, "uniform cdf(1)");

  if (failures) {
    std::printf("stats self-test: %d failures\n", failures);
    return 1;
  }
  std::printf("stats self-test: ok\n");
  return 0;
}
