#ifndef MVG_UTIL_STATISTICS_H_
#define MVG_UTIL_STATISTICS_H_

#include <cstddef>
#include <vector>

namespace mvg {

/// Basic descriptive statistics shared by feature extraction and the
/// evaluation harness. All functions return 0 on empty input unless noted.

double Mean(const std::vector<double>& v);

/// Population variance (divides by n).
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double StdDev(const std::vector<double>& v);

double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Median via partial sort (copies input).
double Median(std::vector<double> v);

/// Linear-interpolated quantile, q in [0,1] (copies input).
double Quantile(std::vector<double> v, double q);

/// Pearson correlation coefficient; 0 if either side is constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Ranks with ties broken by averaging (1-based), as used by the
/// Wilcoxon and Friedman tests.
std::vector<double> AverageRanks(const std::vector<double>& v);

}  // namespace mvg

#endif  // MVG_UTIL_STATISTICS_H_
