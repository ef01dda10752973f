#ifndef JXP_METRICS_SUMMARY_H_
#define JXP_METRICS_SUMMARY_H_

#include <span>

namespace jxp {
namespace metrics {

/// Five-number-ish summary used for the message-size figures (11/12), which
/// plot median and first/third quartiles.
struct Summary {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double max = 0;
  double mean = 0;
  size_t count = 0;
};

/// Computes the summary of a sample (empty input yields all zeros).
/// Quartiles use linear interpolation between order statistics (type 7).
Summary Summarize(std::span<const double> values);

}  // namespace metrics
}  // namespace jxp

#endif  // JXP_METRICS_SUMMARY_H_
