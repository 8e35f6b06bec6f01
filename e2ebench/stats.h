// Raw-sample statistics for the end-to-end benchmark. Every reported
// percentile comes from the per-operation samples themselves (nearest
// rank), never from the metrics registry's fixed buckets, and is reported
// only when the sample can support it.
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace e2ebench {

class Samples {
 public:
  /// A percentile is reported only when at least this many samples lie
  /// beyond its rank; a p99 therefore needs 1000 samples.
  static constexpr size_t kMinBeyond = 10;

  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t n() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  double Sum() const {
    double s = 0;
    for (const double v : v_) s += v;
    return s;
  }
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }

  /// Nearest-rank percentile, p in (0, 1). nullopt when fewer than
  /// kMinBeyond samples lie above the rank.
  std::optional<double> Percentile(double p) const {
    const size_t n = v_.size();
    if (n == 0) return std::nullopt;
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(p * static_cast<double>(n))), 1, n);
    if (n - rank < kMinBeyond) return std::nullopt;
    std::vector<double> sorted = v_;
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    return sorted[rank - 1];
  }

  /// Splits the samples, in the order added, into consecutive runs of
  /// `per_run` (the remainder is dropped) and returns the lower quartile
  /// (nearest rank) of the runs' medians; nullopt without a whole run.
  /// On a shared host the machine slows from one fraction of a second to
  /// the next as other guests use the same core and caches; that only
  /// ever adds time, so the quieter runs are the steadier estimate of the
  /// program's own cost.
  std::optional<double> LowQuartileOfRunMedians(size_t per_run) const {
    std::vector<double> medians, run;
    for (size_t at = 0; per_run > 0 && at + per_run <= v_.size();
         at += per_run) {
      run.assign(v_.begin() + at, v_.begin() + at + per_run);
      std::nth_element(run.begin(), run.begin() + per_run / 2, run.end());
      medians.push_back(run[per_run / 2]);
    }
    if (medians.empty()) return std::nullopt;
    std::sort(medians.begin(), medians.end());
    return medians[medians.size() / 4];
  }

 private:
  std::vector<double> v_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
