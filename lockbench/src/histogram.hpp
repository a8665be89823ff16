// Log-linear latency histogram over nanoseconds (HDR-style: 64 linear
// sub-buckets per power of two, so a bucket spans at most ~1.6% of its
// values). Fixed size, no allocation after construction, and
// mergeable — one per client thread per measurement slice, merged after.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace lockbench {

class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    ++counts_[index(v)];
    ++count_;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  /// Value at quantile q (0..1) in nanoseconds: the ceil(q * count)-th
  /// smallest sample, placed by linear interpolation inside its bucket
  /// (samples assumed evenly spread across the bucket); 0 when empty.
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))),
        1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return lower(i) + within * (lower(i + 1) - lower(i));
      }
      seen += counts_[i];
    }
    return lower(kBuckets);
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kLinear = 2u << kSubBits;  // 128
  static constexpr unsigned kMaxExp = 44;                   // ~4.9 hours
  static constexpr std::size_t kBuckets =
      kLinear + (kMaxExp - kSubBits) * (1u << kSubBits);

  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const unsigned exp = std::min<unsigned>(
        static_cast<unsigned>(std::bit_width(v)) - 1, kMaxExp);
    const std::uint64_t sub =
        (v >> (exp - kSubBits)) & ((1u << kSubBits) - 1);
    return std::min<std::size_t>(
        kLinear + (exp - kSubBits - 1) * (1u << kSubBits) + sub,
        kBuckets - 1);
  }

  /// Lower bound of bucket `i` (the upper bound of bucket i - 1).
  static double lower(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t rest = i - kLinear;
    const auto exp = static_cast<unsigned>(rest >> kSubBits) + kSubBits + 1;
    const std::uint64_t sub = rest & ((1u << kSubBits) - 1);
    const auto width = std::uint64_t{1} << (exp - kSubBits);
    return static_cast<double>((std::uint64_t{1} << exp) + sub * width);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Median of a sample (0 when empty); the input is copied.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace lockbench
