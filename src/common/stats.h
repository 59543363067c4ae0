// Lightweight statistics used by the metrics layer and the experiment
// harnesses: streaming mean/variance (Welford) and a sample-retaining
// histogram with exact percentiles.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ici {

/// Streaming mean / variance / min / max. O(1) memory.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Coefficient of variation (stddev/mean); 0 when mean is 0.
  [[nodiscard]] double cv() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples; percentiles are exact (nearest-rank on the sorted
/// sample). Fine for simulation scales (≤ millions of samples).
///
/// Thread-safe: add() may be called from worker-pool threads. Every
/// aggregate — including sum/mean/stddev — is computed from the *sorted*
/// sample on demand, so the results are a pure function of the sample
/// multiset: identical no matter which order threads appended in (a
/// streaming Welford accumulator would leak insertion order through
/// floating-point non-associativity).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const;

  /// p in [0,100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50); }
  [[nodiscard]] double p90() const { return percentile(90); }
  [[nodiscard]] double p99() const { return percentile(99); }

 private:
  /// Sorts samples_ if needed. Caller must hold mu_.
  void ensure_sorted_locked() const;
  [[nodiscard]] double sum_locked() const;

  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// "12.3 KiB", "4.0 MiB", ... — used by table output.
[[nodiscard]] std::string format_bytes(double bytes);

/// Fixed-precision double formatting ("%.*f") without iostream state leaks.
[[nodiscard]] std::string format_double(double v, int precision);

}  // namespace ici
