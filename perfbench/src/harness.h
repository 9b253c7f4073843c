// Shared machinery of the perfbench binary: command-line arguments, clocks,
// latency samples, the result report (the JSON line that ends its output), the in-memory span tracer of traced runs, and process-level
// measurements (peak RSS).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Source revision reported in the provenance record (a git hash, or a
  /// content hash of the source tree when the checkout is not a git repo).
  std::string rev = "unknown";
  /// Directory the traced run writes its span dump into.
  std::string out_dir = ".";
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median of a small vector (copied); 0 when empty.
double MedianOf(std::vector<double> v);

/// Raw latency samples; percentiles are nearest-rank over the sorted set.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// Sorts in place (cheap when already sorted) and returns the p-th
  /// percentile, 0 when empty.
  double Percentile(double p);
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// Slices of a measured window (1 s each at the default 25 s window).
inline constexpr int kSlices = 25;

/// One measured window of kSlices equal time slices. While it runs, a
/// sampler thread reads the host's CPU steal (time the hypervisor gave this
/// machine's CPUs to other guests) from /proc/stat at every slice boundary.
/// The run's figures use only the least-stolen half of the slices, so a
/// neighbour's burst that slows a few slices does not move them.
class Window {
 public:
  /// Starts the window now.
  explicit Window(double seconds);
  ~Window();
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  Clock::time_point start() const { return start_; }
  Clock::time_point end() const { return end_; }
  double seconds() const { return seconds_; }
  /// Stops the sampler; call once the window's work has ended.
  void Finish();
  /// Steal per slice as a fraction of all CPU time; empty when /proc/stat
  /// could not be read.
  std::vector<double> Steal() const;
  /// Slices the figures use: the least-stolen half (all of them when steal
  /// is unavailable).
  std::vector<bool> Kept() const;

 private:
  void Sample();

  Clock::time_point start_;
  Clock::time_point end_;
  double seconds_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;          // guarded by mu_
  std::vector<double> steal_;  // guarded by mu_
  std::thread sampler_;        // last: it reads the members above
};

/// Time-stamped samples of one measured window, split into its kSlices
/// time slices. The run's figures are robust averages over the window's
/// kept slices (medians, trimmed means). Each slice keeps its exact count
/// and sum, and the first kKeepPerSlice values for percentiles, so memory
/// does not grow with throughput.
class Timeline {
 public:
  explicit Timeline(const Window& window);
  /// Records `value` (a latency, or units of completed work) at `at`;
  /// points past the window land in the last slice.
  void Add(Clock::time_point at, double value);
  /// Merges a timeline of the same window.
  void Append(const Timeline& o);
  int64_t count() const;
  /// Summed values (or, with `count`, points) per second of slice over the
  /// slices in `keep`, averaged over the middle 60% of them.
  double SliceRate(const std::vector<bool>& keep, bool count) const;
  /// Median over the slices in `keep` of the slice's p-th percentile.
  double SlicePercentile(const std::vector<bool>& keep, double p) const;
  /// Every kept value, for whole-window percentiles.
  Samples Kept() const;

 private:
  static constexpr size_t kKeepPerSlice = 20000;
  struct Slice {
    int64_t count = 0;
    double sum = 0;
    std::vector<float> kept;
  };
  Clock::time_point start_;
  double slice_s_;
  std::vector<Slice> slices_;
};

/// Collects metrics and correctness outcomes; renders the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// Records `n` attempted operations (thread-safe).
  void Attempt(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  /// Records a failed or wrong operation and logs the first few reasons
  /// on stderr.
  void Fail(const std::string& why);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Prints every metric whose name is in `names` (in that order) as the
  /// final result line. Metrics missing from the report are an error.
  bool PrintResult(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ----------------------------------------------------------------- tracing --

/// One recorded span. `parent` indexes the same thread's buffer (-1 = root);
/// spans of one request share `request`.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Per-thread span buffer. Spans are kept in memory while the traced run
/// goes and aggregated or written out only when it ends.
class SpanBuffer {
 public:
  SpanBuffer() { spans_.reserve(1 << 16); }
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// RAII span: Begin on construction, End on destruction. A null buffer
/// records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, uint64_t request)
      : buf_(buf), index_(buf != nullptr ? buf->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  int32_t index_;
};

/// Per-name aggregate of self times (duration minus the time covered by
/// child spans).
struct SpanTotals {
  int64_t count = 0;
  double self_us = 0;
  double MeanSelfUs() const { return count == 0 ? 0.0 : self_us / count; }
};

/// Aggregates many thread buffers by span name.
std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<const SpanBuffer*>& buffers);

/// Writes up to `max_spans` spans as Chrome trace-event JSON; returns the
/// number written.
size_t WriteSpans(const std::string& path,
                  const std::vector<const SpanBuffer*>& buffers,
                  size_t max_spans);

// ------------------------------------------------------------------ process --

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Threads the host offers (hardware concurrency, at least 1).
int HostThreads();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
