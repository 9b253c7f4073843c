#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double Samples::Percentile(double p) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values_.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Steal and total jiffies of all CPUs from /proc/stat; false when
/// unreadable.
bool ReadCpuTimes(uint64_t* steal, uint64_t* total) {
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line) || line.rfind("cpu ", 0) != 0) return false;
  std::istringstream in(line.substr(4));
  uint64_t v = 0;
  *steal = 0;
  *total = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user and nice.
  for (int field = 0; field < 8 && in >> v; ++field) {
    *total += v;
    if (field == 7) *steal = v;
  }
  return *total > 0;
}

/// Mean of the middle 60% of `v`: robust to a few disturbed slices like a
/// median, but not quantized to one slice's count.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 5;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

}  // namespace

Window::Window(double seconds)
    : start_(Clock::now()),
      end_(start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds))),
      seconds_(seconds),
      sampler_([this] { Sample(); }) {}

Window::~Window() { Finish(); }

void Window::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void Window::Sample() {
  uint64_t steal0 = 0, total0 = 0;
  if (!ReadCpuTimes(&steal0, &total0)) return;
  const double slice_s = seconds_ / kSlices;
  std::vector<double> steal;
  for (int k = 1; k <= kSlices; ++k) {
    const Clock::time_point due =
        start_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(slice_s * k));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, due, [this] { return stop_; })) return;  // cut short
    }
    uint64_t steal1 = 0, total1 = 0;
    if (!ReadCpuTimes(&steal1, &total1)) return;
    steal.push_back(total1 > total0 ? static_cast<double>(steal1 - steal0) /
                                          static_cast<double>(total1 - total0)
                                    : 0.0);
    steal0 = steal1;
    total0 = total1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  steal_ = std::move(steal);
}

std::vector<double> Window::Steal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steal_;
}

std::vector<bool> Window::Kept() const {
  const std::vector<double> steal = Steal();
  if (steal.size() != static_cast<size_t>(kSlices)) return std::vector<bool>(kSlices, true);
  std::vector<int> order(kSlices);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return steal[static_cast<size_t>(a)] < steal[static_cast<size_t>(b)];
  });
  std::vector<bool> keep(kSlices, false);
  for (int i = 0; i < (kSlices + 1) / 2; ++i) keep[static_cast<size_t>(order[i])] = true;
  return keep;
}

Timeline::Timeline(const Window& window)
    : start_(window.start()), slice_s_(window.seconds() / kSlices), slices_(kSlices) {
  for (Slice& s : slices_) s.kept.reserve(kKeepPerSlice);
}

void Timeline::Add(Clock::time_point at, double value) {
  const double t = std::chrono::duration<double>(at - start_).count();
  const int k = std::max(0, std::min(kSlices - 1, static_cast<int>(t / slice_s_)));
  Slice& s = slices_[static_cast<size_t>(k)];
  ++s.count;
  s.sum += value;
  if (s.kept.size() < kKeepPerSlice) s.kept.push_back(static_cast<float>(value));
}

void Timeline::Append(const Timeline& o) {
  for (size_t k = 0; k < slices_.size(); ++k) {
    slices_[k].count += o.slices_[k].count;
    slices_[k].sum += o.slices_[k].sum;
    slices_[k].kept.insert(slices_[k].kept.end(), o.slices_[k].kept.begin(),
                           o.slices_[k].kept.end());
  }
}

int64_t Timeline::count() const {
  int64_t n = 0;
  for (const Slice& s : slices_) n += s.count;
  return n;
}

double Timeline::SliceRate(const std::vector<bool>& keep, bool count) const {
  std::vector<double> rates;
  for (size_t k = 0; k < slices_.size(); ++k) {
    if (!keep[k]) continue;
    const Slice& s = slices_[k];
    rates.push_back((count ? static_cast<double>(s.count) : s.sum) / slice_s_);
  }
  return TrimmedMean(rates);
}

double Timeline::SlicePercentile(const std::vector<bool>& keep, double p) const {
  std::vector<double> values;
  for (size_t k = 0; k < slices_.size(); ++k) {
    if (!keep[k] || slices_[k].kept.empty()) continue;
    Samples samples;
    for (float v : slices_[k].kept) samples.Add(v);
    values.push_back(samples.Percentile(p));
  }
  return MedianOf(values);
}

Samples Timeline::Kept() const {
  Samples out;
  for (const Slice& s : slices_) {
    for (float v : s.kept) out.Add(v);
  }
  return out;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit};
}

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

bool Report::PrintResult(const std::vector<std::string>& names) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(it->second.value) ? it->second.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           it->second.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return true;
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int32_t SpanBuffer::Begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  current_ = static_cast<int32_t>(spans_.size() - 1);
  return current_;
}

void SpanBuffer::End(int32_t index) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = NowNs();
  current_ = s.parent;
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanBuffer* buf : buffers) {
    const std::vector<Span>& spans = buf->spans();
    // Children always follow their parent in the buffer, and spans nest,
    // so one pass subtracting each span from its parent gives self times.
    std::vector<double> child_us(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = (spans[i].end_ns - spans[i].start_ns) / 1e3;
      if (spans[i].parent >= 0) {
        child_us[static_cast<size_t>(spans[i].parent)] += dur;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = (spans[i].end_ns - spans[i].start_ns) / 1e3;
      SpanTotals& t = totals[spans[i].name];
      ++t.count;
      t.self_us += dur - child_us[i];
    }
  }
  return totals;
}

size_t WriteSpans(const std::string& path,
                  const std::vector<const SpanBuffer*>& buffers,
                  size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  size_t written = 0;
  for (size_t tid = 0; tid < buffers.size() && written < max_spans; ++tid) {
    const std::vector<Span>& spans = buffers[tid]->spans();
    for (size_t i = 0; i < spans.size() && written < max_spans; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"request\": %llu, \"parent\": %d}}",
                   written == 0 ? "" : ",\n", s.name, tid, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request), s.parent);
      ++written;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return written;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace perfbench
