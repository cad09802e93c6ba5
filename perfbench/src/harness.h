// Measurement harness shared by the benchmark workloads: host clocks, the
// output digest, sample quantiles, the span recorder of the traced run and
// the result record main() prints.
//
// Everything here measures the program from outside. Host time is read
// with std::chrono::steady_clock and getrusage(2); nothing in src/ is
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- host clocks ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process CPU seconds (user + sys, every thread) so far.
[[nodiscard]] double process_cpu_s();
// Peak resident set size of this process so far, in MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();

// ---- seeds ---------------------------------------------------------------

// Decorrelated world seed number `stream` of benchmark seed `seed`
// (splitmix64 finalizer), so every seeded part of a world — head traces,
// attractors, link traces, fault plans, video — derives from --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- output digest -------------------------------------------------------

// FNV-1a over the exact bytes of the values fed in; doubles hash by their
// bit pattern, so a digest match means bit-identical outputs.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::int64_t value) { add_bytes(&value, sizeof value); }
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(std::string_view text) {
    add(static_cast<std::int64_t>(text.size()));
    add_bytes(text.data(), text.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex(std::uint64_t value);

// ---- samples -------------------------------------------------------------

// Nearest-rank quantile of unsorted samples (copies); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(const std::vector<double>& samples);

// Host-time samples of one call site, in nanoseconds.
struct CallTimes {
  std::vector<double> ns;

  [[nodiscard]] double count() const { return static_cast<double>(ns.size()); }
  [[nodiscard]] double us(double q) const { return quantile(ns, q) / 1e3; }
};

// Time one call into `times` and return its result.
template <typename F>
decltype(auto) timed(CallTimes& times, F&& call) {
  const auto start = Clock::now();
  struct Stop {
    CallTimes& times;
    Clock::time_point start;
    ~Stop() {
      times.ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - start).count());
    }
  } stop{times, start};
  return call();
}

// ---- spans of the traced run -------------------------------------------

// Coarse spans around the benchmark's calls into each layer. Kept in memory
// and written as a Chrome trace (open in ui.perfetto.dev) when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // since the recorder was created
    double end_s = 0.0;
    int parent = -1;       // index of the enclosing span, -1 at the root
    int shard = -1;        // engine shard id, -1 when not shard-scoped
  };

  Spans() : origin_(Clock::now()) {}

  // Opens a span under the innermost open one; returns its index.
  int open(std::string name, int shard = -1);
  // Closes span `index` and returns its duration in seconds.
  double close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Sum of the durations of every closed span named `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  // Seconds of `index` not covered by its direct children (self time).
  [[nodiscard]] double self_s(int index) const;

  // Throws std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Span open for the lifetime of the scope; does nothing without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name)
      : spans_(spans), index_(spans != nullptr ? spans->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  int index_;
};

// ---- results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;  // sessions simulated across the run
  std::int64_t failed = 0;     // sessions lost to a program error
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<std::string> notes;     // printed before the result line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a failed output check; the run then reports correct=false.
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its span file
  int threads = 1;      // min(4, nproc)
};

// Stream buffer that takes formatted output like a file but only counts
// its bytes and lines, so the exporters' cost is measured without the
// disk's (a shared disk is the noisiest part of a host).
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t lines() const { return lines_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* data, std::streamsize size) override;

 private:
  std::int64_t bytes_ = 0;
  std::int64_t lines_ = 0;
};

}  // namespace perfbench
