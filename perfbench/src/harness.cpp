#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

int Spans::open(std::string name, int shard) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), seconds_since(origin_), 0.0, parent, shard});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

double Spans::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Spans: spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = seconds_since(origin_);
  return span.end_s - span.start_s;
}

double Spans::total_s(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_s - span.start_s;
  }
  return total;
}

double Spans::self_s(int index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  double self = span.end_s - span.start_s;
  for (const Span& child : spans_) {
    if (child.parent == index) self -= child.end_s - child.start_s;
  }
  return self;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"shard\": %d, \"self_us\": %.3f}}%s\n",
                  span.name.c_str(), span.shard + 1, span.start_s * 1e6,
                  (span.end_s - span.start_s) * 1e6, i, span.parent, span.shard,
                  self_s(static_cast<int>(i)) * 1e6,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write to span file " + path);
}

CountingBuf::int_type CountingBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
  ++bytes_;
  if (traits_type::to_char_type(ch) == '\n') ++lines_;
  return ch;
}

std::streamsize CountingBuf::xsputn(const char* data, std::streamsize size) {
  bytes_ += size;
  lines_ += std::count(data, data + size, '\n');
  return size;
}

}  // namespace perfbench
