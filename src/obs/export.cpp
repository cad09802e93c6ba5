#include "obs/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/csv.h"

namespace sperke::obs {
namespace {

// printf "%.12g" in the C locale: 12 significant digits, which is what
// std::to_chars' general format with precision 12 is specified to produce.
// Returns one past the last character written; `p` needs 32 bytes.
char* put_double(char* p, double v) {
  return std::to_chars(p, p + 32, v, std::chars_format::general, 12).ptr;
}

std::string fmt_double(double v) {
  char buf[32];
  return {buf, put_double(buf, v)};
}

// Formats into one reused buffer and hands it to the stream in large
// write() blocks. flush() must run before the caller returns so the
// stream's state reports any write failure.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out) : out_(out) {}
  BlockWriter& operator<<(std::string_view s) {
    if (buf_.size() >= kBlock) flush();
    buf_.append(s);
    return *this;
  }
  BlockWriter& operator<<(std::integral auto v) {
    char tmp[24];
    const char* end = std::to_chars(tmp, tmp + sizeof(tmp), v).ptr;
    buf_.append(tmp, static_cast<std::size_t>(end - tmp));
    return *this;
  }
  BlockWriter& operator<<(double v) {
    char tmp[32];
    const char* end = put_double(tmp, v);
    buf_.append(tmp, static_cast<std::size_t>(end - tmp));
    return *this;
  }
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::ostream& out_;
  std::string buf_;
};

// Chrome trace viewers group events by (pid, tid); give each category its
// own named track so the timeline reads as one lane per pipeline layer.
int track_of(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSessionStart:
    case TraceEventType::kSessionEnd: return 1;
    case TraceEventType::kPlanComputed:
    case TraceEventType::kUpgradeDecided: return 2;
    case TraceEventType::kFetchDispatched:
    case TraceEventType::kFetchDone:
    case TraceEventType::kFetchDropped:
    case TraceEventType::kFetchAttemptStart:
    case TraceEventType::kFetchAttemptEnd: return 3;
    case TraceEventType::kStallBegin:
    case TraceEventType::kStallEnd:
    case TraceEventType::kChunkPlayed: return 4;
    case TraceEventType::kPathAssigned: return 5;
    case TraceEventType::kSegmentCaptured:
    case TraceEventType::kSegmentDropped:
    case TraceEventType::kSegmentDisplayed: return 6;
    case TraceEventType::kSloBreach:
    case TraceEventType::kSloClear: return 8;
  }
  return 7;
}

// An event's fields as the JSON "args" object.
struct Args {
  const TraceEvent& e;
};

BlockWriter& operator<<(BlockWriter& w, const Args& a) {
  const TraceEvent& e = a.e;
  return w << "{\"tile\":" << e.tile << ",\"chunk\":" << e.chunk
           << ",\"quality\":" << e.quality << ",\"path\":" << e.path
           << ",\"bytes\":" << e.bytes
           << (e.urgent ? ",\"urgent\":true" : ",\"urgent\":false")
           << ",\"value\":" << e.value << ",\"request\":" << e.request
           << ",\"parent\":" << e.parent << "}";
}

struct Record {
  std::int64_t ts = 0;
  std::int64_t dur = -1;  // -1: instant event
  std::string_view name;
  TraceEvent event;  // the args source; cat and track follow its type
};

// Open spans wait in one table for their closing event: fetches keyed by
// request id when the producer assigned one (ids disambiguate a retry of
// the same chunk cell), falling back to the chunk cell + quality for
// untraced events; transport attempts by (request id, attempt number).
// Stalls carry no session identity, so one stall is open at a time: where
// sessions interleave, a StallBegin replaces the open one (see export.h).
// The leading kind orders unclosed leftovers: cells, requests, attempts,
// then the stall.
using SpanKey = std::array<std::int64_t, 4>;

SpanKey span_key(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kFetchAttemptStart:
    case TraceEventType::kFetchAttemptEnd:
      return {2, e.request, static_cast<std::int64_t>(e.value), 0};
    case TraceEventType::kStallBegin:
    case TraceEventType::kStallEnd: return {3, 0, 0, 0};
    default:
      if (e.request != 0) return {1, e.request, 0, 0};
      return {0, e.tile, e.chunk, e.quality};
  }
}

struct SpanKeyHash {
  std::size_t operator()(const SpanKey& key) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the fields
    for (const std::int64_t f : key) {
      h = (h ^ static_cast<std::uint64_t>(f)) * 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

// The complete ("ph":"X") span a begin and its closing event export as.
Record span(const TraceEvent& begin, const TraceEvent& end) {
  Record r{begin.ts.count(), (end.ts - begin.ts).count(), {}, end};
  switch (end.type) {
    case TraceEventType::kFetchAttemptEnd:
      // Nested inside the request's outer Fetch span on the same track:
      // attempt 0 is the first try, attempt > 0 a transport retry after a
      // fault.
      r.name = end.value > 0.0 ? "Retry" : "Attempt";
      break;
    case TraceEventType::kStallEnd:
      r.name = "Stall";
      break;
    default:  // kFetchDone, kFetchDropped
      r.event.urgent = begin.urgent;
      // A retried fetch's span carries its parent linkage even when only
      // the dispatch event recorded it.
      if (r.event.parent == 0) r.event.parent = begin.parent;
      r.name = end.type == TraceEventType::kFetchDropped ? "FetchDropped"
               : r.event.parent != 0                     ? "FetchRetry"
                                                         : "Fetch";
      break;
  }
  return r;
}

}  // namespace

void write_chrome_trace(
    std::ostream& out, const std::vector<TraceEvent>& events) {
  std::vector<Record> records;
  records.reserve(events.size());
  std::unordered_map<SpanKey, const TraceEvent*, SpanKeyHash> open;
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kFetchDispatched:
      case TraceEventType::kFetchAttemptStart:
      case TraceEventType::kStallBegin:
        open[span_key(e)] = &e;
        continue;
      case TraceEventType::kFetchDone:
      case TraceEventType::kFetchDropped:
      case TraceEventType::kFetchAttemptEnd:
      case TraceEventType::kStallEnd:
        if (const auto it = open.find(span_key(e)); it != open.end()) {
          records.push_back(span(*it->second, e));
          open.erase(it);
          continue;
        }
        break;  // an orphan end exports as an instant
      default:
        break;
    }
    records.push_back({e.ts.count(), -1, trace_event_name(e.type), e});
  }
  // Spans that never closed (session cut off mid-fetch / mid-stall) export
  // as instants so no event is silently lost, in key order.
  std::vector<std::pair<SpanKey, const TraceEvent*>> unclosed(open.begin(),
                                                              open.end());
  std::sort(unclosed.begin(), unclosed.end());
  for (const auto& [key, e] : unclosed) {
    records.push_back({e->ts.count(), -1, trace_event_name(e->type), *e});
  }

  // Sorting compact (ts, creation order) keys orders the records exactly
  // as a stable sort on ts would.
  std::vector<std::pair<std::int64_t, std::size_t>> order(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    order[i] = {records[i].ts, i};
  }
  std::sort(order.begin(), order.end());

  BlockWriter w(out);
  w << "[";
  const char* track_names[] = {"",          "session", "plan", "fetch",
                               "playback", "multipath", "live", "sim", "slo"};
  for (int tid = 1; tid <= 8; ++tid) {
    w << (tid == 1 ? "\n" : ",\n")
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
      << ",\"args\":{\"name\":\"" << track_names[tid] << "\"}}";
  }
  for (const auto& [ts, i] : order) {
    const Record& r = records[i];
    w << ",\n{\"name\":\"" << r.name << "\",\"cat\":\""
      << trace_event_category(r.event.type) << "\",";
    if (r.dur >= 0) {
      w << "\"ph\":\"X\",\"dur\":" << r.dur << ",";
    } else {
      w << "\"ph\":\"i\",\"s\":\"t\",";
    }
    w << "\"ts\":" << ts << ",\"pid\":1,\"tid\":" << track_of(r.event.type)
      << ",\"args\":" << Args{r.event} << "}";
  }
  w << "\n]\n";
  w.flush();
}

void write_trace_jsonl(
    std::ostream& out, const std::vector<TraceEvent>& events) {
  BlockWriter w(out);
  for (const TraceEvent& e : events) {
    w << "{\"event\":\"" << trace_event_name(e.type) << "\",\"cat\":\""
      << trace_event_category(e.type) << "\",\"ts_us\":" << e.ts.count()
      << ",\"args\":" << Args{e} << "}\n";
  }
  w.flush();
}

void write_metrics_csv(std::ostream& out, const MetricsRegistry& registry) {
  CsvWriter csv(out);
  csv.write_row({"name", "kind", "count", "sum", "mean", "min", "max", "value",
                 "buckets"});
  for (const auto& entry : registry.entries()) {
    std::vector<std::string> row(9);
    row[0] = entry.name;
    row[1] = std::string(metric_kind_name(entry.kind));
    switch (entry.kind) {
      case MetricKind::kCounter:
        row[7] = std::to_string(entry.counter->value());
        break;
      case MetricKind::kGauge:
        row[7] = fmt_double(entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        row[2] = std::to_string(h.count());
        row[3] = fmt_double(h.sum());
        row[4] = fmt_double(h.mean());
        row[5] = fmt_double(h.min());
        row[6] = fmt_double(h.max());
        std::string buckets;
        for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (!buckets.empty()) buckets += ";";
          buckets += (i < h.upper_bounds().size()
                          ? "le" + fmt_double(h.upper_bounds()[i])
                          : std::string("le+inf")) +
                     ":" + std::to_string(h.bucket_counts()[i]);
        }
        row[8] = std::move(buckets);
        break;
      }
    }
    csv.write_row(row);
  }
}

void write_timeseries_csv(std::ostream& out, const TimeSeriesStore& store) {
  CsvWriter csv(out);
  csv.write_row({"name", "kind", "interval", "t_s", "value", "count", "sum",
                 "p50", "p90", "p99"});
  for (const TimeSeries& series : store.series()) {
    for (std::size_t i = 0; i < store.intervals(); ++i) {
      std::vector<std::string> row(10);
      row[0] = series.name;
      row[1] = std::string(metric_kind_name(series.kind));
      row[2] = std::to_string(i);
      row[3] = fmt_double(sim::to_seconds(store.interval_end(i)));
      switch (series.kind) {
        case MetricKind::kCounter:
          row[4] = std::to_string(series.counter_deltas[i]);
          break;
        case MetricKind::kGauge:
          row[4] = fmt_double(series.gauge_samples[i]);
          break;
        case MetricKind::kHistogram:
          row[5] = std::to_string(series.count_deltas[i]);
          row[6] = fmt_double(series.sum_deltas[i]);
          row[7] = fmt_double(series_quantile_bound(series, i, 0.50));
          row[8] = fmt_double(series_quantile_bound(series, i, 0.90));
          row[9] = fmt_double(series_quantile_bound(series, i, 0.99));
          break;
      }
      csv.write_row(row);
    }
  }
}

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

}  // namespace

void dump_chrome_trace(const std::string& path, const Telemetry& telemetry) {
  auto out = open_or_throw(path);
  write_chrome_trace(out, telemetry.trace().events());
  if (!out) throw std::runtime_error("write failed: " + path);
}

void dump_trace_jsonl(const std::string& path, const Telemetry& telemetry) {
  auto out = open_or_throw(path);
  write_trace_jsonl(out, telemetry.trace().events());
  if (!out) throw std::runtime_error("write failed: " + path);
}

void dump_metrics_csv(const std::string& path, const Telemetry& telemetry) {
  auto out = open_or_throw(path);
  write_metrics_csv(out, telemetry.metrics());
  if (!out) throw std::runtime_error("write failed: " + path);
}

void dump_timeseries_csv(const std::string& path, const TimeSeriesStore& store) {
  auto out = open_or_throw(path);
  write_timeseries_csv(out, store);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace sperke::obs
