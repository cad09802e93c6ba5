// Exporters for the telemetry subsystem.
//
//  * write_chrome_trace — Chrome trace_event JSON (the "JSON Array Format"),
//    loadable in chrome://tracing or https://ui.perfetto.dev. Fetches and
//    stalls are paired into complete ("ph":"X") spans; everything else is an
//    instant event. Timestamps are simulator microseconds, so the exported
//    file is byte-identical across runs with identical seeds. Known
//    limitation: stall events carry no session identity, so one stall is
//    open at a time. In a trace that interleaves sessions (an engine
//    shard's) a StallBegin replaces the one still open and spans pair
//    across sessions: one 32-session edge shard's 492 StallBegins export
//    as 232 Stall spans plus 260 orphan StallEnd instants.
//  * write_trace_jsonl — one raw TraceEvent per line, for ad-hoc analysis.
//  * write_metrics_csv — one row per instrument (name, kind, count, sum,
//    mean, min, max, value), the bench harness's figure source.
//  * write_timeseries_csv — one row per (instrument, interval) from a
//    sampled TimeSeriesStore, the input tools/report.py charts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sperke::obs {

void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events);
void write_trace_jsonl(std::ostream& out, const std::vector<TraceEvent>& events);
void write_metrics_csv(std::ostream& out, const MetricsRegistry& registry);
void write_timeseries_csv(std::ostream& out, const TimeSeriesStore& store);

// File-based conveniences; throw std::runtime_error when the file cannot
// be opened or written.
void dump_chrome_trace(const std::string& path, const Telemetry& telemetry);
void dump_trace_jsonl(const std::string& path, const Telemetry& telemetry);
void dump_metrics_csv(const std::string& path, const Telemetry& telemetry);
void dump_timeseries_csv(const std::string& path, const TimeSeriesStore& store);

}  // namespace sperke::obs
