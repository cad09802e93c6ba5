// One shard of a sharded world: a self-contained, mono-threaded slice.
//
// A Shard owns everything its sessions can touch while running — its own
// sim::Simulator, its own fetch fabric (a cdn::Topology holding the access
// links, and the edge caches + backhauls when the CDN tier is enabled,
// DESIGN.md §15) and transports, its own VideoModel (immutable and cheap
// to build, so a per-shard copy costs little), its own obs::Telemetry sink
// and SimMonitor, and a private RNG stream derived as spec.seed ^ shard_id.
// The only state reaching across the shard boundary is genuinely const:
// the WorldSpec, the shared head-trace pool, and the optional crowd
// heatmap snapshot. Construction and run() both happen on whichever
// worker thread the engine assigns; nothing here is synchronized because
// nothing here is shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cdn/topology.h"
#include "core/session.h"
#include "core/session_batch.h"
#include "core/transport.h"
#include "engine/world.h"
#include "net/link.h"
#include "obs/sim_monitor.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sperke::engine {

class Shard {
 public:
  // Builds the shard's slice of `spec`: link groups g with
  // shard_of_group(g) == shard_id, and every session belonging to them.
  // `spec` and `traces` must outlive the shard and stay unmodified.
  Shard(const WorldSpec& spec, int shard_id,
        std::span<const hmp::HeadTrace> traces);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Run the shard's simulator to spec.horizon. Call at most once.
  void run();

  [[nodiscard]] int id() const { return shard_id_; }
  [[nodiscard]] int sessions() const { return static_cast<int>(sessions_.size()); }
  [[nodiscard]] int completed() const;
  [[nodiscard]] std::uint64_t events_executed() const {
    return simulator_.events_executed();
  }

  // Global session ids owned by this shard, ascending; parallel to the
  // order reports are returned in.
  [[nodiscard]] const std::vector<int>& session_ids() const { return session_ids_; }
  [[nodiscard]] core::SessionReport report(int local_index) const {
    return sessions_[static_cast<std::size_t>(local_index)]->report();
  }

  [[nodiscard]] const obs::Telemetry& telemetry() const { return *telemetry_; }
  // Hand the shard-local telemetry (metrics + trace) to the caller; the
  // shard must not run afterwards.
  [[nodiscard]] std::unique_ptr<obs::Telemetry> release_telemetry() {
    return std::move(telemetry_);
  }

  // The shard's sampled time series (empty unless spec.sample_period > 0)
  // and per-shard SLO rollup (empty unless spec.slos is non-empty).
  [[nodiscard]] const obs::TimeSeriesStore& series() const { return series_; }
  [[nodiscard]] std::vector<obs::SloStatus> slo_status() const {
    return slo_eval_ ? slo_eval_->status() : std::vector<obs::SloStatus>{};
  }

  // The shard's private entropy stream (spec.seed ^ shard_id), for
  // shard-local stochastic extensions. Unused by the default world build,
  // which is fully deterministic in the spec.
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  const WorldSpec& spec_;
  int shard_id_;
  Rng rng_;
  sim::Simulator simulator_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<const media::VideoModel> video_;
  // Fetch fabric: owns every link (access + backhaul), edge and ChunkSource
  // the shard's transports consume. Declared before transports_, which hold
  // references into it.
  std::unique_ptr<cdn::Topology> topology_;
  // Which access links carry a non-empty FaultPlan: gates the post-run
  // outage metric so fault-free worlds register nothing (byte-identity).
  std::vector<bool> link_has_faults_;
  std::vector<std::unique_ptr<core::SingleLinkTransport>> transports_;
  // SoA arena for the shard's session hot state (DESIGN.md §13): sized by
  // a pre-count pass, claimed slot by slot as sessions are constructed.
  // Declared before sessions_, which hold spans into its slabs.
  std::unique_ptr<core::SessionBatch> batch_;
  std::vector<std::unique_ptr<core::StreamingSession>> sessions_;
  std::vector<int> session_ids_;  // global ids, ascending
  std::optional<obs::SimMonitor> monitor_;
  // Run-scope time series + SLO evaluation (spec.sample_period > 0). The
  // evaluator holds references to series_ and *telemetry_; the sampler is
  // declared last so it can never fire before they exist.
  obs::TimeSeriesStore series_;
  std::optional<obs::SloEvaluator> slo_eval_;
  std::optional<sim::PeriodicTask> sampler_;
  bool ran_ = false;
};

}  // namespace sperke::engine
