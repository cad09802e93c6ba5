// Declarative workload description for the sharded session engine.
//
// A WorldSpec says *what* to simulate — video model, head-trace pool, link
// topology, session configs, partitioning — without wiring any of it up.
// The same spec that used to be duplicated imperatively across
// bench_scale_sessions, examples/vod_streaming and the integration test is
// now one struct; engine::Shard materializes a shard's slice of it and
// engine::ShardedEngine runs all slices across threads.
//
// Identity rules (what makes sharding deterministic):
//   * Global session ids are 0..sessions-1. Everything a session is made of
//     derives from its *global* id — its head trace (id % trace_pool), its
//     start time (id * start_stagger), its config (session_for(id)) — never
//     from its position within a shard.
//   * Sessions couple only through shared infrastructure (Hosseini &
//     Swaminathan's divide-and-conquer tiling): consecutive global ids share
//     links in groups of sessions_per_link, and — with the CDN tier enabled
//     (cdn.sessions_per_edge > 0) — consecutive groups share an edge cache.
//     The partition unit is whatever sessions couple through: the link
//     group without a CDN tier (group g -> shard g % shards), the whole
//     edge with one (edge e -> shard e % shards), so a unit's dynamics are
//     identical no matter how many shards (or threads) run.
//   * The shard count is part of the WORLD, not of the runtime: merged
//     metrics depend on `shards` (partial-sum order), while the thread
//     count executing those shards never changes a single byte.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cdn/topology.h"
#include "core/session.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "media/video_model.h"
#include "net/link.h"
#include "obs/slo.h"
#include "sim/time.h"

namespace sperke::engine {

struct WorldSpec {
  // Content. Every shard builds its own VideoModel from this config. The
  // model holds no mutable state (its TileGeometry is const-shareable), so
  // one instance could serve every shard; construction is cheap and
  // deterministic in the config, so the per-shard copies are identical.
  media::VideoModelConfig video;

  // Head traces: a pool of `trace_pool` traces generated once on the
  // calling thread (seed trace_template.seed + k for pool index k) and
  // shared read-only by every shard — HeadTrace is genuinely const.
  // Session i plays trace i % trace_pool.
  hmp::HeadTraceConfig trace_template;
  int trace_pool = 1;

  // Link topology: global sessions [g*sessions_per_link, (g+1)*...) share
  // one access link, built from `link` — or from link_for_group(g) when
  // set, e.g. to give each group a decorrelated bandwidth-trace seed. The
  // hook is called from shard threads and must be thread-safe (pure).
  net::LinkConfig link;
  std::function<net::LinkConfig(int group)> link_for_group;
  int sessions_per_link = 16;
  int transport_max_concurrent = 16;

  // Fault schedule (DESIGN.md §10). Every group runs the template `faults`
  // plan with its seed decorrelated per group (plan.seed + g) — so a chaos
  // world merges byte-identically at any thread count, exactly like the
  // link topology. The template overrides any plan inside `link` /
  // link_for_group(g) only when non-empty; a per-group plan rides in
  // link_for_group(g)'s LinkConfig::faults with the template left empty.
  net::FaultPlan faults;
  // Retry/timeout/failover policy injected into every shard transport.
  core::RecoveryPolicy transport_recovery;

  // Sessions. `session` is the template config; session_for(i), when set,
  // overrides it per global session id (same thread-safety rule as
  // link_for_group). Any telemetry pointer inside is ignored — shards
  // inject their own sink when session_telemetry is on.
  int sessions = 1;
  core::SessionConfig session;
  std::function<core::SessionConfig(int session)> session_for;

  // CDN tier (DESIGN.md §15): when cdn.sessions_per_edge > 0, consecutive
  // link groups covering that many sessions fetch through a shared edge
  // cache with a coalescing origin behind it, and the edge becomes the
  // partition unit (see shard_of_group). Left at its default (disabled),
  // every group fetches over a direct net::LinkSource and the world is
  // byte-identical to the pre-CDN engine.
  cdn::TopologySpec cdn;

  // Cross-user crowd prior shared read-only by every session (may be null).
  // Must be a frozen snapshot: its version() must not change while running.
  // Also feeds CDN cache warming when cdn.warm_tiles_per_chunk > 0.
  const hmp::ViewingHeatmap* crowd = nullptr;

  // Consecutive global sessions start this far apart.
  sim::Duration start_stagger{sim::milliseconds(10)};

  // Each shard runs its simulator until this virtual time.
  sim::Time horizon{sim::seconds(600.0)};

  // Partitioning and reproducibility. Shard k derives its private RNG
  // stream as Rng(seed ^ k).
  int shards = 1;
  std::uint64_t seed = 1;

  // Observability: per-session metrics/trace into the shard's Telemetry,
  // and/or a per-shard SimMonitor watching the shard's event loop.
  bool session_telemetry = false;
  bool monitor = false;

  // Run-scope time series: when positive, each shard samples its registry
  // into an obs::TimeSeriesStore every sample_period of virtual time
  // (intervals land at exact period multiples, so every shard closes the
  // same floor(horizon/period) intervals and the merged series is
  // byte-identical at any thread count).
  sim::Duration sample_period{0};
  // SLOs evaluated on the sampled series after every interval (requires
  // sample_period > 0). Each shard evaluates the full list against its own
  // series; EngineResult carries the shard-id-ordered merged rollup.
  std::vector<obs::SloSpec> slos;
};

// Number of link groups the spec induces.
[[nodiscard]] int group_count(const WorldSpec& spec);

// CDN mapping (enabled tier only): link groups per edge and the edge a
// group belongs to. edge_of_group returns -1 when the tier is disabled —
// the "fetch directly" signal cdn::Topology::add_group understands.
[[nodiscard]] int groups_per_edge(const WorldSpec& spec);
[[nodiscard]] int edge_of_group(const WorldSpec& spec, int group);

// Stable identity mapping: global session -> link group -> shard. The
// partition unit is the link group, or the whole edge when the CDN tier is
// enabled (all of an edge's groups land on one shard, so a cache's
// dynamics never depend on thread placement).
[[nodiscard]] int group_of_session(const WorldSpec& spec, int session);
[[nodiscard]] int shard_of_group(const WorldSpec& spec, int group);

// The template `faults` plan reseeded for group g (seed + g), or an empty
// plan when the template is empty (the group's LinkConfig keeps whatever it
// carries).
[[nodiscard]] net::FaultPlan faults_of_group(const WorldSpec& spec, int group);

// Throws std::invalid_argument on nonsensical specs (no sessions, bad
// group size, shards < 1, empty trace pool).
void validate(const WorldSpec& spec);

// Generate the shared head-trace pool (trace_template with seed + k).
[[nodiscard]] std::vector<hmp::HeadTrace> build_trace_pool(const WorldSpec& spec);

}  // namespace sperke::engine
