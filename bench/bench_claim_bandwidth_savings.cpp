// Experiment C1 — the §1/§2 claims:
//   * FoV-agnostic delivery wastes most of its bytes (the user sees only a
//     fraction of the panorama);
//   * tiled FoV-guided streaming saves roughly 45-80% of bandwidth at the
//     same displayed quality ([16] reports ~45%, [37] 60-80%).
//
// Method: equal-quality comparison (quality pinned per row) between the
// FoV-agnostic planner and the FoV-guided planner, across several users,
// reporting downloaded bytes and the waste fraction.
#include <iostream>

#include "common.h"
#include "media/content_store.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace sperke;
  using namespace sperke::bench;

  std::cout << "C1: FoV-guided vs FoV-agnostic bandwidth at equal quality\n"
            << "(paper/SS2: tiling saves ~45% [16] to 60-80% [37])\n\n";

  TextTable table({"Quality level", "Agnostic MB", "Guided MB", "Saving %",
                   "Agnostic waste %", "Guided waste %"});
  const auto bandwidth = net::BandwidthTrace::constant(80'000.0);
  for (media::QualityLevel q = 1; q <= 3; ++q) {
    RunningStats agnostic_mb, guided_mb, agnostic_waste, guided_waste;
    for (std::uint64_t user = 0; user < 5; ++user) {
      core::SessionConfig guided;
      guided.abr.sperke.regular_vra = "fixed-" + std::to_string(q);
      core::SessionConfig agnostic;
      agnostic.planner = core::PlannerMode::kFovAgnostic;
      agnostic.abr.sperke.regular_vra = guided.abr.sperke.regular_vra;
      const auto trace = standard_trace_config(100 + user);
      const auto g = run_vod(bandwidth, guided, trace);
      const auto a = run_vod(bandwidth, agnostic, trace);
      guided_mb.add(static_cast<double>(g.qoe.bytes_downloaded) / 1e6);
      agnostic_mb.add(static_cast<double>(a.qoe.bytes_downloaded) / 1e6);
      guided_waste.add(100.0 * static_cast<double>(g.qoe.bytes_wasted) /
                       static_cast<double>(g.qoe.bytes_downloaded));
      agnostic_waste.add(100.0 * static_cast<double>(a.qoe.bytes_wasted) /
                         static_cast<double>(a.qoe.bytes_downloaded));
    }
    const double saving =
        100.0 * (1.0 - guided_mb.mean() / agnostic_mb.mean());
    table.add_row({std::to_string(q), TextTable::num(agnostic_mb.mean(), 1),
                   TextTable::num(guided_mb.mean(), 1), TextTable::num(saving, 1),
                   TextTable::num(agnostic_waste.mean(), 1),
                   TextTable::num(guided_waste.mean(), 1)});
  }
  std::cout << table.str() << '\n';

  // Tile granularity sweep: coarse tiles force over-fetch (a partially
  // visible tile is fetched whole), so the saving grows with finer grids —
  // the knob behind the 45% [16] vs 60-80% [37] spread in the literature.
  std::cout << "Saving vs tile granularity (quality pinned to level 2):\n";
  const auto user_trace = standard_trace_config(150);
  TextTable grid_table({"Tile grid", "Agnostic MB", "Guided MB", "Saving %"});
  for (const auto& [rows, cols] : {std::pair{2, 4}, {4, 6}, {6, 8}, {8, 12}}) {
    media::VideoModelConfig video = standard_video_config();
    video.tile_rows = rows;
    video.tile_cols = cols;
    core::SessionConfig guided;
    guided.abr.sperke.regular_vra = "fixed-2";
    core::SessionConfig agnostic;
    agnostic.planner = core::PlannerMode::kFovAgnostic;
    agnostic.abr.sperke.regular_vra = "fixed-2";
    const auto g = run_vod(bandwidth, guided, user_trace, nullptr, video);
    const auto a = run_vod(bandwidth, agnostic, user_trace, nullptr, video);
    const double g_mb = static_cast<double>(g.qoe.bytes_downloaded) / 1e6;
    const double a_mb = static_cast<double>(a.qoe.bytes_downloaded) / 1e6;
    grid_table.add_row({std::to_string(rows) + "x" + std::to_string(cols),
                        TextTable::num(a_mb, 1), TextTable::num(g_mb, 1),
                        TextTable::num(100.0 * (1.0 - g_mb / a_mb), 1)});
  }
  std::cout << grid_table.str() << '\n';

  // OOS-budget ablation at the finest grid: the protection margin is what
  // separates the conservative ~45% regime [16] from the aggressive
  // 60-80% regime [37] — and it buys stall protection, not waste.
  std::cout << "Saving vs OOS protection budget (8x12 tiles, quality 2):\n";
  TextTable oos_table({"OOS budget", "Guided MB", "Saving %", "Stall s", "Urgent"});
  media::VideoModelConfig fine_video = standard_video_config();
  fine_video.tile_rows = 8;
  fine_video.tile_cols = 12;
  core::SessionConfig agnostic_cfg;
  agnostic_cfg.planner = core::PlannerMode::kFovAgnostic;
  agnostic_cfg.abr.sperke.regular_vra = "fixed-2";
  const auto agnostic_fine =
      run_vod(bandwidth, agnostic_cfg, user_trace, nullptr, fine_video);
  const double a_mb = static_cast<double>(agnostic_fine.qoe.bytes_downloaded) / 1e6;
  for (double budget : {0.5, 0.35, 0.15, 0.05}) {
    core::SessionConfig guided;
    guided.abr.sperke.regular_vra = "fixed-2";
    guided.abr.sperke.oos.budget_fraction = budget;
    const auto g = run_vod(bandwidth, guided, user_trace, nullptr, fine_video);
    const double g_mb = static_cast<double>(g.qoe.bytes_downloaded) / 1e6;
    oos_table.add_row({TextTable::num(budget, 2), TextTable::num(g_mb, 1),
                       TextTable::num(100.0 * (1.0 - g_mb / a_mb), 1),
                       TextTable::num(g.qoe.stall_seconds, 2),
                       std::to_string(g.urgent_fetches)});
  }
  std::cout << oos_table.str() << '\n';

  // Server-side cost (§2): tiling keeps one copy per quality (plus the SVC
  // variant); FoV-versioning keeps up to 88 per-direction versions [46].
  {
    auto video = standard_video();
    const media::ContentStore store(video);
    const double tiling = store.storage_bytes_tiling(false) / 1e6;
    const double tiling_svc = store.storage_bytes_tiling(true) / 1e6;
    const double versioning = store.storage_bytes_versioning(88) / 1e6;
    std::cout << "Server storage for this 60 s video (SS2 tradeoff):\n";
    TextTable storage({"Approach", "Storage MB", "vs tiling"});
    storage.add_row({"tiling (AVC ladder)", TextTable::num(tiling, 0), "1.0x"});
    storage.add_row({"tiling (AVC + SVC)", TextTable::num(tiling_svc, 0),
                     TextTable::num(tiling_svc / tiling, 1) + "x"});
    storage.add_row({"versioning, 88 versions (Oculus [46])",
                     TextTable::num(versioning, 0),
                     TextTable::num(versioning / tiling, 1) + "x"});
    std::cout << storage.str() << '\n';
  }

  // Secondary claim (§1): under the same perceived quality, 360 videos are
  // ~4-5x larger than conventional videos, because the panorama is ~5x the
  // viewport's solid angle. We report the panorama/viewport byte ratio.
  auto video = standard_video();
  const auto visible =
      video->geometry().visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0});
  double viewport_share = 0.0;
  for (geo::TileId t : visible) {
    viewport_share += video->tile_shares()[static_cast<std::size_t>(t)];
  }
  std::cout << "Panorama bytes / viewport-tile bytes at equal quality: "
            << TextTable::num(1.0 / viewport_share, 1)
            << "x (paper: ~5x, SS1)\n";
  return 0;
}
