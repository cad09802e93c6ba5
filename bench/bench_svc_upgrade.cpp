// Experiment C2 — §3.1's core argument (Figure 3 economics): conventional
// AVC encodings cannot upgrade an already-fetched chunk, so under HMP error
// the player either displays low-quality OOS tiles (AVC, no upgrade) or
// re-downloads whole chunks (AVC refetch); SVC upgrades fetch only the
// delta. The hybrid SVC/AVC mode avoids SVC overhead for confident tiles.
//
// Sweep: user head-movement speed (a proxy for HMP error level) x encoding
// mode; report displayed viewport quality, wasted bytes and upgrades.
#include <iostream>
#include <vector>

#include "common.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace sperke;
  using namespace sperke::bench;

  std::cout << "C2: incremental chunk upgrades under HMP error (SS3.1)\n"
            << "(expected shape: SVC/hybrid hold viewport quality with fewer\n"
            << " wasted bytes; AVC-no-upgrade degrades; AVC-refetch wastes)\n\n";

  struct ModeRow {
    const char* label;
    abr::EncodingMode mode;
  };
  const std::vector<ModeRow> modes = {
      {"AVC, no upgrade", abr::EncodingMode::kAvcNoUpgrade},
      {"AVC, refetch", abr::EncodingMode::kAvcRefetch},
      {"SVC delta", abr::EncodingMode::kSvc},
      {"Hybrid SVC/AVC", abr::EncodingMode::kHybrid},
  };
  struct UserRow {
    const char* label;
    hmp::UserProfile profile;
  };
  const std::vector<UserRow> users = {
      {"slow head (elderly)", hmp::UserProfile::elderly()},
      {"medium head (adult)", hmp::UserProfile::adult()},
      {"fast head (teenager)", hmp::UserProfile::teenager()},
  };

  const auto bandwidth = net::BandwidthTrace::constant(18'000.0);

  // Part A: the SVC-overhead axis. SVC pays its bitstream tax on *every*
  // byte but upgrades with cheap deltas; AVC-refetch pays nothing upfront
  // but re-downloads whole chunks. The crossover as the overhead grows is
  // precisely why §3.1.2 proposes the hybrid SVC/AVC scheme.
  std::cout << "A. Viewport utility vs SVC bitstream overhead (adult head)\n";
  TextTable overhead_table({"SVC overhead", "refetch util", "svc util",
                            "hybrid util", "refetch MB", "svc MB", "hybrid MB"});
  for (double overhead : {0.0, 0.1, 0.25}) {
    media::VideoModelConfig video = standard_video_config();
    video.svc_overhead = overhead;
    auto run_mode = [&](abr::EncodingMode mode) {
      core::SessionConfig config;
      config.abr.sperke.mode = mode;
      RunningStats utility, mb;
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto r = run_vod(bandwidth, config,
                               standard_trace_config(300 + seed), nullptr, video);
        utility.add(r.qoe.mean_viewport_utility);
        mb.add(static_cast<double>(r.qoe.bytes_downloaded) / 1e6);
      }
      return std::pair{utility.mean(), mb.mean()};
    };
    const auto refetch = run_mode(abr::EncodingMode::kAvcRefetch);
    const auto svc = run_mode(abr::EncodingMode::kSvc);
    const auto hybrid = run_mode(abr::EncodingMode::kHybrid);
    overhead_table.add_row(
        {TextTable::num(overhead * 100.0, 0) + "%", TextTable::num(refetch.first, 3),
         TextTable::num(svc.first, 3), TextTable::num(hybrid.first, 3),
         TextTable::num(refetch.second, 1), TextTable::num(svc.second, 1),
         TextTable::num(hybrid.second, 1)});
  }
  std::cout << overhead_table.str() << '\n';

  std::cout << "B. Encoding modes across head-movement speed (10% overhead)\n";
  for (const auto& user : users) {
    std::cout << "--- " << user.label << " ---\n";
    TextTable table({"Encoding mode", "Viewport utility", "Stall s", "MB total",
                     "Waste %", "Upgrades", "Late fixes"});
    for (const auto& mode : modes) {
      RunningStats utility, stall, mb, waste, upgrades, late;
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        core::SessionConfig config;
        config.abr.sperke.mode = mode.mode;
        const auto r = run_vod(bandwidth, config,
                               standard_trace_config(300 + seed, user.profile));
        utility.add(r.qoe.mean_viewport_utility);
        stall.add(r.qoe.stall_seconds);
        mb.add(static_cast<double>(r.qoe.bytes_downloaded) / 1e6);
        waste.add(100.0 * static_cast<double>(r.qoe.bytes_wasted) /
                  std::max<std::int64_t>(1, r.qoe.bytes_downloaded));
        upgrades.add(r.upgrades);
        late.add(r.late_corrections);
      }
      table.add_row({mode.label, TextTable::num(utility.mean(), 3),
                     TextTable::num(stall.mean(), 2), TextTable::num(mb.mean(), 1),
                     TextTable::num(waste.mean(), 1),
                     TextTable::num(upgrades.mean(), 0),
                     TextTable::num(late.mean(), 0)});
    }
    std::cout << table.str() << '\n';
  }
  return 0;
}
