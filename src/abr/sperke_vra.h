// The integrated 360° VRA (§3.1.2), assembled from three pluggable parts:
//   part 1 — a regular VRA choosing the super-chunk (FoV) quality,
//   part 2 — OOS chunk selection around the predicted FoV,
//   part 3 — incremental (SVC) upgrade decisions at runtime.
// Plus the §3.1.2 extension: a hybrid SVC/AVC mode that fetches AVC for
// chunks unlikely to need upgrading (no SVC byte overhead) and SVC where
// upgrades are plausible.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "abr/oos.h"
#include "abr/plan.h"
#include "abr/policy.h"
#include "abr/regular_vra.h"
#include "media/video_model.h"

namespace sperke::abr {

// How chunk bytes are laid out / which upgrade paths exist.
enum class EncodingMode {
  kAvcNoUpgrade,  // plain AVC; mispredicted tiles stay at their low quality
  kAvcRefetch,    // plain AVC; upgrading means re-downloading the full chunk
  kSvc,           // layered; upgrading fetches only the delta (§3.1.1)
  // Hybrid SVC/AVC (§3.1.2): FoV tiles are already at the target quality —
  // "not likely to upgrade" — so they take the overhead-free AVC copy;
  // OOS tiles are the upgrade candidates and take SVC. Upgrades pick the
  // cheaper of a delta (on an SVC base) or a full AVC refetch.
  kHybrid,
};

[[nodiscard]] std::string to_string(EncodingMode mode);

struct SperkeVraConfig {
  std::string regular_vra = "throughput";
  OosConfig oos;
  EncodingMode mode = EncodingMode::kSvc;

  // Upgrade policy (part 3). The probability test is a *lift over
  // uniform*: a tile qualifies when its visibility probability exceeds
  // threshold / tile_count (plain probabilities spread thin across the
  // ~10 tiles of a FoV, so an absolute cut would never fire).
  double upgrade_prob_threshold = 1.5;   // minimum lift over uniform
  // Cost-benefit gate: the expected utility gain (lift x utility delta)
  // must clear this floor, so bandwidth is not spent on marginal upgrades.
  double upgrade_min_benefit = 0.35;
  sim::Duration upgrade_window{sim::seconds(4)};  // don't upgrade earlier
  double upgrade_safety = 0.8;  // fraction of deadline slack usable
};

// The paper's own policy behind the TileAbrPolicy interface. Construct via
// abr::make_policy outside abr/ (tools/sperke_analyze.py enforces it).
class SperkeVra final : public TileAbrPolicy {
 public:
  SperkeVra(std::shared_ptr<const media::VideoModel> video, SperkeVraConfig config);

  [[nodiscard]] std::string_view name() const override { return "sperke"; }

  // Plan all fetches for chunk `index` (see TileAbrPolicy for the params).
  void plan_chunk_into(media::ChunkIndex index,
                       const std::vector<geo::TileId>& predicted_fov,
                       std::span<const double> tile_probabilities,
                       double estimated_kbps, sim::Duration buffer_level,
                       media::QualityLevel last_quality,
                       PlanWorkspace& workspace, ChunkPlan& out) const override;

  // Part 3: should a buffered tile displayed at `current` quality be
  // upgraded to `target`, given its display probability and deadline slack?
  //  * upgrade-or-not — the expected benefit (probability lift x utility
  //    gain) must clear a floor and the download must fit in the
  //    safety-discounted slack;
  //  * when — not earlier than `upgrade_window` before the deadline, since
  //    HMP may still change (too early wastes bytes; too late misses it);
  //  * how — a delta on the cell's SVC base (`svc_layer_base`, -1 if the
  //    cell holds no contiguous layers) or an AVC refetch, depending on
  //    the encoding mode; hybrid picks whichever is cheaper.
  [[nodiscard]] UpgradeDecision consider_upgrade(
      const media::ChunkKey& key, media::QualityLevel current,
      media::QualityLevel svc_layer_base, media::QualityLevel target,
      double visible_probability, sim::Duration time_to_deadline,
      double estimated_kbps) const override;

  // Base-tier emergencies reuse the mode's non-upgradable encoding: plain
  // AVC in the AVC modes, the layer-0 SVC base otherwise.
  [[nodiscard]] media::Encoding base_tier_encoding() const override {
    return (config_.mode == EncodingMode::kAvcNoUpgrade ||
            config_.mode == EncodingMode::kAvcRefetch)
               ? media::Encoding::kAvc
               : media::Encoding::kSvc;
  }
  [[nodiscard]] sim::Duration upgrade_window() const override {
    return config_.upgrade_window;
  }

  [[nodiscard]] const SperkeVraConfig& config() const { return config_; }
  [[nodiscard]] const RegularVra& regular() const { return *regular_; }

 private:
  // Encoding used for FoV fetches / for OOS fetches under the mode.
  [[nodiscard]] media::Encoding fov_encoding() const;
  [[nodiscard]] media::Encoding oos_encoding() const;

  std::shared_ptr<const media::VideoModel> video_;
  SperkeVraConfig config_;
  std::unique_ptr<RegularVra> regular_;
  OosSelector oos_;
};

}  // namespace sperke::abr
