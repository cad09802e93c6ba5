// PlaybackClock: the seam between the one tile-session core
// (core::StreamingSession) and what differs between on-demand and live
// playback (DESIGN.md §17). The session owns the shared client machinery —
// head observation, FoV selection from fused probabilities, dispatch with
// base-tier recovery, the upgrade scan, waste accounting — and asks its
// clock only the questions below. On-demand streaming uses the session's
// own clock (core/session.cpp); live::TiledLiveSession is the live clock.
#pragma once

#include <span>

#include "geo/tile_grid.h"
#include "media/chunk.h"
#include "sim/time.h"

namespace sperke::core {

class StreamingSession;

class PlaybackClock {
 public:
  PlaybackClock() = default;
  PlaybackClock(const PlaybackClock&) = delete;
  PlaybackClock& operator=(const PlaybackClock&) = delete;
  virtual ~PlaybackClock() = default;

  // Called once by StreamingSession::start(): arrange when chunks are
  // planned (plan_next) and shown (play).
  virtual void on_start() = 0;

  // Content time the viewer watches now: indexes the head trace, and chunk
  // start times minus it are the HMP horizons.
  [[nodiscard]] virtual sim::Time content_now() const = 0;

  // Wall-clock time chunk `index` is due to be shown. The planner's buffer
  // level and the urgency of a fetch are measured against it.
  [[nodiscard]] virtual sim::Time deadline(media::ChunkIndex index) const = 0;

  // First chunk whose tiles can still be shown: tiles of earlier chunks
  // that arrive now are wasted, and the upgrade scan starts here.
  [[nodiscard]] virtual media::ChunkIndex first_showable() const = 0;

  // Whether fetches that settle after the session finished still count
  // toward downloaded bytes and fetch failures.
  [[nodiscard]] virtual bool counts_after_finish() const = 0;

  // Turn the fused tile probabilities of chunk `index`, `horizon` ahead,
  // into the prior the planner uses (in place; must still sum to 1).
  virtual void blend_prior(media::ChunkIndex /*index*/,
                           sim::Duration /*horizon*/,
                           std::span<double> /*probs*/) const {}

  // A fetch was delivered (possibly too late to show) or failed for good;
  // best-effort drops do not settle here.
  virtual void on_settled() {}

  // Chunk `index` is due; `missing` lists its visible tiles that cannot be
  // displayed (possibly none). Returns true to hold playback: the chunk is
  // not shown now and play() must be called again later.
  virtual bool hold(media::ChunkIndex index,
                    std::span<const geo::TileId> missing) = 0;

  // Chunk `index` was shown with the `shown` visible tiles (none: skipped).
  virtual void played(media::ChunkIndex index,
                      std::span<const geo::TileId> shown) = 0;

 protected:
  // Session actions a clock drives; valid once the session is constructed.
  void plan_next();  // plans the next unplanned chunk
  void play(media::ChunkIndex index);
  void finish();

 private:
  friend class StreamingSession;
  StreamingSession* session_ = nullptr;
};

}  // namespace sperke::core
