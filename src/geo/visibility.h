// FoV -> tile-set computation: the heart of FoV-guided streaming.
//
// TileGeometry binds a Projection and a TileGrid and answers the questions
// the streaming stack keeps asking:
//   * which tiles does this viewport cover? (visible set)
//   * how far is a tile from the view center? (OOS ranking, §3.1.2)
//   * what fraction of the sphere does a tile cover? (bandwidth weighting)
//
// Hot-path notes (DESIGN.md §8): every query has an out-parameter overload
// taking a reusable Scratch so steady-state callers allocate nothing; the
// allocating signatures are thin wrappers. Equirect directions classify by
// sign tests against precomputed row sines and boundary meridians; along a
// frustum sample column those tests are linear or unimodal, so
// visible_tiles prunes boundaries that keep one side by a margin, locates
// the others from their zero and two probes, and classifies a column per
// sample only if a sample lies within the margin (1e-9, far above the
// classifier's 1e-12 guard band plus rounding): the set is the per-sample
// one, bit for bit. The solid-angle build hoists its trig. TileGeometry
// holds no mutable state, so one instance may be shared across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geo/orientation.h"
#include "geo/projection.h"
#include "geo/tile_grid.h"

namespace sperke::geo {

// Field of view of the headset/screen; fixed device parameters per §2.
struct Viewport {
  double width_deg = 100.0;   // horizontal extent
  double height_deg = 90.0;   // vertical extent
};

class TileGeometry {
 public:
  // Reusable buffers for the out-parameter overloads. One Scratch may serve
  // any number of TileGeometry instances; the simulator is single-threaded,
  // so nothing here is synchronized.
  struct Scratch {
    std::vector<char> seen;                        // visible_tiles marks
    std::vector<Vec3> up_terms;                    // per-row frustum offsets
    std::vector<int> events;                       // per-column crossings
    std::vector<std::pair<double, TileId>> keys;   // tiles_by_distance keys
    std::vector<TileId> queue;                     // oos_rings BFS FIFO
    // Small exact memo for visible_tiles: a repeat query with a
    // bit-identical (geometry, orientation, viewport) key returns the
    // cached set without re-sampling the frustum. Coverage re-checks
    // dominate the streaming hot loop — every fetch completion during
    // startup or a stall re-asks for the same frozen orientation, and a
    // stalled session's upgrade scans cycle through the same handful of
    // frozen per-chunk predictions — so exact-match caching removes most
    // classification work while staying byte-identical to recomputing.
    // kMemoEntries covers the prefetch window plus the playhead query;
    // entries are replaced round-robin. Geometry identity uses the
    // instance id, not the address: one Scratch may outlive a geometry,
    // and a pointer key would go stale when the allocator reuses the
    // address for a different grid (ABA).
    static constexpr int kMemoEntries = 6;
    struct MemoEntry {
      std::uint64_t geometry = 0;  // instance_id(); invalid while 0
      Orientation view{};
      Viewport viewport{};
      std::vector<TileId> tiles;
    };
    MemoEntry memo[kMemoEntries];
    int memo_next = 0;  // round-robin replacement cursor
  };

  // Takes shared ownership of the projection so sessions can share one.
  TileGeometry(std::shared_ptr<const Projection> projection, TileGrid grid,
               int samples_per_axis = 24);

  [[nodiscard]] const Projection& projection() const { return *projection_; }
  [[nodiscard]] const TileGrid& grid() const { return grid_; }

  // Process-unique, never-reused identity of this instance (Scratch memo
  // key).
  [[nodiscard]] std::uint64_t instance_id() const { return instance_id_; }

  // Tiles intersected by the perspective viewport at the given orientation.
  // Computed by sampling rays across the frustum; sorted, unique.
  [[nodiscard]] std::vector<TileId> visible_tiles(const Orientation& view,
                                                  const Viewport& viewport) const;
  void visible_tiles(const Orientation& view, const Viewport& viewport,
                     std::vector<TileId>& out, Scratch& scratch) const;

  // Great-circle distance (degrees) from the view direction to each tile's
  // center direction; index = TileId. Used to rank OOS tiles.
  [[nodiscard]] std::vector<double> tile_distances_deg(const Orientation& view) const;
  void tile_distances_deg(const Orientation& view, std::vector<double>& out) const;

  // All tiles ordered by increasing angular distance from the view center;
  // ties broken by ascending TileId.
  [[nodiscard]] std::vector<TileId> tiles_by_distance(const Orientation& view) const;
  void tiles_by_distance(const Orientation& view, std::vector<TileId>& out,
                         Scratch& scratch) const;

  // BFS ring index per tile, 0 = inside `visible`, 1 = adjacent, etc.
  // Horizontal adjacency wraps. Index = TileId.
  [[nodiscard]] std::vector<int> oos_rings(const std::vector<TileId>& visible) const;
  void oos_rings(const std::vector<TileId>& visible, std::vector<int>& out,
                 Scratch& scratch) const;

  // Fraction of the sphere's solid angle covered by each tile (sums to ~1).
  // Precomputed by uniform-on-sphere sampling at construction.
  [[nodiscard]] const std::vector<double>& solid_angle_fractions() const {
    return solid_angle_;
  }

  // Unit direction of a tile's center.
  [[nodiscard]] Vec3 tile_center_direction(TileId id) const;

 private:
  [[nodiscard]] TileId classify_equirect(const Vec3& dir) const;
  [[nodiscard]] TileId classify(const Vec3& dir) const;
  // Marks in scratch.seen the tile of every sample fr + scratch.up_terms[j].
  void mark_equirect_column(const Vec3& fr, Scratch& scratch) const;

  std::shared_ptr<const Projection> projection_;
  TileGrid grid_;
  std::uint64_t instance_id_;
  int samples_per_axis_;
  std::vector<double> solid_angle_;
  std::vector<Vec3> tile_centers_;

  // Equirect fast-classifier tables (empty for other projections). Tile
  // edges are constant-latitude / constant-longitude lines, so a sample
  // classifies with sign tests only: the row counts z against the
  // precomputed sin(latitude) band boundaries, the column counts
  // cross-product tests against the precomputed boundary meridians of the
  // sample's longitude half (each test spans < 180°, so it is exact there).
  bool equirect_fast_ = false;
  std::vector<double> row_sin_;                          // descending
  std::vector<std::pair<double, double>> col_neg_;       // (cos, sin), lon < 0
  std::vector<std::pair<double, double>> col_pos_;       // (cos, sin), lon > 0
  int col_base_ = 0;                                     // #boundaries lon <= 0
};

}  // namespace sperke::geo
