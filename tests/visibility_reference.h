// Naive reference for TileGeometry::visible_tiles, shared by the always-on
// equivalence suite (perf_equivalence_test) and the opt-in fuzz sweep
// (visibility_fuzz_test, `ctest -C fuzz`).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "geo/orientation.h"
#include "geo/visibility.h"
#include "util/math.h"

namespace sperke::reference {

// The pre-optimization visible_tiles over an n x n frustum grid (n must be
// the geometry's samples_per_axis): every sample goes through the full
// uv_from_direction -> tile_at chain, with the direction built by the same
// left-associated expression the production loop hoists.
inline std::vector<geo::TileId> naive_visible_tiles(
    const geo::TileGeometry& geometry, const geo::Orientation& view,
    const geo::Viewport& viewport, int n) {
  const geo::ViewBasis basis = geo::view_basis(view.normalized());
  const double half_w = deg_to_rad(viewport.width_deg) / 2.0;
  const double half_h = deg_to_rad(viewport.height_deg) / 2.0;
  const double tan_w = std::tan(half_w);
  const double tan_h = std::tan(half_h);
  std::vector<char> seen(static_cast<std::size_t>(geometry.grid().tile_count()), 0);
  for (int i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / (n - 1) * 2.0 - 1.0;
    for (int j = 0; j < n; ++j) {
      const double b = static_cast<double>(j) / (n - 1) * 2.0 - 1.0;
      const geo::Vec3 dir = (basis.forward + basis.right * (a * tan_w) +
                             basis.up * (b * tan_h))
                                .normalized();
      const geo::TileId id =
          geometry.grid().tile_at(geometry.projection().uv_from_direction(dir));
      seen[static_cast<std::size_t>(id)] = 1;
    }
  }
  std::vector<geo::TileId> out;
  for (geo::TileId id = 0; id < geometry.grid().tile_count(); ++id) {
    if (seen[static_cast<std::size_t>(id)]) out.push_back(id);
  }
  return out;
}

}  // namespace sperke::reference
