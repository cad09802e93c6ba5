#include "geo/visibility.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <tuple>

#include "util/check.h"
#include "util/math.h"

namespace sperke::geo {

namespace {

// Ids start at 1 so 0 stays the Scratch memo's "empty entry" marker.
// Atomic: shards construct their TileGeometry on engine worker threads.
std::uint64_t next_instance_id() {
  // sperke: allow(shared-state) atomic relaxed fetch_add; ids only key per-thread memo entries, so allocation order never affects results
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TileGeometry::TileGeometry(std::shared_ptr<const Projection> projection,
                           TileGrid grid, int samples_per_axis)
    : projection_(std::move(projection)),
      grid_(grid),
      instance_id_(next_instance_id()),
      samples_per_axis_(samples_per_axis) {
  if (!projection_) throw std::invalid_argument("TileGeometry: null projection");
  if (samples_per_axis_ < 2) throw std::invalid_argument("TileGeometry: samples_per_axis < 2");

  // Equirect tile edges are constant-lat/lon lines; precompute them for the
  // sign-test classifier (see classify_equirect).
  if (dynamic_cast<const EquirectangularProjection*>(projection_.get()) != nullptr) {
    equirect_fast_ = true;
    for (int j = 1; j < grid_.rows(); ++j) {
      row_sin_.push_back(std::sin(deg_to_rad(90.0 - 180.0 * j / grid_.rows())));
    }
    for (int k = 1; k < grid_.cols(); ++k) {
      const double lon = 360.0 * k / grid_.cols() - 180.0;
      const double r = deg_to_rad(lon);
      if (lon <= 0.0) {
        ++col_base_;
        // The lon == 0 meridian needs no test: every lon >= 0 passes it.
        if (lon < 0.0) col_neg_.emplace_back(std::cos(r), std::sin(r));
      } else {
        col_pos_.emplace_back(std::cos(r), std::sin(r));
      }
    }
  }

  // Precompute per-tile solid angle by sampling the sphere uniformly:
  // stratified in longitude and in sin(latitude) (equal-area bands). The
  // sin/cos of each longitude and latitude are hoisted out of the loop; the
  // directions keep direction_from_lonlat's expressions.
  constexpr std::size_t kLonSamples = 256;
  constexpr std::size_t kLatSamples = 128;
  std::array<double, kLatSamples> cos_lat{};
  std::array<double, kLatSamples> sin_lat{};
  for (std::size_t j = 0; j < kLatSamples; ++j) {
    const double z = (j + 0.5) / kLatSamples * 2.0 - 1.0;  // sin(lat)
    const double lat = deg_to_rad(std::clamp(rad_to_deg(std::asin(z)), -90.0, 90.0));
    cos_lat[j] = std::cos(lat);
    sin_lat[j] = std::sin(lat);
  }
  solid_angle_.assign(static_cast<std::size_t>(grid_.tile_count()), 0.0);
  for (std::size_t i = 0; i < kLonSamples; ++i) {
    const double lon = deg_to_rad((i + 0.5) / kLonSamples * 360.0 - 180.0);
    const double cos_lon = std::cos(lon);
    const double sin_lon = std::sin(lon);
    for (std::size_t j = 0; j < kLatSamples; ++j) {
      const Vec3 dir{cos_lat[j] * cos_lon, cos_lat[j] * sin_lon, sin_lat[j]};
      solid_angle_[static_cast<std::size_t>(classify(dir))] += 1.0;
    }
  }
  const double total = kLonSamples * static_cast<double>(kLatSamples);
  for (double& f : solid_angle_) f /= total;

  tile_centers_.reserve(static_cast<std::size_t>(grid_.tile_count()));
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    tile_centers_.push_back(projection_->direction_from_uv(grid_.tile_center(id)));
  }
}

TileId TileGeometry::classify_equirect(const Vec3& d) const {
  // Directions within ~1e-12 of a tile edge defer to the generic chain: its
  // rounding there is not reproducible from sign tests alone (e.g. a |lat|
  // below half an ulp of 90.0 vanishes inside (90 - lat) / 180, flipping the
  // row), so the guard band keeps the two paths bit-identical everywhere.
  constexpr double kEdgeEps = 1e-12;

  // Row: count latitude boundaries at or above the direction. The generic
  // path re-normalizes inside lonlat_from_direction, so divide z the same
  // way before comparing.
  const double z = d.z / d.norm();
  int row = 0;
  for (const double s : row_sin_) {
    if (std::abs(z - s) < kEdgeEps) {
      return grid_.tile_at(projection_->uv_from_direction(d));
    }
    row += (z <= s) ? 1 : 0;
  }

  if (std::abs(d.y) <= kEdgeEps * (std::abs(d.x) + std::abs(d.y))) {
    // On or near the lon == 0 / ±180 half-split (this also covers the
    // degenerate x == y == 0 vertical, where atan2(±0, ±0) semantics pick
    // the seam column); defer to the generic chain rather than replicate it.
    return grid_.tile_at(projection_->uv_from_direction(d));
  }

  // Column: split on the sign of the longitude (the lon >= 0 test below
  // matches atan2's treatment of y == ±0), then count boundary meridians
  // passed via cross-product sign tests. Restricted to one half, every
  // test spans less than 180° of longitude, so the half-plane test is
  // exact; the tests are scale-invariant, so no normalization is needed.
  int col;
  const double xy_scale = std::abs(d.x) + std::abs(d.y);
  const bool lon_nonneg = d.y > 0.0;
  if (lon_nonneg) {
    col = col_base_;
    for (const auto& [c, s] : col_pos_) {
      const double cross = d.y * c - d.x * s;
      if (std::abs(cross) < kEdgeEps * xy_scale) {
        return grid_.tile_at(projection_->uv_from_direction(d));
      }
      col += (cross >= 0.0) ? 1 : 0;
    }
  } else {
    col = 0;
    for (const auto& [c, s] : col_neg_) {
      const double cross = d.y * c - d.x * s;
      if (std::abs(cross) < kEdgeEps * xy_scale) {
        return grid_.tile_at(projection_->uv_from_direction(d));
      }
      col += (cross >= 0.0) ? 1 : 0;
    }
  }
  return static_cast<TileId>(row * grid_.cols() + col);
}

TileId TileGeometry::classify(const Vec3& dir) const {
  return equirect_fast_ ? classify_equirect(dir)
                        : grid_.tile_at(projection_->uv_from_direction(dir));
}

void TileGeometry::mark_equirect_column(const Vec3& fr, Scratch& scratch) const {
  // A value more than kG (normalized) from its boundary is far outside
  // classify_equirect's kEdgeEps band plus rounding: its sign is the
  // classifier's. A column with a sample within kG is classified per sample.
  constexpr double kG = 1e-9;
  constexpr double kSecant = -1.0;  // resolve()'s x: no hint
  const auto& up = scratch.up_terms;
  const int n = static_cast<int>(up.size());
  const auto ray = [&](int j) { return fr + up[static_cast<std::size_t>(j)]; };
  const auto phi = [&](int j) {  // z|z|/|d|^2: monotone in sin(lat), no sqrt
    const Vec3 d = ray(j);
    return d.z * std::abs(d.z) / d.dot(d);
  };

  // Crossings are events pos * 8 + kind, so an int sort orders them by
  // sample; each kXOff is kXOn + 1, and kHalf adds the boundaries at or
  // below lon 0.
  enum { kRowOn, kRowOff, kColOn, kColOff, kHalfOn, kHalfOff };
  int row = 0;
  int col = 0;
  bool exact = false;  // some sample is within kG of a boundary
  const auto apply = [&](int kind) {
    const int step = kind % 2 == 0 ? 1 : -1;
    if (kind < kColOn) row += step;
    else col += kind < kHalfOn ? step : step * col_base_;
  };
  auto& events = scratch.events;
  events.clear();
  const auto add = [&](int pos, int kind) {
    if (pos == 0) apply(kind);  // part of sample 0's state
    if (pos > 0 && pos < n) events.push_back(pos * 8 + kind);
  };

  // Resolves a boundary on samples [lo, hi), where its value g is monotone:
  // g >= 0 switches at most once, past g's zero x (a hint, else the secant's
  // zero, exact for a linear g). The samples around x are probed and walked
  // to the switch, leaving in a, b the samples nearest the boundary (the
  // ends if g keeps its sign). Returns the switch, or hi.
  const auto resolve = [&](int lo, int hi, double g_lo, double g_hi, double x,
                           double eps, int on_kind, auto&& g) {
    const bool on_lo = g_lo >= 0.0;
    const bool on_hi = g_hi >= 0.0;
    int a = lo;  // the samples nearest the zero
    int b = hi - 1;
    double g_a = g_lo;
    double g_b = g_hi;
    if (on_lo != on_hi) {
      if (!(x >= lo && x <= hi - 1)) {
        x = lo + (hi - 1 - lo) * (g_lo / (g_lo - g_hi));
      }
      b = std::clamp(static_cast<int>(x) + 1, lo + 1, hi - 1);
      a = b - 1;
      g_a = g(a);
      g_b = g(b);
      while (a > lo && (g_a >= 0.0) != on_lo) b = a, g_b = g_a, g_a = g(--a);
      while (b + 1 < hi && (g_b >= 0.0) == on_lo)
        a = b, g_a = g_b, g_b = g(++b);
    }
    const int t = on_lo != on_hi ? b : hi;
    if (on_lo) add(lo, on_kind);
    if (t < hi) add(t, on_lo ? on_kind + 1 : on_kind);
    if (on_hi) add(hi, on_kind + 1);
    exact = exact || std::abs(g_a) <= eps || std::abs(g_b) <= eps;
    return t;
  };

  // Rows: sin(lat) peaks at b* = V.z|fr|^2 / (fr.z|V|^2), V = up_{n-1} (fr
  // is orthogonal to V), so it is monotone on [0, split) and [split, n),
  // whose ends span its range. As |s|s| - f|f|| <= 2|f - s|(|s| + |f - s|),
  // a phi more than 2kG(|s| + kG) from s|s| puts sin(lat) more than kG from
  // s, and a sin(lat) within kG of s keeps phi inside that margin.
  const Vec3 v = up[static_cast<std::size_t>(n - 1)];
  const double p = fr.z;
  const double q = v.z;
  const double ff = fr.dot(fr);
  const double vv = v.dot(v);
  const double j_star = (q * ff / (p * vv) + 1.0) / 2.0 * (n - 1);
  const int split =
      j_star >= 0.0 ? static_cast<int>(std::min(j_star, n - 1.0)) + 1 : 0;
  const Vec3 d_first = ray(0);
  const Vec3 d_last = ray(n - 1);
  const double phi_first = phi(0);
  const double phi_last = phi(n - 1);
  const double phi_a = phi(std::clamp(split - 1, 0, n - 1));  // piece ends
  const double phi_b = phi(std::clamp(split, 0, n - 1));
  const auto [phi_min, phi_max] =
      std::minmax({phi_first, phi_a, phi_b, phi_last});
  // The linear values scale with |d|, which peaks at the column's ends.
  const double eps =
      kG * std::sqrt(std::max(d_first.dot(d_first), d_last.dot(d_last)));
  for (const double s : row_sin_) {
    const double target = s * std::abs(s);
    const double margin = 2.0 * kG * (std::abs(s) + kG);
    if (target - phi_max > margin) {
      ++row;  // z <= s on the whole column: folded into sample 0's state
    } else if (phi_min - target > margin) {
      continue;  // z > s on the whole column
    } else if (s == 0.0) {  // the equator: -z is linear
      resolve(0, n, -d_first.z, -d_last.z, kSecant, eps, kRowOn,
              [&](int j) { return -ray(j).z; });
    } else {
      // z = s|d| on d = fr + V b: (q^2 - s^2|V|^2) b^2 + 2pq b + p^2 -
      // s^2|fr|^2 = 0 with (p + qb) s > 0; a root on a piece hints its switch.
      const double qa = q * q - s * s * vv;
      const double root =
          std::sqrt(std::max(p * q * p * q - qa * (p * p - s * s * ff), 0.0));
      for (const auto& [lo, hi, phi_lo, phi_hi] :
           {std::tuple{0, split, phi_first, phi_a},
            std::tuple{split, n, phi_b, phi_last}}) {
        if (lo == hi) continue;
        double x = kSecant;
        for (const double r : {(-p * q - root) / qa, (-p * q + root) / qa}) {
          const double xr = (r + 1.0) / 2.0 * (n - 1);
          if ((p + q * r) * s > 0.0 && xr >= lo && xr <= hi - 1) x = xr;
        }
        resolve(lo, hi, target - phi_lo, target - phi_hi, x, margin, kRowOn,
                [&](int j) { return target - phi(j); });
      }
    }
  }

  // Columns: the lon 0/±180 half-split (linear in j, as d_j = fr + up_j lie
  // on a line), then each half's meridians over the samples on that side.
  const bool pos_first = d_first.y >= 0.0;
  const int t = resolve(0, n, d_first.y, d_last.y, kSecant, eps, kHalfOn,
                        [&](int j) { return ray(j).y; });
  for (const auto& [lo, hi, pos] :
       {std::tuple{0, t, pos_first}, std::tuple{t, n, !pos_first}}) {
    if (lo == hi) continue;
    for (const auto& [c, s] : pos ? col_pos_ : col_neg_) {
      const auto cross = [&](int j) { return ray(j).y * c - ray(j).x * s; };
      resolve(lo, hi, cross(lo), cross(hi - 1), kSecant, eps, kColOn, cross);
    }
  }

  auto& seen = scratch.seen;
  if (exact) {
    for (int j = 0; j < n; ++j) {
      seen[static_cast<std::size_t>(classify_equirect(ray(j).normalized()))] = 1;
    }
    return;
  }
  // Sweep: each stretch between crossings is one tile.
  std::sort(events.begin(), events.end());
  int done = 0;  // samples [0, done) are marked
  const auto emit = [&](int stop) {
    if (stop == done) return;
    SPERKE_DCHECK(row >= 0 && row < grid_.rows() && col >= 0 &&
                  col < grid_.cols());
    seen[static_cast<std::size_t>(row * grid_.cols() + col)] = 1;
    done = stop;
  };
  for (const int e : events) {
    emit(e / 8);
    apply(e % 8);
  }
  emit(n);
}

std::vector<TileId> TileGeometry::visible_tiles(const Orientation& view,
                                                const Viewport& viewport) const {
  // sperke: allow(shared-state) per-thread scratch; never escapes the call
  thread_local Scratch scratch;
  std::vector<TileId> out;
  visible_tiles(view, viewport, out, scratch);
  return out;
}

void TileGeometry::visible_tiles(const Orientation& view, const Viewport& viewport,
                                 std::vector<TileId>& out, Scratch& scratch) const {
  // Exact-key memo hit: same geometry, same orientation bits, same
  // viewport. out receives a copy of the cached set (no allocation once
  // its capacity has grown past the FoV size).
  for (const Scratch::MemoEntry& entry : scratch.memo) {
    if (entry.geometry == instance_id_ && entry.view.yaw_deg == view.yaw_deg &&
        entry.view.pitch_deg == view.pitch_deg &&
        entry.view.roll_deg == view.roll_deg &&
        entry.viewport.width_deg == viewport.width_deg &&
        entry.viewport.height_deg == viewport.height_deg) {
      out.assign(entry.tiles.begin(), entry.tiles.end());
      return;
    }
  }
  const ViewBasis basis = view_basis(view.normalized());
  const double half_w = deg_to_rad(viewport.width_deg) / 2.0;
  const double half_h = deg_to_rad(viewport.height_deg) / 2.0;
  const double tan_w = std::tan(half_w);
  const double tan_h = std::tan(half_h);

  auto& seen = scratch.seen;
  seen.assign(static_cast<std::size_t>(grid_.tile_count()), 0);
  const int n = samples_per_axis_;  // >= 2, enforced by the constructor
  auto& up_terms = scratch.up_terms;
  up_terms.clear();
  for (int j = 0; j < n; ++j) {
    const double b = static_cast<double>(j) / (n - 1) * 2.0 - 1.0;
    up_terms.push_back(basis.up * (b * tan_h));
  }
  for (int i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / (n - 1) * 2.0 - 1.0;
    const Vec3 fr = basis.forward + basis.right * (a * tan_w);
    if (equirect_fast_) {
      mark_equirect_column(fr, scratch);
      continue;
    }
    for (int j = 0; j < n; ++j) {
      const Vec3 dir = (fr + up_terms[static_cast<std::size_t>(j)]).normalized();
      seen[static_cast<std::size_t>(classify(dir))] = 1;
    }
  }
  out.clear();
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    if (seen[static_cast<std::size_t>(id)]) out.push_back(id);
  }
  Scratch::MemoEntry& entry = scratch.memo[scratch.memo_next];
  scratch.memo_next = (scratch.memo_next + 1) % Scratch::kMemoEntries;
  entry.geometry = instance_id_;
  entry.view = view;
  entry.viewport = viewport;
  entry.tiles.assign(out.begin(), out.end());
}

std::vector<double> TileGeometry::tile_distances_deg(const Orientation& view) const {
  std::vector<double> out;
  tile_distances_deg(view, out);
  return out;
}

void TileGeometry::tile_distances_deg(const Orientation& view,
                                      std::vector<double>& out) const {
  const Vec3 dir = view.direction();
  out.clear();
  out.reserve(tile_centers_.size());
  for (const Vec3& c : tile_centers_) {
    out.push_back(rad_to_deg(angle_between(dir, c)));
  }
}

std::vector<TileId> TileGeometry::tiles_by_distance(const Orientation& view) const {
  // sperke: allow(shared-state) per-thread scratch; never escapes the call
  thread_local Scratch scratch;
  std::vector<TileId> out;
  tiles_by_distance(view, out, scratch);
  return out;
}

void TileGeometry::tiles_by_distance(const Orientation& view,
                                     std::vector<TileId>& out,
                                     Scratch& scratch) const {
  const Vec3 dir = view.direction();
  auto& keys = scratch.keys;
  keys.clear();
  keys.reserve(tile_centers_.size());
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    keys.emplace_back(
        rad_to_deg(angle_between(dir, tile_centers_[static_cast<std::size_t>(id)])),
        id);
  }
  // Lexicographic (distance, id) — the id key pins equal-distance ties to
  // ascending TileId, so no stable sort (and no side-array lambda) needed.
  std::sort(keys.begin(), keys.end());
  out.clear();
  out.reserve(keys.size());
  for (const auto& [dist, id] : keys) out.push_back(id);
}

std::vector<int> TileGeometry::oos_rings(const std::vector<TileId>& visible) const {
  // sperke: allow(shared-state) per-thread scratch; never escapes the call
  thread_local Scratch scratch;
  std::vector<int> out;
  oos_rings(visible, out, scratch);
  return out;
}

void TileGeometry::oos_rings(const std::vector<TileId>& visible,
                             std::vector<int>& out, Scratch& scratch) const {
  out.assign(static_cast<std::size_t>(grid_.tile_count()), -1);
  auto& frontier = scratch.queue;
  frontier.clear();
  for (TileId id : visible) {
    if (!grid_.contains(id)) throw std::out_of_range("oos_rings: bad TileId");
    out[static_cast<std::size_t>(id)] = 0;
    frontier.push_back(id);
  }
  const int rows = grid_.rows();
  const int cols = grid_.cols();
  const auto relax = [&](TileId nb, int next_ring) {
    auto& r = out[static_cast<std::size_t>(nb)];
    if (r < 0) {
      r = next_ring;
      frontier.push_back(nb);
    }
  };
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const TileId cur = frontier[head];
    const int next_ring = out[static_cast<std::size_t>(cur)] + 1;
    // Inlined TileGrid::neighbors (same visit order) to keep the BFS free
    // of per-tile allocations.
    const int row = cur / cols;
    const int col = cur % cols;
    if (row > 0) relax(cur - cols, next_ring);
    if (row + 1 < rows) relax(cur + cols, next_ring);
    relax(static_cast<TileId>(row * cols + (col + cols - 1) % cols), next_ring);
    if (cols > 1) relax(static_cast<TileId>(row * cols + (col + 1) % cols), next_ring);
  }
  // Unreached tiles (possible only with an empty visible set) get a large ring.
  for (auto& r : out) {
    if (r < 0) r = grid_.tile_count();
  }
}

Vec3 TileGeometry::tile_center_direction(TileId id) const {
  if (!grid_.contains(id)) throw std::out_of_range("tile_center_direction: bad TileId");
  return tile_centers_[static_cast<std::size_t>(id)];
}

}  // namespace sperke::geo
