// Opt-in exhaustive check of TileGeometry::visible_tiles against the naive
// per-sample reference: a 0.1° yaw x pitch sweep of the whole sphere with
// rolls, on the default 4x6 grid and 24x24 frustum samples. It is the long
// run behind perf_equivalence_test's always-on 1° sweep and randomized
// slice, and takes minutes, so it runs only under `ctest -C fuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "geo/visibility.h"
#include "visibility_reference.h"

namespace sperke {
namespace {

TEST(VisibilityFuzz, TenthDegreeSweepWithRollsMatchesNaive) {
  constexpr int kSamplesPerAxis = 24;
  constexpr int kYawSteps = 3600;    // [-180, 180) in 0.1° steps
  constexpr int kPitchSteps = 1801;  // [-90, 90] in 0.1° steps
  constexpr std::array<double, 5> kRolls = {0.0, 15.0, -37.5, 90.0, 180.0};
  const geo::Viewport viewport{100.0, 90.0};
  // A TileGeometry holds no mutable state, so the workers share one.
  const geo::TileGeometry geometry(geo::make_projection("equirectangular"),
                                   geo::TileGrid(4, 6), kSamplesPerAxis);

  const int workers =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
  std::vector<long> mismatches(static_cast<std::size_t>(workers), 0);
  std::vector<std::string> first(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      geo::TileGeometry::Scratch scratch;
      std::vector<geo::TileId> fast;
      for (int ip = w; ip < kPitchSteps; ip += workers) {
        const double pitch = -90.0 + 0.1 * ip;
        for (int iy = 0; iy < kYawSteps; ++iy) {
          const geo::Orientation view{-180.0 + 0.1 * iy, pitch,
                                      kRolls[static_cast<std::size_t>(iy + ip) % kRolls.size()]};
          geometry.visible_tiles(view, viewport, fast, scratch);
          if (fast == reference::naive_visible_tiles(geometry, view, viewport,
                                                     kSamplesPerAxis)) {
            continue;
          }
          if (mismatches[static_cast<std::size_t>(w)]++ == 0) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "yaw=%.17g pitch=%.17g roll=%.17g",
                          view.yaw_deg, view.pitch_deg, view.roll_deg);
            first[static_cast<std::size_t>(w)] = buf;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < workers; ++w) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(w)], 0)
        << "first mismatch: " << first[static_cast<std::size_t>(w)];
  }
}

}  // namespace
}  // namespace sperke
