// The fetch seam between transports and the network topology.
//
// core::*Transport used to take a bare net::Link&, which left no place for
// a cache tier to live: every byte a client fetched came straight off its
// own access link. ChunkSource is the redesigned API — "fetch this chunk,
// tell me when it settles" — behind which a fetch can be a direct link
// transfer (LinkSource, bit-identical to the old behaviour) or a trip
// through a CDN edge cache with an origin behind it (cdn::EdgeSource,
// DESIGN.md §15).
//
// ChunkId is the canonical identity of a downloadable object, replacing the
// ad-hoc (tile, chunk, level) tuples previously threaded through transport
// and telemetry request spans. It is what caches key on, what coalescing
// dedupes on, and what trace labels are derived from.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "media/chunk.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace sperke::net {

// Canonical key of one downloadable media object, as the network tier sees
// it. `layer` disambiguates the quality axis: layer == -1 is a single-layer
// (AVC) object whose ladder rung is `quality`; layer >= 0 is the SVC layer
// object `layer` (quality stays 0 — the layer IS the quality coordinate).
// Single-video worlds leave `video` at 0.
struct ChunkId {
  std::int32_t video = 0;    // content id
  std::int32_t chunk = 0;    // temporal index (media::ChunkIndex)
  std::int32_t tile = 0;     // spatial tile (geo::TileId)
  std::int32_t quality = 0;  // AVC ladder rung; 0 for SVC layer objects
  std::int32_t layer = -1;   // SVC layer index; -1 = single-layer (AVC)

  friend auto operator<=>(const ChunkId&, const ChunkId&) = default;

  [[nodiscard]] constexpr bool svc() const { return layer >= 0; }

  // The single "level" label telemetry and goldens carry: the AVC ladder
  // rung or the SVC layer index, exactly as media::ChunkAddress::level.
  [[nodiscard]] constexpr std::int32_t level() const {
    return svc() ? layer : quality;
  }
};

// Lossless round-trip with the media-layer address (the key ABR plans in).
[[nodiscard]] constexpr ChunkId to_chunk_id(const media::ChunkAddress& address,
                                            std::int32_t video = 0) {
  const bool svc = address.encoding == media::Encoding::kSvc;
  return ChunkId{.video = video,
                 .chunk = address.key.index,
                 .tile = address.key.tile,
                 .quality = svc ? 0 : address.level,
                 .layer = svc ? address.level : -1};
}

[[nodiscard]] constexpr media::ChunkAddress to_chunk_address(const ChunkId& id) {
  return media::ChunkAddress{
      .key = {.tile = id.tile, .index = id.chunk},
      .encoding = id.svc() ? media::Encoding::kSvc : media::Encoding::kAvc,
      .level = id.level()};
}

// Handle for one outstanding fetch, scoped to the issuing ChunkSource.
using FetchId = std::uint64_t;

// One fetch as a transport submits it. `weight` is the HTTP/2-style stream
// priority forwarded to whichever link ends up carrying the bytes;
// `deadline` is advisory (a topology may use it to order or shed work —
// the direct LinkSource ignores it, the transport's own timeout machinery
// still cancels late fetches).
struct FetchSpec {
  ChunkId id;
  std::int64_t bytes = 0;
  double weight = 1.0;
  sim::Time deadline{sim::kTimeZero};
};

// Pure fetch interface consumed by core::SingleLinkTransport (and anything
// else that wants bytes without caring what topology delivers them).
// Contract, mirroring net::Link:
//   * fetch(): `on_done` fires exactly once with a typed TransferResult —
//     kCompleted (bytes_delivered == spec.bytes at the client), kFailed
//     (an upstream fault; bytes_delivered is what reached the client, 0
//     when the failure happened upstream of the access link), or
//     kCancelled (the caller's own cancel()).
//   * cancel(): fires the callback synchronously with kCancelled; returns
//     false — and fires nothing — if the fetch already settled, so the
//     completion callback can never double-fire.
//   * rtt()/simulator() expose the client-side clock and first-byte latency
//     the transport's throughput estimator and timeout events need.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  virtual FetchId fetch(const FetchSpec& spec, TransferCallback on_done) = 0;
  virtual bool cancel(FetchId id) = 0;

  // Effective client-side RTT right now (first-byte latency of a fetch).
  [[nodiscard]] virtual sim::Duration rtt() const = 0;
  [[nodiscard]] virtual sim::Simulator& simulator() = 0;
};

// Direct-link ChunkSource: every fetch is one transfer on `link`, verbatim.
// This is the adapter that keeps pre-CDN worlds bit-identical — it forwards
// (bytes, callback, weight) to Link::start_transfer unchanged and never
// looks at the ChunkId or deadline.
class LinkSource final : public ChunkSource {
 public:
  // `link` must outlive the source.
  explicit LinkSource(Link& link) : link_(link) {}

  FetchId fetch(const FetchSpec& spec, TransferCallback on_done) override {
    return link_.start_transfer(spec.bytes, std::move(on_done), spec.weight);
  }
  bool cancel(FetchId id) override { return link_.cancel(id); }

  [[nodiscard]] sim::Duration rtt() const override { return link_.rtt(); }
  [[nodiscard]] sim::Simulator& simulator() override {
    return link_.simulator();
  }

  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] const Link& link() const { return link_; }

 private:
  Link& link_;
};

}  // namespace sperke::net

template <>
struct std::hash<sperke::net::ChunkId> {
  std::size_t operator()(const sperke::net::ChunkId& id) const noexcept {
    const auto lo =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.chunk)) << 32) |
        static_cast<std::uint32_t>(id.tile);
    const auto hi =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.quality)) << 32) |
        static_cast<std::uint32_t>(id.layer);
    std::uint64_t h = std::hash<std::uint64_t>{}(lo);
    h ^= std::hash<std::uint64_t>{}(hi ^ static_cast<std::uint32_t>(id.video)) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};
