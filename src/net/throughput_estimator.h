// Client-side throughput estimation feeding rate adaptation ("Network
// Condition Estimation" box of Figure 4): aggregate goodput over the last K
// completed transfers, exposed by core::SingleLinkTransport::estimated_kbps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "sim/time.h"

namespace sperke::net {

// Aggregate goodput across *concurrent* transfers: per-transfer samples
// under-read the link by the concurrency factor (each connection only sees
// its fair share), so this estimator divides the bytes of the last K
// completed transfers by the union of their active intervals.
class AggregateWindowEstimator {
 public:
  explicit AggregateWindowEstimator(std::size_t window = 12);

  void record(sim::Time start, sim::Time end, std::int64_t bytes);

  // 0 before any sample.
  [[nodiscard]] double estimate_kbps() const;

 private:
  struct Sample {
    sim::Time start{sim::kTimeZero};
    sim::Time end{sim::kTimeZero};
    std::int64_t bytes = 0;
  };
  std::size_t window_;
  std::deque<Sample> samples_;
};

}  // namespace sperke::net
