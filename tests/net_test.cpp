#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "net/throughput_estimator.h"
#include "sim/simulator.h"

namespace sperke::net {
namespace {

using sim::seconds;
using sim::Time;

TEST(BandwidthTrace, ConstantHoldsForever) {
  const auto trace = BandwidthTrace::constant(5000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(sim::kTimeZero), 5000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(1e6)), 5000.0);
  EXPECT_FALSE(trace.next_change_after(sim::kTimeZero).has_value());
}

TEST(BandwidthTrace, StepsSelectCorrectSegment) {
  const auto trace = BandwidthTrace::steps({{0.0, 1000.0}, {10.0, 2000.0}, {20.0, 500.0}});
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(5.0)), 1000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(10.0)), 2000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(15.0)), 2000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(25.0)), 500.0);
}

TEST(BandwidthTrace, NextChangeAfter) {
  const auto trace = BandwidthTrace::steps({{0.0, 1000.0}, {10.0, 2000.0}});
  EXPECT_EQ(trace.next_change_after(seconds(0.0)), seconds(10.0));
  EXPECT_EQ(trace.next_change_after(seconds(9.9)), seconds(10.0));
  EXPECT_FALSE(trace.next_change_after(seconds(10.0)).has_value());
}

TEST(BandwidthTrace, RejectsMalformedSegments) {
  EXPECT_THROW(BandwidthTrace({}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({{seconds(1.0), 100.0}}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({{sim::kTimeZero, -5.0}}), std::invalid_argument);
  EXPECT_THROW(
      BandwidthTrace({{sim::kTimeZero, 5.0}, {sim::kTimeZero, 6.0}}),
      std::invalid_argument);
}

TEST(BandwidthTrace, AverageKbpsWeighted) {
  const auto trace = BandwidthTrace::steps({{0.0, 1000.0}, {5.0, 3000.0}});
  EXPECT_NEAR(trace.average_kbps(seconds(10.0)), 2000.0, 1e-9);
  EXPECT_NEAR(trace.average_kbps(seconds(5.0)), 1000.0, 1e-9);
}

TEST(BandwidthTrace, RandomWalkStaysInBounds) {
  const auto trace =
      BandwidthTrace::random_walk(5000.0, 0.3, 1.0, 120.0, 7, 1000.0, 10000.0);
  for (const auto& [t, kbps] : trace.segments()) {
    EXPECT_GE(kbps, 1000.0);
    EXPECT_LE(kbps, 10000.0);
  }
  EXPECT_GT(trace.segments().size(), 100u);
}

TEST(BandwidthTrace, RandomWalkDeterministicPerSeed) {
  const auto a = BandwidthTrace::random_walk(5000.0, 0.3, 1.0, 60.0, 7);
  const auto b = BandwidthTrace::random_walk(5000.0, 0.3, 1.0, 60.0, 7);
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.segments()[i].second, b.segments()[i].second);
  }
}

TEST(BandwidthTrace, MarkovAlternatesStates) {
  const auto trace = BandwidthTrace::markov_two_state(8000.0, 500.0, 5.0, 2.0, 300.0, 3);
  bool saw_good = false, saw_bad = false;
  for (const auto& [t, kbps] : trace.segments()) {
    saw_good |= (kbps == 8000.0);
    saw_bad |= (kbps == 500.0);
  }
  EXPECT_TRUE(saw_good);
  EXPECT_TRUE(saw_bad);
}

TEST(BandwidthTrace, CsvRoundTrip) {
  const auto trace = BandwidthTrace::steps({{0.0, 1234.5}, {3.0, 678.9}});
  const auto restored = BandwidthTrace::from_csv(trace.to_csv());
  EXPECT_DOUBLE_EQ(restored.kbps_at(seconds(1.0)), 1234.5);
  EXPECT_DOUBLE_EQ(restored.kbps_at(seconds(4.0)), 678.9);
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
};

TEST_F(LinkTest, SingleTransferTakesBandwidthPlusRtt) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::milliseconds(100);
  Link link(simulator, cfg);
  std::optional<Time> done;
  link.start_transfer(1'000'000, [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done.has_value());
  // 1 MB at 1 MB/s = 1 s + 0.1 s RTT warmup.
  EXPECT_NEAR(sim::to_seconds(*done), 1.1, 0.01);
  EXPECT_EQ(link.bytes_delivered(), 1'000'000);
}

TEST_F(LinkTest, TwoTransfersShareFairly) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> t1, t2;
  link.start_transfer(1'000'000, [&](const TransferResult& r) { t1 = r.time; });
  link.start_transfer(1'000'000, [&](const TransferResult& r) { t2 = r.time; });
  simulator.run();
  ASSERT_TRUE(t1 && t2);
  // Both share 1 MB/s -> each runs at 0.5 MB/s -> both done at ~2 s.
  EXPECT_NEAR(sim::to_seconds(*t1), 2.0, 0.02);
  EXPECT_NEAR(sim::to_seconds(*t2), 2.0, 0.02);
}

TEST_F(LinkTest, ShorterTransferFinishesFirstAndFreesCapacity) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> small, big;
  link.start_transfer(500'000, [&](const TransferResult& r) { small = r.time; });
  link.start_transfer(1'500'000, [&](const TransferResult& r) { big = r.time; });
  simulator.run();
  ASSERT_TRUE(small && big);
  // Shared until small is done at t=1s (0.5MB at 0.5MB/s); big then has
  // 1.0 MB left at full 1 MB/s -> finishes at 2 s.
  EXPECT_NEAR(sim::to_seconds(*small), 1.0, 0.02);
  EXPECT_NEAR(sim::to_seconds(*big), 2.0, 0.02);
}

TEST_F(LinkTest, BandwidthStepChangesRate) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::steps({{0.0, 8000.0}, {1.0, 4000.0}});
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> done;
  link.start_transfer(1'500'000, [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done);
  // 1 MB in first second, remaining 0.5 MB at 0.5 MB/s -> 2 s total.
  EXPECT_NEAR(sim::to_seconds(*done), 2.0, 0.02);
}

TEST_F(LinkTest, ZeroBandwidthStallsUntilRecovery) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::steps({{0.0, 0.0}, {5.0, 8000.0}});
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> done;
  link.start_transfer(1'000'000, [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done);
  EXPECT_NEAR(sim::to_seconds(*done), 6.0, 0.02);
}

TEST_F(LinkTest, CancelStopsTransfer) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  const TransferId id =
      link.start_transfer(1'000'000, [&](const TransferResult& r) { result = r; });
  simulator.schedule_at(seconds(0.5), [&] { EXPECT_TRUE(link.cancel(id)); });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCancelled);
  EXPECT_FALSE(link.cancel(id));
  // Roughly half the bytes were delivered before the cancel.
  EXPECT_NEAR(static_cast<double>(link.bytes_delivered()), 500'000.0, 20'000.0);
  EXPECT_NEAR(static_cast<double>(result->bytes_delivered), 500'000.0, 20'000.0);
}

TEST_F(LinkTest, CancelAfterCompletionReturnsFalseAndDoesNotDoubleFire) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  int fires = 0;
  const TransferId id =
      link.start_transfer(100'000, [&](const TransferResult&) { ++fires; });
  simulator.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(link.cancel(id));
  EXPECT_EQ(fires, 1);
}

TEST_F(LinkTest, CancelAfterFailureReturnsFalseAndDoesNotDoubleFire) {
  // Regression: cancelling a transfer that an outage already failed must
  // return false and must not fire the callback a second time.
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 0.5, .duration_s = 1.0}};
  Link link(simulator, cfg);
  int fires = 0;
  std::optional<TransferResult> result;
  const TransferId id = link.start_transfer(
      2'000'000, [&](const TransferResult& r) {
        ++fires;
        result = r;
      });
  simulator.run_until(seconds(0.75));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(link.cancel(id));
  EXPECT_EQ(fires, 1);
}

TEST_F(LinkTest, OutageFailsInFlightTransfersAtWindowStart) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 1.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  link.start_transfer(2'000'000, [&](const TransferResult& r) { result = r; });
  simulator.run_until(seconds(2.0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_NEAR(sim::to_seconds(result->time), 1.0, 0.01);
  // ~1 MB flowed before the lights went out; partial progress is reported.
  EXPECT_NEAR(static_cast<double>(result->bytes_delivered), 1'000'000.0, 20'000.0);
  EXPECT_TRUE(link.in_outage());
  EXPECT_EQ(link.active_transfers(), 0);
}

TEST_F(LinkTest, TransferStartedDuringOutageFailsAtActivation) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(100);
  cfg.faults.outages = {{.start_s = 1.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  simulator.schedule_at(seconds(1.5), [&] {
    link.start_transfer(1'000'000, [&](const TransferResult& r) { result = r; });
  });
  simulator.run_until(seconds(2.0));
  // Fails one RTT after the attempt (the request times out into the void).
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_NEAR(sim::to_seconds(result->time), 1.6, 0.01);
  EXPECT_EQ(result->bytes_delivered, 0);
}

TEST_F(LinkTest, TransferCompletesAfterOutageEnds) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 0.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  // Started after the outage is over: completes normally.
  simulator.schedule_at(seconds(2.5), [&] {
    link.start_transfer(1'000'000, [&](const TransferResult& r) { result = r; });
  });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCompleted);
  EXPECT_NEAR(sim::to_seconds(result->time), 3.5, 0.02);
  EXPECT_NEAR(link.outage_seconds(), 2.0, 1e-9);
}

TEST_F(LinkTest, CapacityCollapseSlowsTransfer) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  // Half capacity in [1s, 3s): 1 MB in the first second, then 0.5 MB/s.
  cfg.faults.capacity_collapses = {{.start_s = 1.0, .duration_s = 2.0, .factor = 0.5}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  link.start_transfer(2'000'000, [&](const TransferResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCompleted);
  EXPECT_NEAR(sim::to_seconds(result->time), 3.0, 0.03);
}

TEST_F(LinkTest, RttSpikeScalesEffectiveRtt) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(100);
  cfg.faults.rtt_spikes = {{.start_s = 0.0, .duration_s = 5.0, .factor = 4.0}};
  Link link(simulator, cfg);
  EXPECT_EQ(link.rtt(), sim::milliseconds(400));
  std::optional<TransferResult> result;
  link.start_transfer(1'000'000, [&](const TransferResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  // 0.4 s spiked warmup + 1 s of data.
  EXPECT_NEAR(sim::to_seconds(result->time), 1.4, 0.02);
  // Outside the spike window the configured RTT is back.
  EXPECT_EQ(link.rtt(), sim::milliseconds(100));
}

TEST_F(LinkTest, PerTransferFailuresAreSeededAndDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    sim::Simulator simulator;
    LinkConfig cfg;
    cfg.bandwidth = BandwidthTrace::constant(8000.0);
    cfg.rtt = sim::Duration{0};
    cfg.faults.transfer_failure_prob = 0.5;
    cfg.faults.seed = seed;
    Link link(simulator, cfg);
    std::vector<TransferStatus> statuses;
    for (int i = 0; i < 32; ++i) {
      link.start_transfer(100'000, [&statuses](const TransferResult& r) {
        statuses.push_back(r.status);
      });
    }
    simulator.run();
    return statuses;
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);  // same seed, same failure stream
  EXPECT_NE(a, c);  // different seed, different stream
  EXPECT_TRUE(std::count(a.begin(), a.end(), TransferStatus::kFailed) > 0);
  EXPECT_TRUE(std::count(a.begin(), a.end(), TransferStatus::kCompleted) > 0);
}

TEST_F(LinkTest, FaultPlanValidation) {
  FaultPlan bad;
  bad.outages = {{.start_s = -1.0, .duration_s = 1.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = {};
  bad.capacity_collapses = {{.start_s = 0.0, .duration_s = 1.0, .factor = 0.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = {};
  bad.rtt_spikes = {{.start_s = 0.0, .duration_s = 1.0, .factor = 0.5}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = {};
  bad.transfer_failure_prob = 1.5;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  LinkConfig cfg;
  cfg.faults.outages = {{.start_s = 0.0, .duration_s = 0.0}};
  EXPECT_THROW(Link(simulator, cfg), std::invalid_argument);
}

TEST_F(LinkTest, WeightedTransfersShareProportionally) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> heavy, light;
  // Weight 3:1 — the heavy transfer runs at 750 KB/s, the light at 250 KB/s.
  link.start_transfer(750'000, [&](const TransferResult& r) { heavy = r.time; }, 3.0);
  link.start_transfer(750'000, [&](const TransferResult& r) { light = r.time; }, 1.0);
  simulator.run();
  ASSERT_TRUE(heavy && light);
  // Heavy: 750 KB at 750 KB/s = 1 s. Light: 250 KB in the first second,
  // then the full 1 MB/s -> 1 + 0.5 = 1.5 s.
  EXPECT_NEAR(sim::to_seconds(*heavy), 1.0, 0.02);
  EXPECT_NEAR(sim::to_seconds(*light), 1.5, 0.02);
}

TEST_F(LinkTest, WeightedShareRespectsMathisCap) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(50);
  cfg.loss_rate = 0.01;  // Mathis cap ~2.85 Mbps per transfer
  Link link(simulator, cfg);
  std::optional<Time> heavy, light;
  // Weight 10:1 — the heavy transfer would claim ~7.3 Mbps but is capped,
  // so the light one picks up the slack.
  link.start_transfer(1'000'000, [&](const TransferResult& r) { heavy = r.time; }, 10.0);
  link.start_transfer(1'000'000, [&](const TransferResult& r) { light = r.time; }, 1.0);
  simulator.run();
  ASSERT_TRUE(heavy && light);
  const double cap_kbps = link.mathis_cap_kbps();
  // Both run at ~the cap (8000 > 2*cap): completion ~ 8 Mbit / cap.
  const double expect_s = 8000.0 / cap_kbps + 0.05;
  EXPECT_NEAR(sim::to_seconds(*heavy), expect_s, expect_s * 0.05);
  EXPECT_NEAR(sim::to_seconds(*light), expect_s, expect_s * 0.05);
}

TEST_F(LinkTest, RejectsNonPositiveWeight) {
  Link link(simulator, LinkConfig{});
  EXPECT_THROW((void)link.start_transfer(1000, nullptr, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)link.start_transfer(1000, nullptr, -1.0),
               std::invalid_argument);
}

TEST_F(LinkTest, MathisCapLimitsLossyLink) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(100'000.0);
  cfg.rtt = sim::milliseconds(50);
  cfg.loss_rate = 0.01;  // cap ~= 1.22*1460*8/(0.05*0.1) bps ~= 2.85 Mbps
  Link link(simulator, cfg);
  const double cap = link.mathis_cap_kbps();
  EXPECT_NEAR(cap, 1.22 * 1460.0 * 8.0 / (0.05 * 0.1) / 1000.0, 1.0);
  std::optional<Time> done;
  link.start_transfer(1'000'000, [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done);
  const double expected_s = 1'000'000.0 * 8.0 / (cap * 1000.0) + 0.05;
  EXPECT_NEAR(sim::to_seconds(*done), expected_s, expected_s * 0.02);
}

TEST_F(LinkTest, LosslessLinkHasInfiniteCap) {
  LinkConfig cfg;
  Link link(simulator, cfg);
  EXPECT_TRUE(std::isinf(link.mathis_cap_kbps()));
}

TEST_F(LinkTest, RejectsInvalidConfigAndTransfers) {
  LinkConfig bad;
  bad.loss_rate = 1.0;
  EXPECT_THROW(Link(simulator, bad), std::invalid_argument);
  Link link(simulator, LinkConfig{});
  EXPECT_THROW((void)link.start_transfer(0, nullptr), std::invalid_argument);
}

TEST_F(LinkTest, CompletionCallbackCanStartNewTransfer) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> second_done;
  link.start_transfer(1'000'000, [&](const TransferResult&) {
    link.start_transfer(1'000'000,
                        [&](const TransferResult& r) { second_done = r.time; });
  });
  simulator.run();
  ASSERT_TRUE(second_done);
  EXPECT_NEAR(sim::to_seconds(*second_done), 2.0, 0.02);
}

TEST_F(LinkTest, ActiveTransfersCountsWarmupSeparately) {
  LinkConfig cfg;
  cfg.rtt = sim::milliseconds(100);
  Link link(simulator, cfg);
  link.start_transfer(1'000'000, [](const TransferResult&) {});
  EXPECT_EQ(link.active_transfers(), 0);  // still in RTT warmup
  simulator.run_until(seconds(0.2));
  EXPECT_EQ(link.active_transfers(), 1);
}

// Multi-round weighted water-fill with a closing pass, as Link computed it
// before the filling stopped at the first round without a capped transfer:
// every round re-sums the uncapped weights in id order; once a round caps
// nobody, a closing pass recomputes the shares as the rates.
std::vector<double> reference_waterfill_bps(const std::vector<double>& weights,
                                            double capacity_bps, double cap_bps) {
  std::vector<double> rate(weights.size(), 0.0);
  std::vector<std::size_t> unallocated(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) unallocated[i] = i;
  double remaining = capacity_bps;
  bool someone_capped = true;
  while (!unallocated.empty() && someone_capped && remaining > 0.0) {
    someone_capped = false;
    double total = 0.0;
    for (const std::size_t i : unallocated) total += weights[i];
    for (auto it = unallocated.begin(); it != unallocated.end();) {
      if (remaining * weights[*it] / total >= cap_bps) {
        rate[*it] = cap_bps;
        remaining -= cap_bps;
        it = unallocated.erase(it);
        someone_capped = true;
      } else {
        ++it;
      }
    }
  }
  if (!unallocated.empty() && remaining > 0.0) {
    double total = 0.0;
    for (const std::size_t i : unallocated) total += weights[i];
    for (const std::size_t i : unallocated) {
      rate[i] = remaining * weights[i] / total;
    }
  }
  return rate;
}

struct WaterfillCase {
  double capacity_kbps;
  double loss_rate;
  std::vector<double> weights;
};

TEST(LinkWaterfill, OneRoundStopMatchesMultiRoundReferenceBitForBit) {
  const WaterfillCase cases[] = {
      // Lossless: no cap, a single round.
      {7777.0, 0.0, {1.0, 2.5, 0.7, 3.0, 1.0, 1.3}},
      {1.0, 0.0, {0.1, 9.9, 3.3}},
      // Lossy (cap ~3.56 Mbps at 40 ms): the heavy weights cap over several
      // rounds before one caps nobody.
      {20'000.0, 0.01, {1.0, 10.0, 2.0, 7.0, 0.5, 3.0, 1.0}},
      {9'000.0, 0.01, {3.0, 1.0, 1.0, 1.0, 2.0}},
      // Lossy and every transfer capped: no uncapped round at all.
      {100'000.0, 0.01, {1.0, 2.0, 4.0, 8.0}},
  };
  for (const WaterfillCase& c : cases) {
    sim::Simulator simulator;
    LinkConfig cfg;
    cfg.bandwidth = BandwidthTrace::constant(c.capacity_kbps);
    cfg.rtt = sim::milliseconds(40);
    cfg.loss_rate = c.loss_rate;
    Link link(simulator, cfg);
    std::vector<TransferId> ids;
    std::vector<double> weights = c.weights;
    for (const double w : weights) {
      ids.push_back(link.start_transfer(1'000'000'000, nullptr, w));
    }
    const auto expect_reference = [&](const char* when) {
      const std::vector<double> ref =
          reference_waterfill_bps(weights, link.capacity_kbps_now() * 1000.0,
                                  link.mathis_cap_kbps() * 1000.0);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(link.transfer_rate_kbps(ids[i]), ref[i] / 1000.0)
            << when << ": capacity " << c.capacity_kbps << " kbps, loss "
            << c.loss_rate << ", transfer " << i;
      }
    };
    simulator.run_until(seconds(0.04));  // every transfer is active
    ASSERT_EQ(link.active_transfers(), static_cast<int>(ids.size()));
    expect_reference("all active");
    // Drop the heaviest transfer: its share refills the others.
    const auto heaviest = static_cast<std::size_t>(
        std::max_element(weights.begin(), weights.end()) - weights.begin());
    ASSERT_TRUE(link.cancel(ids[heaviest]));
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(heaviest));
    weights.erase(weights.begin() + static_cast<std::ptrdiff_t>(heaviest));
    expect_reference("after cancel");
  }
}

TEST(AggregateWindowEstimator, ZeroBeforeAnySampleAndRejectsZeroWindow) {
  const AggregateWindowEstimator est;
  EXPECT_DOUBLE_EQ(est.estimate_kbps(), 0.0);
  EXPECT_THROW(AggregateWindowEstimator{0}, std::invalid_argument);
}

TEST(AggregateWindowEstimator, ConcurrentTransfersReadTheLinkNotTheirShare) {
  // Four transfers share a 1000 kbps link over the same second: each one
  // alone reads 250 kbps, but the union of their intervals is 1 s.
  AggregateWindowEstimator est;
  for (int i = 0; i < 4; ++i) est.record(Time{0}, Time{0} + seconds(1.0), 31'250);
  EXPECT_NEAR(est.estimate_kbps(), 1000.0, 1e-9);
}

TEST(AggregateWindowEstimator, IdleGapsBetweenTransfersAreNotCounted) {
  // [0,1] and [3,4] s with overlapping [0.5,1.5] s: covered 2.5 s, not 4 s.
  AggregateWindowEstimator est;
  est.record(Time{0}, Time{0} + seconds(1.0), 125'000);
  est.record(Time{0} + seconds(0.5), Time{0} + seconds(1.5), 125'000);
  est.record(Time{0} + seconds(3.0), Time{0} + seconds(4.0), 125'000);
  EXPECT_NEAR(est.estimate_kbps(), 3.0 * 1000.0 / 2.5, 1e-9);
}

TEST(AggregateWindowEstimator, WindowKeepsOnlyTheLastKTransfers) {
  AggregateWindowEstimator est(2);
  est.record(Time{0}, Time{0} + seconds(1.0), 12'500);                     // 100 kbps, evicted
  est.record(Time{0} + seconds(1.0), Time{0} + seconds(2.0), 125'000);  // 1000 kbps
  est.record(Time{0} + seconds(2.0), Time{0} + seconds(3.0), 125'000);  // 1000 kbps
  EXPECT_NEAR(est.estimate_kbps(), 1000.0, 1e-9);
}

TEST(AggregateWindowEstimator, IgnoresDegenerateSamples) {
  AggregateWindowEstimator est;
  est.record(Time{0}, Time{0} + seconds(1.0), 0);                       // no bytes
  est.record(Time{0} + seconds(2.0), Time{0} + seconds(1.0), 125'000);  // ends before start
  EXPECT_DOUBLE_EQ(est.estimate_kbps(), 0.0);
  // A zero-length transfer is kept but covers no time, so it reads 0.
  est.record(Time{0} + seconds(1.0), Time{0} + seconds(1.0), 125'000);
  EXPECT_DOUBLE_EQ(est.estimate_kbps(), 0.0);
}

}  // namespace
}  // namespace sperke::net
