// Self-tests for the benchmark's own code: schedule and input-hash
// determinism, the tail-percentile rule, span self-time arithmetic and
// the reply checker.

#include <bit>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "net/protocol.h"

namespace perfbench {
namespace {

TEST(ScheduleTest, SameSeedSameScheduleAndHash) {
  const auto a = PoissonSchedule(42, 800.0, 2.0, 256, 4, 0.5);
  const auto b = PoissonSchedule(42, 800.0, 2.0, 256, 4, 0.5);
  const auto c = PoissonSchedule(43, 800.0, 2.0, 256, 4, 0.5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(a[i].image, b[i].image);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].conn, b[i].conn);
  }
  InputHash ha, hb, hc;
  ha.AddSchedule(a);
  hb.AddSchedule(b);
  hc.AddSchedule(c);
  EXPECT_EQ(ha.Hex(), hb.Hex());
  EXPECT_NE(ha.Hex(), hc.Hex());
}

TEST(ScheduleTest, PoissonRateAndBounds) {
  const auto s = PoissonSchedule(7, 1000.0, 4.0, 10, 3, 0.5);
  // 4000 expected arrivals; a Poisson count is within 5 sigma.
  EXPECT_NEAR(static_cast<double>(s.size()), 4000.0, 5 * 63.3);
  int interactive = 0;
  double prev = 0.0;
  for (const Arrival& a : s) {
    EXPECT_GE(a.t_s, prev);
    EXPECT_LT(a.t_s, 4.0);
    EXPECT_GE(a.image, 0);
    EXPECT_LT(a.image, 10);
    EXPECT_GE(a.conn, 0);
    EXPECT_LT(a.conn, 3);
    interactive += a.priority == thali::serve::Priority::kInteractive;
    prev = a.t_s;
  }
  EXPECT_NEAR(static_cast<double>(interactive) / s.size(), 0.5, 0.05);
}

TEST(ScheduleTest, ImageHashCoversPixels) {
  thali::Image a(4, 4), b(4, 4);
  b.data()[5] = 0.25f;
  InputHash ha, hb;
  ha.AddImage(a);
  hb.AddImage(b);
  EXPECT_NE(ha.value(), hb.value());
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000, 99), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(2000, 99), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(500, 99), 98.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100, 99), 90.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(10, 99), 0.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(0, 50), 0.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100, 50), 50.0);

  // Samples 1..500: p99 is unsupported, so the helper reports p98.
  std::vector<double> v;
  for (int i = 500; i >= 1; --i) v.push_back(i);
  const Tail t = TailPercentile(v, 99);
  EXPECT_DOUBLE_EQ(t.percentile, 98.0);
  EXPECT_EQ(t.samples, 500);
  EXPECT_DOUBLE_EQ(t.value, 1.0 + 0.98 * 499);
  // At least kTailSamples samples lie strictly above the reported value.
  int beyond = 0;
  for (double x : v) beyond += x > t.value;
  EXPECT_GE(beyond, kTailSamples);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(WindowTest, MedianOverWindowsIgnoresOneDisturbedWindow) {
  // 5 windows of 1 s, 200 ops each at 10 ms, except window 2 at 50 ms
  // with half its results wrong.
  std::vector<TimedOp> ops;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 200; ++i) {
      TimedOp op;
      op.t_s = w + i / 200.0;
      op.has_latency = true;
      op.latency_ms = w == 2 ? 50.0 : 10.0 + i * 1e-3;
      op.good = w == 2 && i % 2 == 0 ? 0 : 1;
      ops.push_back(op);
    }
  }
  const WindowSummary s = SummarizeWindows(ops, 5.0, 5);
  EXPECT_NEAR(s.p50_ms, 10.0995, 1e-9);
  EXPECT_LT(s.p99_ms, 10.2);
  EXPECT_DOUBLE_EQ(s.good_per_s, 200.0);
  EXPECT_EQ(s.samples, 1000);
  // 200 samples per window support p95, not p99.
  EXPECT_DOUBLE_EQ(s.tail_percentile, 95.0);
}

TEST(WindowTest, ClosedLoopMeansOverWindowMedians) {
  // A closed loop of 10 ms cycles with every 10th cycle stalled to
  // 100 ms, and its second half slowed to 15 ms cycles by a neighbour.
  // Each window's medians ignore the stalls; the mean over windows
  // weighs the two halves by their length.
  std::vector<TimedOp> ops;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    TimedOp op;
    op.t_s = t;
    op.good = 1;
    op.cycle_s = i % 10 == 9 ? 0.1 : i < 1000 ? 0.01 : 0.015;
    op.has_latency = true;
    op.latency_ms = 1e3 * op.cycle_s - 1.0;
    t += op.cycle_s;
    ops.push_back(op);
  }
  // 19 s of 10 ms cycles, then 23.5 s of 15 ms: windows of 0.5 s fall
  // 38 in the first half and 47 in the second.
  const ClosedLoopSummary c = SummarizeClosedLoop(ops, t, 85);
  EXPECT_NEAR(c.p50_ms, (38 * 9.0 + 47 * 14.0) / 85, 1e-9);
  EXPECT_NEAR(c.cycle_per_s, (38 * 100.0 + 47 * 1e3 / 15) / 85, 1e-9);
  // Open-loop operations carry no cycle, so no window has a rate.
  for (TimedOp& op : ops) op.cycle_s = 0.0;
  EXPECT_DOUBLE_EQ(SummarizeClosedLoop(ops, t, 85).cycle_per_s, 0.0);
}

TEST(SpanTest, SelfTimesOnHandBuiltTree) {
  // request 100us: encode 10, serve 60 (submit 5, forward 40), reply 8.
  SpanLog log;
  const int64_t root = log.Add(0, -1, "request", 0, 100);
  log.Add(0, root, "encode", 0, 10);
  const int64_t serve = log.Add(0, root, "serve", 10, 60);
  log.Add(0, serve, "submit", 10, 5);
  log.Add(0, serve, "forward", 15, 40);
  log.Add(0, root, "reply", 70, 8);
  // A second request, to check grouping by name.
  const int64_t root2 = log.Add(1, -1, "request", 200, 50);
  log.Add(1, root2, "encode", 200, 20);

  const std::vector<double> self = SelfTimesUs(log.spans());
  ASSERT_EQ(self.size(), 8u);
  EXPECT_DOUBLE_EQ(self[0], 100 - 10 - 60 - 8);  // wire
  EXPECT_DOUBLE_EQ(self[1], 10);
  EXPECT_DOUBLE_EQ(self[2], 60 - 5 - 40);  // hold
  EXPECT_DOUBLE_EQ(self[3], 5);
  EXPECT_DOUBLE_EQ(self[4], 40);
  EXPECT_DOUBLE_EQ(self[5], 8);
  EXPECT_DOUBLE_EQ(self[6], 30);

  // Self times of one request sum to its root duration.
  double sum = 0;
  for (size_t i = 0; i < 6; ++i) sum += self[i];
  EXPECT_DOUBLE_EQ(sum, 100);

  const auto by_name = SelfTimesByName(log.spans());
  ASSERT_EQ(by_name.at("request").size(), 2u);
  EXPECT_DOUBLE_EQ(by_name.at("request")[1], 30);
  EXPECT_DOUBLE_EQ(by_name.at("encode")[1], 20);
}

std::vector<thali::Detection> SomeDetections() {
  thali::Detection a;
  a.box = {0.5f, 0.4f, 0.2f, 0.3f};
  a.class_id = 3;
  a.confidence = 0.91f;
  thali::Detection b;
  b.box = {0.1f, 0.2f, 0.05f, 0.07f};
  b.class_id = 7;
  b.confidence = 0.33f;
  return {a, b};
}

std::vector<uint8_t> ReplyPayload(const thali::Status& status,
                                  const std::vector<thali::Detection>& dets) {
  const std::vector<uint8_t> frame =
      thali::net::EncodeDetectResponse(status, dets);
  return std::vector<uint8_t>(frame.begin() + thali::net::kHeaderBytes,
                              frame.end());
}

TEST(CheckerTest, FlagsDoctoredReply) {
  const auto ref = SomeDetections();
  std::vector<uint8_t> payload = ReplyPayload(thali::Status::OK(), ref);
  EXPECT_EQ(CheckReply(payload, ref), Verdict::kCorrect);

  // Flip the lowest mantissa bit of the last float (box h of the second
  // detection): a one-ulp change must be caught.
  std::vector<uint8_t> doctored = payload;
  doctored[doctored.size() - 4] ^= 1;
  EXPECT_EQ(CheckReply(doctored, ref), Verdict::kWrong);

  // A dropped detection, a changed class and a truncated payload.
  auto fewer = ref;
  fewer.pop_back();
  EXPECT_EQ(CheckReply(ReplyPayload(thali::Status::OK(), fewer), ref),
            Verdict::kWrong);
  auto relabeled = ref;
  relabeled[0].class_id = 4;
  EXPECT_EQ(CheckReply(ReplyPayload(thali::Status::OK(), relabeled), ref),
            Verdict::kWrong);
  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 3);
  EXPECT_EQ(CheckReply(truncated, ref), Verdict::kTransport);
}

TEST(CheckerTest, ClassifiesStatuses) {
  const auto ref = SomeDetections();
  EXPECT_EQ(CheckReply(ReplyPayload(thali::Status::ResourceExhausted("shed"),
                                    {}),
                       ref),
            Verdict::kShed);
  EXPECT_EQ(CheckReply(ReplyPayload(thali::Status(
                                        thali::StatusCode::kDeadlineExceeded,
                                        "late"),
                                    {}),
                       ref),
            Verdict::kExpired);
  EXPECT_EQ(CheckReply(ReplyPayload(thali::Status::Internal("boom"), {}), ref),
            Verdict::kErrStatus);
}

TEST(CheckerTest, SameDetectionsIsBitwise) {
  auto a = SomeDetections();
  auto b = a;
  EXPECT_TRUE(SameDetections(a, b));
  b[1].confidence = std::bit_cast<float>(std::bit_cast<uint32_t>(0.33f) + 1);
  EXPECT_FALSE(SameDetections(a, b));
}

}  // namespace
}  // namespace perfbench
