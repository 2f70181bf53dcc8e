#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's own building blocks, kept apart from the workloads in
// main.cc so the self-tests can pin them: tail percentiles, the seeded
// open-loop schedule, the input fingerprint, span self-time arithmetic
// and the reply checker.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "eval/detection.h"
#include "image/image.h"
#include "serve/lane_queue.h"

namespace perfbench {

// ------------------------------------------------------- percentiles --

// A tail percentile needs this many samples beyond its rank before the
// benchmark reports it; with fewer, it reports the highest percentile
// that has them.
inline constexpr int64_t kTailSamples = 10;

// The highest percentile <= `want` with at least kTailSamples of `n`
// samples above its rank: min(want, 100 * (n - kTailSamples) / n),
// clamped to 0 when n <= kTailSamples.
double SupportedPercentile(int64_t n, double want);

struct Tail {
  double value = 0.0;       // linear-interpolated sample at `percentile`
  double percentile = 0.0;  // what was actually reported
  int64_t samples = 0;
};
Tail TailPercentile(const std::vector<double>& samples, double want);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// One timed operation of a run: when it was due (seconds into the run),
// whether it produced a latency sample and which, and how many correct
// results it delivered. In a closed loop `cycle_s` is the time from its
// start to the next operation's start (0 in an open loop).
struct TimedOp {
  double t_s = 0.0;
  bool has_latency = false;
  double latency_ms = 0.0;
  int64_t good = 0;
  double cycle_s = 0.0;
};

// A run's timings as medians over equal time windows: each window gets
// its own p50, tail percentile and correct results per second, and the
// run reports the median of each across windows, so one disturbed window
// cannot move the result. `tail_percentile` is the lowest percentile a
// window could support (see TailPercentile).
struct WindowSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double tail_percentile = 0.0;
  double good_per_s = 0.0;
  int64_t samples = 0;  // latency samples over all windows
};
WindowSummary SummarizeWindows(const std::vector<TimedOp>& ops,
                               double span_s, int windows);

// A closed loop's timings as means over short windows of its run. Each
// window gets its p50 and its rate at the median cycle (the median over
// its operations of good / cycle_s); the run reports the mean of each
// over the windows. The window medians drop stalled cycles; the mean over
// windows weighs the host's slow and quiet stretches by their length,
// where a median over a few long windows jumps from one to the other.
struct ClosedLoopSummary {
  double p50_ms = 0.0;
  double cycle_per_s = 0.0;
};
ClosedLoopSummary SummarizeClosedLoop(const std::vector<TimedOp>& ops,
                                      double span_s, int windows);

// ---------------------------------------------------------- schedule --

struct Arrival {
  double t_s = 0.0;  // scheduled send, seconds after the schedule start
  int image = 0;     // pool index
  thali::serve::Priority priority = thali::serve::Priority::kInteractive;
  int conn = 0;
};

// Deterministic Poisson schedule: exponential inter-arrival gaps at
// `rate_per_s` over [0, seconds), each arrival drawing a pool image, a
// class (interactive with probability `interactive_share`) and a
// connection uniformly. The same arguments give the same schedule on
// every host (integer RNG, -log1p on a 53-bit uniform).
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds, int pool_size,
                                     int conns, double interactive_share);

// ------------------------------------------------------- fingerprint --

// FNV-1a 64 over every generated input, so runs whose inputs differ are
// never paired.
class InputHash {
 public:
  void AddBytes(const void* data, size_t len);
  void AddU64(uint64_t v) { AddBytes(&v, sizeof(v)); }
  void AddF64(double v) { AddBytes(&v, sizeof(v)); }
  void AddImage(const thali::Image& image);
  void AddSchedule(const std::vector<Arrival>& schedule);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// ------------------------------------------------------------- spans --

// One timed call the benchmark made into a layer. `parent` is the id of
// the enclosing span (-1 for a root); `request` ties every span of one
// request together.
struct Span {
  int64_t id = 0;
  int64_t request = 0;
  int64_t parent = -1;
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
};

// In-memory span recorder; the traced run writes it out at exit.
class SpanLog {
 public:
  // Returns the new span's id.
  int64_t Add(int64_t request, int64_t parent, const std::string& name,
              double start_us, double dur_us);
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the durations of its
// direct children. Index-aligned with `spans`.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

// Self times grouped by span name.
std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans);

// ----------------------------------------------------------- checker --

enum class Verdict {
  kCorrect,    // OK status, detections bitwise equal to the reference
  kWrong,      // OK status, detections differ
  kShed,       // kResourceExhausted: admission shed or full lane
  kExpired,    // kDeadlineExceeded: admission estimate or queue expiry
  kErrStatus,  // any other non-OK status
  kTransport,  // reply payload does not decode
  kRefused,    // never sent: the connection's window was full because
               // the server stopped reading it (THL1 backpressure)
};

// Bitwise equality of two detection lists (floats compared by bits).
bool SameDetections(std::span<const thali::Detection> a,
                    std::span<const thali::Detection> b);

// Decodes one DETECT reply payload and classifies it against the
// in-process reference.
Verdict CheckReply(std::span<const uint8_t> payload,
                   std::span<const thali::Detection> reference);

// ------------------------------------------------------------ output --

// A number formatted with all its digits (round-trip precision).
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
