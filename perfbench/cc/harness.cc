#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "base/rng.h"
#include "base/status.h"
#include "net/protocol.h"

namespace perfbench {

double SupportedPercentile(int64_t n, double want) {
  if (n <= kTailSamples) return 0.0;
  const double cap = 100.0 * static_cast<double>(n - kTailSamples) /
                     static_cast<double>(n);
  return std::min(want, cap);
}

namespace {

double InterpolatedPercentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - std::floor(rank));
}

}  // namespace

Tail TailPercentile(const std::vector<double>& samples, double want) {
  Tail t;
  t.samples = static_cast<int64_t>(samples.size());
  t.percentile = SupportedPercentile(t.samples, want);
  t.value = InterpolatedPercentile(samples, t.percentile);
  return t;
}

double Median(std::vector<double> samples) {
  return InterpolatedPercentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

WindowSummary SummarizeWindows(const std::vector<TimedOp>& ops,
                               double span_s, int windows) {
  WindowSummary out;
  const double len = span_s / windows;
  std::vector<std::vector<double>> lat(static_cast<size_t>(windows));
  std::vector<int64_t> good(static_cast<size_t>(windows), 0);
  for (const TimedOp& op : ops) {
    const int w = std::clamp(static_cast<int>(op.t_s / len), 0, windows - 1);
    good[w] += op.good;
    if (op.has_latency) lat[w].push_back(op.latency_ms);
  }
  std::vector<double> p50, p99, rate;
  out.tail_percentile = 100.0;
  for (int w = 0; w < windows; ++w) {
    const Tail t = TailPercentile(lat[w], 99);
    out.tail_percentile = std::min(out.tail_percentile, t.percentile);
    out.samples += t.samples;
    p50.push_back(Median(lat[w]));
    p99.push_back(t.value);
    rate.push_back(static_cast<double>(good[w]) / len);
  }
  out.p50_ms = Median(p50);
  out.p99_ms = Median(p99);
  out.good_per_s = Median(rate);
  return out;
}

ClosedLoopSummary SummarizeClosedLoop(const std::vector<TimedOp>& ops,
                                      double span_s, int windows) {
  const double len = span_s / windows;
  std::vector<std::vector<double>> lat(static_cast<size_t>(windows));
  std::vector<std::vector<double>> rate(static_cast<size_t>(windows));
  for (const TimedOp& op : ops) {
    const int w = std::clamp(static_cast<int>(op.t_s / len), 0, windows - 1);
    if (op.has_latency) lat[w].push_back(op.latency_ms);
    if (op.cycle_s > 0) {
      rate[w].push_back(static_cast<double>(op.good) / op.cycle_s);
    }
  }
  std::vector<double> p50, cycle;
  for (int w = 0; w < windows; ++w) {
    if (!lat[w].empty()) p50.push_back(Median(lat[w]));
    if (!rate[w].empty()) cycle.push_back(Median(rate[w]));
  }
  return {Mean(p50), Mean(cycle)};
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds, int pool_size,
                                     int conns, double interactive_share) {
  thali::Rng rng(seed);
  auto uniform = [&] {
    return static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53;
  };
  std::vector<Arrival> schedule;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform()) / rate_per_s;
    if (t >= seconds) break;
    Arrival a;
    a.t_s = t;
    a.image = static_cast<int>(rng.NextU64Below(
        static_cast<uint64_t>(pool_size)));
    a.priority = uniform() < interactive_share
                     ? thali::serve::Priority::kInteractive
                     : thali::serve::Priority::kBatch;
    a.conn = static_cast<int>(rng.NextU64Below(static_cast<uint64_t>(conns)));
    schedule.push_back(a);
  }
  return schedule;
}

void InputHash::AddBytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void InputHash::AddImage(const thali::Image& image) {
  AddU64(static_cast<uint64_t>(image.width()));
  AddU64(static_cast<uint64_t>(image.height()));
  AddU64(static_cast<uint64_t>(image.channels()));
  AddBytes(image.data(), static_cast<size_t>(image.size()) * sizeof(float));
}

void InputHash::AddSchedule(const std::vector<Arrival>& schedule) {
  AddU64(schedule.size());
  for (const Arrival& a : schedule) {
    AddF64(a.t_s);
    AddU64(static_cast<uint64_t>(a.image));
    AddU64(static_cast<uint64_t>(a.priority));
    AddU64(static_cast<uint64_t>(a.conn));
  }
}

std::string InputHash::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

int64_t SpanLog::Add(int64_t request, int64_t parent, const std::string& name,
                     double start_us, double dur_us) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.request = request;
  s.parent = parent;
  s.name = name;
  s.start_us = start_us;
  s.dur_us = dur_us;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %lld, \"request\": %lld, \"parent\": %lld, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.parent), s.name.c_str(),
                 s.start_us, s.dur_us);
  }
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) self[it->second] -= s.dur_us;
  }
  return self;
}

std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  return by_name;
}

bool SameDetections(std::span<const thali::Detection> a,
                    std::span<const thali::Detection> b) {
  if (a.size() != b.size()) return false;
  auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
  for (size_t i = 0; i < a.size(); ++i) {
    const thali::Detection& x = a[i];
    const thali::Detection& y = b[i];
    if (x.class_id != y.class_id || bits(x.confidence) != bits(y.confidence) ||
        bits(x.box.x) != bits(y.box.x) || bits(x.box.y) != bits(y.box.y) ||
        bits(x.box.w) != bits(y.box.w) || bits(x.box.h) != bits(y.box.h)) {
      return false;
    }
  }
  return true;
}

Verdict CheckReply(std::span<const uint8_t> payload,
                   std::span<const thali::Detection> reference) {
  thali::Status status;
  std::vector<thali::Detection> dets;
  if (!thali::net::DecodeDetectResponse(payload, &status, &dets).ok()) {
    return Verdict::kTransport;
  }
  switch (status.code()) {
    case thali::StatusCode::kOk:
      return SameDetections(dets, reference) ? Verdict::kCorrect
                                             : Verdict::kWrong;
    case thali::StatusCode::kResourceExhausted:
      return Verdict::kShed;
    case thali::StatusCode::kDeadlineExceeded:
      return Verdict::kExpired;
    default:
      return Verdict::kErrStatus;
  }
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
