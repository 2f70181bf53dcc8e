// thali_perfbench: the served-detector benchmark. One process stands up
// the served stack (ModelRouter + NetServer over the pinned trained
// model), drives one named workload at it from a single generator
// thread, checks every reply bitwise against an in-process reference
// detector, and prints its metrics; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
//
//   thali_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --weights PATH [--spans-out PATH] [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, measured from outside every layer (calls into
// public functions, exported counters) plus a decomposition replay.
// See perfbench/README.md for the workloads and metric definitions.

#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/cpu_features.h"
#include "base/net_util.h"
#include "base/rng.h"
#include "bench_common.h"
#include "core/detector.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "eval/metrics.h"
#include "harness.h"
#include "image/image_prepost.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "serve/router.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"

extern char** environ;

namespace perfbench {
namespace {

using thali::Detection;
using thali::Detector;
using thali::Image;
using thali::serve::Priority;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ config --

constexpr char kModel[] = "yolov4-thali";
constexpr int kWorkers = 2;
constexpr int kLaneCapacity = 64;
constexpr int kMaxBatch = 8;
constexpr int kLingerUs = 2000;
constexpr float kServeConf = 0.25f;
constexpr float kEvalConf = 0.005f;
constexpr float kNms = 0.45f;
constexpr int kCalibImages = 32;
constexpr double kDeadlineMs = 50.0;  // interactive deadline = goodput limit
// setup_s is the median of this many set-ups (the eval workload's
// set-up, one Detector::FromFiles, is ~100x cheaper, so it repeats more).
constexpr int kSetupRepeats = 15;
constexpr int kEvalSetupRepeats = 61;
constexpr int kWarmupRequests = 16;
constexpr double kDrainCutoffS = 2.0;  // after the schedule ends
constexpr int kWindowPerConn = 32;     // = NetServer max_inflight_per_conn
constexpr int kEvalBatch = 8;
// An open-loop run is invalid when the generator ran later than the
// interactive deadline at p99 (median over windows): past that its own
// delays, not the server's, decide which replies miss the limit.
constexpr double kGenLateLimitMs = kDeadlineMs;
// Run timings are medians over this many equal windows of the run.
constexpr int kWindows = 5;
// A closed loop's timings are means over windows of this length (see
// SummarizeClosedLoop).
constexpr double kClosedWindowS = 1.0;
// Replay self times must sum to the load run's client p50 within this
// share on interactive_416.
constexpr double kAccountTolerance = 0.15;

struct WorkloadSpec {
  const char* name;
  bool served;
  int image_size;
  int pool_size;
  bool closed_loop;
  double rate_per_s;         // open loop only
  double interactive_share;  // open loop only
  int conns;
};

const WorkloadSpec kWorkloads[] = {
    {"interactive_416", true, 416, 32, true, 0.0, 1.0, 1},
    {"interactive_96", true, 96, 32, true, 0.0, 1.0, 1},
    // The two open loops and the eval run on request but are not in
    // BENCHMARK.json: queueing (open_mixed_96), saturation (overload_96)
    // and pure compute (eval_table1_96) follow the host's CPU contention,
    // so their figures do not repeat within the bounds (see README.md).
    {"open_mixed_96", true, 96, 256, false, 500.0, 0.5, 4},
    {"overload_96", true, 96, 256, false, 2000.0, 0.5, 4},
    {"eval_table1_96", false, 96, 0, true, 0.0, 0.0, 0},
};

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Ms(double seconds) { return seconds * 1e3; }

// Resident set of this process in MB; peak_rss_mb is the largest sample
// taken while the workload runs (after inputs and references exist, so
// the transient standard-dataset render does not mask the server).
double ResidentMb() {
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%lld %lld", &size, &resident);
    std::fclose(f);
    if (got == 2) {
      return static_cast<double>(resident) *
             static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct RssPeak {
  double peak = 0.0;
  double last_sample = 0.0;
  void Sample() {
    peak = std::max(peak, ResidentMb());
    last_sample = Now();
  }
  void MaybeSample() {
    if (Now() - last_sample > 0.05) Sample();
  }
};

// Load-generator isolation: the generator thread runs alone on the last
// CPU and everything else (the served stack, its workers, the global
// thread pool it spawns, the reference detector) on the others, so the
// generator keeps its schedule while the server saturates its cores.
// Threads inherit their creator's affinity, so the main thread pins
// itself to the server set before building anything and moves to the
// generator CPU only to drive the load.
struct CpuSplit {
  bool active = false;
  cpu_set_t server;
  cpu_set_t generator;
};

CpuSplit SplitCpus() {
  CpuSplit split;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) {
    return split;
  }
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  split.server = all;
  CPU_CLR(last, &split.server);
  CPU_ZERO(&split.generator);
  CPU_SET(last, &split.generator);
  split.active = true;
  return split;
}

void PinCurrentThread(const CpuSplit& split, bool generator) {
  if (!split.active) return;
  const cpu_set_t& set = generator ? split.generator : split.server;
  sched_setaffinity(0, sizeof(set), &set);
}

// ----------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  void Print() const {
    std::printf("\n%-30s %18s %-6s %9s\n", "metric", "value", "unit",
                "samples");
    for (const Metric& m : metrics_) {
      std::printf("%-30s %18.6f %-6s %9lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) s += ", ";
      s += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ------------------------------------------------------- fingerprint --

std::string CpuBrand() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
  brand = brand.c_str();
  while (!brand.empty() && brand.back() == ' ') brand.pop_back();
  size_t start = brand.find_first_not_of(' ');
  return start == std::string::npos ? "unknown" : brand.substr(start);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// THALI_* variables as the benchmark was started with (before it sets
// THALI_INT8 for the served workloads).
std::string StartupThaliEnv() {
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "THALI_", 6) != 0) continue;
    if (!env.empty()) env += ", ";
    env += "\"" + JsonEscape(*e) + "\"";
  }
  return env;
}

std::string HostFingerprint(const std::string& git_sha,
                            const std::string& env) {
  const thali::CpuFeatures& cpu = thali::CpuInfo();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpu\": \"%s\", \"nproc\": %u, \"avx2\": %s, \"fma\": %s, "
      "\"gemm\": \"%s\", \"gemm_int8\": \"%s\", \"act\": \"%s\", "
      "\"resize\": \"%s\", \"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"startup_thali_env\": [%s]}",
      JsonEscape(CpuBrand()).c_str(), std::thread::hardware_concurrency(),
      cpu.avx2 ? "true" : "false", cpu.fma ? "true" : "false",
      thali::GemmKernelName(), thali::SelectInt8GemmKernel().name,
      thali::ActKernelName(), thali::ResizeKernelName(),
      JsonEscape(git_sha).c_str(), PERFBENCH_BUILD_TYPE, env.c_str());
  return buf;
}

// ------------------------------------------------------------ inputs --

// The workload's requests: one per rendered platter; the generator sets
// class and deadline per send.
using Pool = std::vector<thali::net::DetectRequest>;

// Seeded pool of rendered platters with 1-4 dishes at size x size.
Pool RenderPool(uint64_t seed, int size, int count, InputHash* hash) {
  thali::PlatterRenderer::Options ropts;
  ropts.width = size;
  ropts.height = size;
  thali::PlatterRenderer renderer(thali::IndianFood10(), ropts);
  thali::Rng rng(seed);
  Pool pool;
  for (int i = 0; i < count; ++i) {
    const int dishes = rng.NextInt(1, 4);
    thali::RenderedScene scene = renderer.RenderRandomPlatter(dishes, rng);
    hash->AddImage(scene.image);
    thali::net::DetectRequest req;
    req.image = std::move(scene.image);
    pool.push_back(std::move(req));
  }
  return pool;
}

// bench::StandardDataset(), kept through set-up for calibration and the
// val split, then freed before anything is measured. The calibration
// images and the val split enter the input hash.
struct StandardInputs {
  std::unique_ptr<thali::FoodDataset> dataset;  // alive through setup
  std::vector<int> calib_indices;
};

StandardInputs LoadStandardInputs(InputHash* hash) {
  StandardInputs in;
  in.dataset = std::make_unique<thali::FoodDataset>(
      thali::bench::StandardDataset());
  const std::vector<int>& train = in.dataset->train_indices();
  in.calib_indices.assign(train.begin(),
                          train.begin() + std::min<size_t>(kCalibImages,
                                                           train.size()));
  for (int idx : in.calib_indices) {
    hash->AddImage(in.dataset->item(idx).image);
  }
  for (int idx : in.dataset->val_indices()) {
    hash->AddImage(in.dataset->item(idx).image);
  }
  return in;
}

void FreeDataset(StandardInputs* in) {
  in->dataset.reset();
  malloc_trim(0);
}

// ------------------------------------------------------ served stack --

struct SetupTimes {
  std::mutex mu;
  std::vector<double> load_s;
  std::vector<double> calibrate_s;
};

thali::StatusOr<Detector> BuildServedDetector(const std::string& cfg,
                                       const std::string& weights,
                                       const thali::FoodDataset& dataset,
                                       const std::vector<int>& calib,
                                       SetupTimes* times) {
  const double t0 = Now();
  auto det = Detector::FromFiles(cfg, weights);
  const double t1 = Now();
  if (!det.ok()) return det;
  det->CalibrateInt8(dataset, calib);
  const double t2 = Now();
  det->set_options({kServeConf, kNms});
  if (times != nullptr) {
    std::lock_guard<std::mutex> lock(times->mu);
    times->load_s.push_back(t1 - t0);
    times->calibrate_s.push_back(t2 - t1);
  }
  return det;
}

struct Stack {
  std::unique_ptr<thali::serve::ModelRouter> router;
  std::unique_ptr<thali::net::NetServer> server;
  thali::serve::Server* model = nullptr;

  ~Stack() {
    server.reset();  // the front-end goes before the router it serves
    router.reset();
  }
};

// Server construction until it accepts connections: cfg parse, weights
// load, plan compile, per-worker int8 calibration, bind, and one PING
// answered.
std::unique_ptr<Stack> BuildStack(const std::string& cfg,
                                  const std::string& weights,
                                  const thali::FoodDataset& dataset,
                                  const std::vector<int>& calib,
                                  SetupTimes* times, double* setup_s) {
  const double t0 = Now();
  auto stack = std::make_unique<Stack>();
  stack->router = std::make_unique<thali::serve::ModelRouter>();
  thali::serve::Server::Options opts;
  opts.num_workers = kWorkers;
  opts.queue_capacity = kLaneCapacity;
  opts.max_batch_size = kMaxBatch;
  opts.max_linger = std::chrono::microseconds(kLingerUs);
  opts.admission.enabled = true;
  THALI_CHECK_OK(stack->router->AddModel(kModel, opts, [&] {
    return BuildServedDetector(cfg, weights, dataset, calib, times);
  }));
  auto server = thali::net::NetServer::Start({}, stack->router.get());
  THALI_CHECK(server.ok()) << server.status().ToString();
  stack->server = std::move(server).value();
  auto client = thali::net::NetClient::Connect(stack->server->port());
  THALI_CHECK(client.ok()) << client.status().ToString();
  THALI_CHECK_OK(client->Ping());
  *setup_s = Now() - t0;
  stack->model = stack->router->Find(kModel);
  return stack;
}

// ------------------------------------------------------ load results --

struct RequestRecord {
  int image = 0;
  Priority priority = Priority::kInteractive;
  double sched_s = 0.0;  // open loop: scheduled send; closed: send
  double send_s = -1.0;
  double done_s = -1.0;  // reply decoded; < 0 = unanswered
  Verdict verdict = Verdict::kTransport;
};

struct LoadResult {
  std::vector<RequestRecord> requests;
  std::vector<double> gen_late_ms;
  double span_s = 0.0;  // schedule (open) or measurement (closed) length
  int64_t transport_errors = 0;

  int64_t Count(Verdict v) const {
    int64_t n = 0;
    for (const RequestRecord& r : requests) {
      if (r.done_s >= 0 && r.verdict == v) ++n;
    }
    return n;
  }
  int64_t Unanswered() const {
    int64_t n = 0;
    for (const RequestRecord& r : requests) n += r.done_s < 0 ? 1 : 0;
    return n;
  }
  std::vector<double> OkLatencyMs() const {
    std::vector<double> v;
    for (const RequestRecord& r : requests) {
      if (r.done_s >= 0 && (r.verdict == Verdict::kCorrect ||
                            r.verdict == Verdict::kWrong)) {
        v.push_back(Ms(r.done_s - r.sched_s));
      }
    }
    return v;
  }
  int64_t Goodput() const {
    int64_t n = 0;
    for (const RequestRecord& r : requests) {
      n += r.done_s >= 0 && r.verdict == Verdict::kCorrect &&
                   Ms(r.done_s - r.sched_s) <= kDeadlineMs
               ? 1
               : 0;
    }
    return n;
  }
  // Non-OK + shed + expired + wrong + unanswered + transport.
  int64_t Errors() const {
    return static_cast<int64_t>(requests.size()) - Count(Verdict::kCorrect);
  }
};

std::vector<uint8_t> EncodeRequestFrame(const thali::net::DetectRequest& req) {
  const std::vector<uint8_t> payload = thali::net::EncodeDetectRequest(req);
  return thali::net::EncodeFrame(thali::net::Op::kDetect, payload);
}

// Open-loop interactive requests carry the 50 ms deadline; batch-class
// and closed-loop requests carry none.
uint32_t OpenLoopDeadline(Priority p) {
  return p == Priority::kInteractive ? static_cast<uint32_t>(kDeadlineMs) : 0;
}

// Blocking round trip on `fd`: sends `frame`, returns the reply payload
// and, if asked, when the last byte was handed to the socket.
bool RoundTrip(int fd, const std::vector<uint8_t>& frame,
               std::vector<uint8_t>* reply, double* sent_at = nullptr) {
  if (!thali::SendAll(fd, frame.data(), frame.size()).ok()) return false;
  if (sent_at != nullptr) *sent_at = Now();
  uint8_t header_bytes[thali::net::kHeaderBytes];
  if (!thali::RecvAll(fd, header_bytes, sizeof(header_bytes)).ok()) {
    return false;
  }
  thali::net::FrameHeader header;
  if (!thali::net::ParseHeader(header_bytes, &header).ok()) return false;
  reply->resize(header.payload_len);
  return header.payload_len == 0 ||
         thali::RecvAll(fd, reply->data(), header.payload_len).ok();
}

// Closed loop, one connection: the next request goes out as soon as the
// previous reply is checked. Latency runs from send start (encode
// included) to the reply received.
LoadResult RunClosedLoop(uint16_t port, const Pool& pool,
                         const std::vector<std::vector<Detection>>& refs,
                         uint64_t seed, double seconds, SpanLog* spans,
                         RssPeak* rss) {
  LoadResult out;
  auto fd = thali::ConnectLoopback(port);
  THALI_CHECK(fd.ok()) << fd.status().ToString();
  thali::Rng rng(seed);
  const int n = static_cast<int>(pool.size());
  std::vector<uint8_t> reply;
  for (int i = 0; i < kWarmupRequests; ++i) {
    RoundTrip(*fd, EncodeRequestFrame(pool[i % n]), &reply);
  }
  const double start = Now();
  double prev_done = start;
  while (Now() - start < seconds) {
    RequestRecord r;
    r.image = static_cast<int>(rng.NextU64Below(static_cast<uint64_t>(n)));
    const double t_send = Now();
    out.gen_late_ms.push_back(Ms(t_send - prev_done));
    const std::vector<uint8_t> frame =
        EncodeRequestFrame(pool[r.image]);
    const double t_encoded = Now();
    double t_sent = t_encoded;
    const bool ok = RoundTrip(*fd, frame, &reply, &t_sent);
    const double t_recv = Now();
    r.verdict = ok ? CheckReply(reply, refs[r.image]) : Verdict::kTransport;
    const double t_checked = Now();
    r.sched_s = r.send_s = t_send - start;
    r.done_s = ok ? t_recv - start : -1.0;
    if (!ok) ++out.transport_errors;
    if (spans != nullptr) {
      const int64_t id = static_cast<int64_t>(out.requests.size());
      const double base = (t_send - start) * 1e6;
      const int64_t root =
          spans->Add(id, -1, "request", base, (t_recv - t_send) * 1e6);
      spans->Add(id, root, "encode", base, (t_encoded - t_send) * 1e6);
      spans->Add(id, root, "send", (t_encoded - start) * 1e6,
                 (t_sent - t_encoded) * 1e6);
      spans->Add(id, root, "receive", (t_sent - start) * 1e6,
                 (t_recv - t_sent) * 1e6);
      spans->Add(id, -1, "check", (t_recv - start) * 1e6,
                 (t_checked - t_recv) * 1e6);
    }
    out.requests.push_back(r);
    prev_done = t_checked;
    if (!ok) break;
    rss->MaybeSample();
  }
  out.span_s = Now() - start;
  thali::CloseFd(*fd);
  return out;
}

// One open-loop connection's generator-side state.
struct OpenConn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  std::deque<int64_t> inflight;  // request ids, reply order
  bool dead = false;
};

// Open loop: one generator thread replays the Poisson schedule over
// `conns` pipelined connections. Each request goes out at its scheduled
// time; latency runs from that time. A connection holds at most
// kWindowPerConn unanswered requests (the server's own per-connection
// limit, past which it stops reading): an arrival that finds the window
// full is refused, not queued, so the generator's memory and the
// schedule stay bounded. Requests not answered kDrainCutoffS after the
// schedule ends count as unanswered.
LoadResult RunOpenLoop(uint16_t port, Pool* pool,
                       const std::vector<std::vector<Detection>>& refs,
                       const std::vector<Arrival>& schedule, int conns,
                       double seconds, SpanLog* spans, RssPeak* rss) {
  LoadResult out;
  out.span_s = seconds;
  std::vector<OpenConn> cs(static_cast<size_t>(conns));
  std::vector<uint8_t> reply;
  for (int c = 0; c < conns; ++c) {
    auto fd = thali::ConnectLoopback(port);
    THALI_CHECK(fd.ok()) << fd.status().ToString();
    cs[c].fd = *fd;
    for (int i = 0; i < kWarmupRequests / conns + 1; ++i) {
      RoundTrip(cs[c].fd, EncodeRequestFrame((*pool)[i]), &reply);
    }
    THALI_CHECK_OK(thali::SetNonBlocking(cs[c].fd, true));
  }
  const size_t n = schedule.size();
  out.requests.resize(n);
  std::vector<double> encode_us(spans != nullptr ? n : 0);
  std::vector<double> decode_us(spans != nullptr ? n : 0);
  size_t next = 0;
  size_t finished = 0;
  std::vector<pollfd> pfds(static_cast<size_t>(conns));
  const double start = Now() + 0.005;

  auto on_reply = [&](OpenConn& c, std::span<const uint8_t> payload,
                      double now) {
    const int64_t id = c.inflight.front();
    c.inflight.pop_front();
    RequestRecord& r = out.requests[static_cast<size_t>(id)];
    const double t0 = Now();
    r.verdict = CheckReply(payload, refs[r.image]);
    if (spans != nullptr) decode_us[id] = (Now() - t0) * 1e6;
    r.done_s = now;
    ++finished;
  };

  for (;;) {
    double now = Now() - start;
    while (next < n && schedule[next].t_s <= now) {
      const Arrival& a = schedule[next];
      out.gen_late_ms.push_back(Ms(now - a.t_s));
      RequestRecord& r = out.requests[next];
      r.image = a.image;
      r.priority = a.priority;
      r.sched_s = a.t_s;
      OpenConn& c = cs[a.conn];
      if (c.dead || c.inflight.size() >= static_cast<size_t>(kWindowPerConn)) {
        r.verdict = c.dead ? Verdict::kTransport : Verdict::kRefused;
        r.done_s = now;
        ++finished;
        ++next;
        continue;
      }
      thali::net::DetectRequest& req = (*pool)[r.image];
      req.priority = r.priority;
      req.deadline_ms = OpenLoopDeadline(r.priority);
      const double t0 = Now();
      std::vector<uint8_t> frame = EncodeRequestFrame(req);
      if (spans != nullptr) encode_us[next] = (Now() - t0) * 1e6;
      if (c.out_off == c.out.size()) {
        c.out = std::move(frame);
        c.out_off = 0;
      } else {
        c.out.insert(c.out.end(), frame.begin(), frame.end());
      }
      r.send_s = Now() - start;
      c.inflight.push_back(static_cast<int64_t>(next));
      ++next;
    }
    for (OpenConn& c : cs) {
      while (!c.dead && c.out_off < c.out.size()) {
        const ssize_t sent = send(c.fd, c.out.data() + c.out_off,
                                  c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (sent > 0) {
          c.out_off += static_cast<size_t>(sent);
        } else if (sent < 0 && errno == EINTR) {
          continue;
        } else {
          if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            c.dead = true;
          }
          break;
        }
      }
      if (c.out_off == c.out.size() && c.out_off > 0) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (finished == n) break;
    now = Now() - start;
    if (next == n && now > seconds + kDrainCutoffS) break;

    for (int c = 0; c < conns; ++c) {
      pfds[c].fd = cs[c].dead ? -1 : cs[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (cs[c].out_off < cs[c].out.size() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    double wait_s = 0.001;
    if (next < n) wait_s = std::min(wait_s, schedule[next].t_s - now);
    wait_s = std::max(0.0, wait_s);
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (int ci = 0; ci < conns; ++ci) {
      OpenConn& c = cs[ci];
      if (c.dead || (pfds[ci].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      uint8_t buf[64 * 1024];
      for (;;) {
        const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          c.in.insert(c.in.end(), buf, buf + got);
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          c.dead = true;
        }
        break;
      }
      const double t_recv = Now() - start;
      for (;;) {
        const size_t avail = c.in.size() - c.in_off;
        if (avail < thali::net::kHeaderBytes) break;
        thali::net::FrameHeader h;
        if (!thali::net::ParseHeader(
                 std::span<const uint8_t>(c.in.data() + c.in_off, avail), &h)
                 .ok() ||
            c.inflight.empty()) {
          c.dead = true;
          break;
        }
        const size_t total = thali::net::kHeaderBytes + h.payload_len;
        if (avail < total) break;
        on_reply(c, std::span<const uint8_t>(
                        c.in.data() + c.in_off + thali::net::kHeaderBytes,
                        h.payload_len),
                 t_recv);
        c.in_off += total;
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      } else if (c.in_off > (1u << 20)) {
        c.in.erase(c.in.begin(), c.in.begin() + c.in_off);
        c.in_off = 0;
      }
    }
    rss->MaybeSample();
  }
  for (OpenConn& c : cs) {
    if (c.dead) ++out.transport_errors;
    thali::CloseFd(c.fd);
  }
  if (spans != nullptr) {
    for (size_t id = 0; id < n; ++id) {
      const RequestRecord& r = out.requests[id];
      if (r.done_s < 0 || r.send_s < 0) continue;
      const int64_t rid = static_cast<int64_t>(id);
      const int64_t root = spans->Add(rid, -1, "request", r.sched_s * 1e6,
                                      (r.done_s - r.sched_s) * 1e6);
      spans->Add(rid, root, "encode", r.send_s * 1e6 - encode_us[id],
                 encode_us[id]);
      spans->Add(rid, -1, "check", r.done_s * 1e6, decode_us[id]);
    }
  }
  return out;
}

// Waits until the model's lanes are empty (between load phases).
void WaitIdle(thali::serve::Server* model) {
  for (int i = 0; i < 2000; ++i) {
    if (model->LaneDepth(Priority::kInteractive) == 0 &&
        model->LaneDepth(Priority::kBatch) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// Sum of one histogram's samples in ms (mean is kept from a µs sum).
double HistSum(const thali::serve::HistogramSnapshot& h) {
  return h.mean_ms * static_cast<double>(h.count);
}

// The net and serve layers' exported counters at one instant.
struct Counters {
  int64_t detects = 0;
  int64_t detect_errors = 0;
  int64_t dropped = 0;
  thali::serve::MetricsSnapshot serve;
};

Counters ReadCounters(const Stack& stack) {
  const auto& c = stack.server->counters();
  return {c.detects.load(), c.detect_errors.load(),
          c.connections_dropped.load(), stack.model->metrics().Snapshot()};
}

// Conv multiply-adds x2 per image, from the cfg shapes.
double ConvOpsPerImage(const thali::Network& net) {
  double ops = 0.0;
  for (int i = 0; i < net.num_layers(); ++i) {
    const auto* conv = dynamic_cast<const thali::ConvLayer*>(&net.layer(i));
    if (conv == nullptr) continue;
    const thali::Shape& in = conv->input_shape();
    const thali::Shape& o = conv->output_shape();
    const double k = conv->options().ksize;
    ops += 2.0 * static_cast<double>(o[1] * o[2] * o[3]) *
           static_cast<double>(in[1]) * k * k;
  }
  return ops;
}

// ------------------------------------------------------ common parts --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string weights;
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string startup_env;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;
};

// Says how the run's timings were summarized, with the tail latency (it
// is reported per layer as client.latency_p99_ms: the host's CPU
// contention moves it too much between runs for an end-to-end bound) at
// the percentile every window could support.
void AddWindowNote(const WindowSummary& ws, Outcome* outcome) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "timings: medians over %d windows, %lld latency samples; "
                "tail latency %.3f ms at p%.2f (the highest percentile every "
                "window has %lld samples beyond)",
                kWindows, static_cast<long long>(ws.samples), ws.p99_ms,
                ws.tail_percentile, static_cast<long long>(kTailSamples));
  outcome->notes.push_back(buf);
}

int ClosedWindows(double span_s) {
  return std::max(1, static_cast<int>(std::lround(span_s / kClosedWindowS)));
}

// Says which figures a closed loop reports and what the window medians
// were.
void AddClosedLoopNote(const ClosedLoopSummary& closed,
                       const WindowSummary& ws, Outcome* outcome) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "closed loop: latency_p50_ms %.3f and images_per_s %.3f are "
                "means over %.1f s windows (medians over %d windows: p50 "
                "%.3f ms, %.3f correct results/s)",
                closed.p50_ms, closed.cycle_per_s, kClosedWindowS, kWindows,
                ws.p50_ms, ws.good_per_s);
  outcome->notes.push_back(buf);
}

void PrintResult(const Args& args, const InputHash& hash,
                 const Report& report, const Outcome& outcome) {
  report.Print();
  for (const std::string& n : outcome.notes) {
    std::printf("note: %s\n", n.c_str());
  }
  std::printf("fingerprint: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"input_hash\": \"%s\", \"host\": %s}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              hash.Hex().c_str(),
              HostFingerprint(args.git_sha, args.startup_env).c_str());
  std::printf("verdict: %s (attempted %lld, failed %lld)\n",
              outcome.correct ? "correct" : "INCORRECT",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed),
              report.Json().c_str());
  std::fflush(stdout);
}

double MapOf(const std::vector<std::vector<Detection>>& dets,
             const std::vector<std::vector<thali::TruthBox>>& truths) {
  std::vector<thali::ImageEval> evals;
  for (size_t i = 0; i < dets.size(); ++i) {
    thali::ImageEval ev;
    ev.image_id = static_cast<int>(i);
    ev.detections = dets[i];
    for (const thali::TruthBox& t : truths[i]) {
      ev.truths.push_back({t.box, t.class_id});
    }
    evals.push_back(std::move(ev));
  }
  return thali::Evaluate(evals, static_cast<int>(thali::IndianFood10().size()))
      .map;
}

// Standalone per-layer costs on a sample of the workload's images:
// request encode, request + reply decode, and the fused letterbox.
struct Standalone {
  double frame_bytes = 0, encode_ms = 0, decode_ms = 0, letterbox_ms = 0;
  int64_t samples = 0;
};

Standalone MeasureStandalone(const std::vector<const Image*>& images,
                             const std::vector<const std::vector<Detection>*>&
                                 refs,
                             const thali::ExecPlan& plan, int net_size) {
  Standalone s;
  std::vector<double> enc, dec, lb;
  std::vector<uint8_t> planes(static_cast<size_t>(3 * net_size * net_size));
  const float inv_scale = plan.input_u8 ? 1.0f / plan.input_qscale : 127.0f;
  const int32_t zp = plan.input_u8 ? plan.input_qzp : 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < images.size(); ++i) {
      thali::net::DetectRequest req;
      req.image = *images[i];
      double t0 = Now();
      const std::vector<uint8_t> payload =
          thali::net::EncodeDetectRequest(req);
      const std::vector<uint8_t> frame =
          thali::net::EncodeFrame(thali::net::Op::kDetect, payload);
      double t1 = Now();
      enc.push_back(Ms(t1 - t0));
      s.frame_bytes += static_cast<double>(frame.size());
      const std::vector<uint8_t> reply_frame =
          thali::net::EncodeDetectResponse(thali::Status::OK(), *refs[i]);
      t0 = Now();
      thali::net::DetectRequest decoded;
      THALI_CHECK_OK(thali::net::DecodeDetectRequest(payload, &decoded));
      thali::Status st;
      std::vector<Detection> dets;
      THALI_CHECK_OK(thali::net::DecodeDetectResponse(
          std::span<const uint8_t>(reply_frame).subspan(
              thali::net::kHeaderBytes),
          &st, &dets));
      t1 = Now();
      dec.push_back(Ms(t1 - t0));
      t0 = Now();
      thali::LetterboxIntoQuantizedPlanes(*images[i], net_size, net_size,
                                          inv_scale, zp, planes.data());
      t1 = Now();
      lb.push_back(Ms(t1 - t0));
    }
  }
  s.samples = static_cast<int64_t>(enc.size());
  s.frame_bytes /= static_cast<double>(std::max<int64_t>(1, s.samples));
  s.encode_ms = Median(enc);
  s.decode_ms = Median(dec);
  s.letterbox_ms = Median(lb);
  return s;
}

void AddStandalone(const Standalone& sa, Report* report) {
  report->Add("net.frame_bytes", sa.frame_bytes, "B", sa.samples);
  report->Add("net.encode_ms", sa.encode_ms, "ms", sa.samples);
  report->Add("net.decode_ms", sa.decode_ms, "ms", sa.samples);
  report->Add("image.letterbox_ms", sa.letterbox_ms, "ms", sa.samples);
}

// Per-request and per-batch means of the serve layer between two reads.
struct ServeMeans {
  double e2e_ms = 0, queue_ms = 0;                 // per request
  double pre_ms = 0, forward_ms = 0, post_ms = 0;  // per batch
  double forward_per_image_ms = 0;
  int64_t batches = 0, images = 0;
};

// Adds the net counters and serve-layer metrics over one phase between
// reads `a` and `b`, `seconds` long, and returns the serve layer's means.
// Histogram percentiles are cumulative since the server started.
ServeMeans AddServeMetrics(const Counters& a, const Counters& b,
                           double seconds, Report* report) {
  const thali::serve::MetricsSnapshot& s0 = a.serve;
  const thali::serve::MetricsSnapshot& s1 = b.serve;
  auto mean = [](const thali::serve::HistogramSnapshot& x,
                 const thali::serve::HistogramSnapshot& y, int64_t n) {
    return n > 0 ? (HistSum(y) - HistSum(x)) / static_cast<double>(n) : 0.0;
  };
  ServeMeans m;
  m.batches = s1.batches - s0.batches;
  m.images = s1.batched_images - s0.batched_images;
  m.e2e_ms = mean(s0.e2e, s1.e2e, s1.e2e.count - s0.e2e.count);
  m.queue_ms = mean(s0.queue_wait, s1.queue_wait,
                    s1.queue_wait.count - s0.queue_wait.count);
  m.pre_ms = mean(s0.preprocess, s1.preprocess, m.batches);
  m.forward_ms = mean(s0.forward, s1.forward, m.batches);
  m.post_ms = mean(s0.postprocess, s1.postprocess, m.batches);
  m.forward_per_image_ms = mean(s0.forward, s1.forward, m.images);
  const int64_t detects = b.detects - a.detects;
  const int64_t submitted = s1.submitted - s0.submitted;
  const int64_t admitted = submitted - (s1.rejected - s0.rejected);
  const int64_t shed = s1.shed_deadline + s1.shed_pressure -
                       s0.shed_deadline - s0.shed_pressure;
  report->Add("net.dispatch_rps", static_cast<double>(detects) / seconds,
              "1/s", detects);
  report->Add("net.detect_errors",
              static_cast<double>(b.detect_errors - a.detect_errors), "count",
              detects);
  report->Add("net.dropped_conns", static_cast<double>(b.dropped - a.dropped),
              "count", 1);
  report->Add("serve.queue_wait_p50_ms", s1.queue_wait.p50_ms, "ms",
              s1.queue_wait.count);
  report->Add("serve.queue_wait_p99_ms", s1.queue_wait.p99_ms, "ms",
              s1.queue_wait.count);
  report->Add("serve.hold_ms",
              m.e2e_ms - m.queue_ms - (m.pre_ms + m.forward_ms + m.post_ms),
              "ms", m.batches);
  report->Add("serve.mean_batch",
              m.batches > 0 ? static_cast<double>(m.images) /
                                  static_cast<double>(m.batches)
                            : 0.0,
              "images", m.batches);
  report->Add("serve.admit_rps", static_cast<double>(admitted) / seconds,
              "1/s", submitted);
  report->Add("serve.shed_share",
              submitted > 0 ? static_cast<double>(shed) /
                                  static_cast<double>(submitted)
                            : 0.0,
              "ratio", submitted);
  report->Add("serve.timed_out",
              static_cast<double>(s1.timed_out - s0.timed_out), "count",
              submitted);
  report->Add("serve.interactive_p99_ms",
              s1.interactive.completed_e2e.p99_ms, "ms",
              s1.interactive.completed_e2e.count);
  return m;
}

// Detector stage split (per batch) and what the model itself costs.
void AddModelMetrics(thali::Network& net, double pre_ms, double forward_ms,
                     double post_ms, double forward_per_image_ms,
                     int64_t batches, int64_t images,
                     const std::vector<std::vector<Detection>>& refs,
                     const SetupTimes& times, Report* report) {
  double dets = 0;
  for (const auto& r : refs) dets += static_cast<double>(r.size());
  report->Add("core.preprocess_ms", pre_ms, "ms", batches);
  report->Add("core.forward_ms", forward_ms, "ms", batches);
  report->Add("core.forward_ms_per_image", forward_per_image_ms, "ms", images);
  report->Add("core.postprocess_ms", post_ms, "ms", batches);
  report->Add("eval.detections_per_image",
              dets / static_cast<double>(refs.size()), "count",
              static_cast<int64_t>(refs.size()));
  report->Add("tensor.conv_gops",
              forward_per_image_ms > 0
                  ? ConvOpsPerImage(net) / (forward_per_image_ms * 1e6)
                  : 0.0,
              "GOP/s", images);
  report->Add("nn.quantized_layers", net.exec_plan().quantized_layers,
              "count", 1);
  report->Add("nn.activation_bytes",
              static_cast<double>(net.ActivationBytes()), "B", 1);
  report->Add("darknet.load_s", Median(times.load_s), "s",
              static_cast<int64_t>(times.load_s.size()));
  report->Add("core.calibrate_s", Median(times.calibrate_s), "s",
              static_cast<int64_t>(times.calibrate_s.size()));
}

// Decomposition replay: for each sampled input, one socket round trip
// (root span, encode and reply decode inline), then the server-side
// layers called one after another on the same input — request decode,
// Submit + future wait with the queue/pre/forward/post split read from
// the server's histograms, reply encode. Self times split the request
// into wire (root self), encode, decode, submit, queue, hold (serve
// self), pre, forward, post and reply.
// Returns the sum of the per-name median self times, in ms.
double RunReplay(Stack* stack, const std::vector<const Image*>& images,
               const std::vector<const std::vector<Detection>*>& refs,
               SpanLog* spans, int64_t first_request, Report* report) {
  auto fd = thali::ConnectLoopback(stack->server->port());
  THALI_CHECK(fd.ok()) << fd.status().ToString();
  thali::serve::Server* model = stack->model;
  std::vector<uint8_t> reply;
  const double origin = Now();
  auto us = [&](double t) { return (t - origin) * 1e6; };
  std::vector<double> submit_us;
  const size_t first_span = spans->spans().size();
  for (size_t i = 0; i < images.size(); ++i) {
    const int64_t rid = first_request + static_cast<int64_t>(i);
    thali::net::DetectRequest req;
    req.image = *images[i];
    // Socket round trip (root).
    const double t0 = Now();
    const std::vector<uint8_t> payload = thali::net::EncodeDetectRequest(req);
    const std::vector<uint8_t> frame =
        thali::net::EncodeFrame(thali::net::Op::kDetect, payload);
    const double t1 = Now();
    const bool ok = RoundTrip(*fd, frame, &reply);
    const double t2 = Now();
    thali::Status st;
    std::vector<Detection> dets;
    const bool decoded =
        ok && thali::net::DecodeDetectResponse(reply, &st, &dets).ok();
    const double t3 = Now();
    THALI_CHECK(decoded && st.ok() && SameDetections(dets, *refs[i]))
        << "replay reply differs from the reference";
    const int64_t root = spans->Add(rid, -1, "request", us(t0), (t3 - t0) * 1e6);
    spans->Add(rid, root, "encode", us(t0), (t1 - t0) * 1e6);
    // Server-side request decode.
    double s0 = Now();
    thali::net::DetectRequest server_req;
    THALI_CHECK_OK(thali::net::DecodeDetectRequest(payload, &server_req));
    double s1 = Now();
    spans->Add(rid, root, "decode", us(s0), (s1 - s0) * 1e6);
    // Submit + future wait, split by the server's own histograms.
    const thali::serve::MetricsSnapshot before = model->metrics().Snapshot();
    s0 = Now();
    auto fut = model->Submit(std::move(server_req.image),
                             thali::serve::Server::SubmitOptions{});
    const double s_submitted = Now();
    THALI_CHECK(fut.ok()) << fut.status().ToString();
    thali::serve::Server::Result result = fut->get();
    s1 = Now();
    THALI_CHECK(result.ok() && SameDetections(*result, *refs[i]))
        << "replay Submit differs from the reference";
    const thali::serve::MetricsSnapshot after = model->metrics().Snapshot();
    const int64_t serve =
        spans->Add(rid, root, "serve", us(s0), (s1 - s0) * 1e6);
    spans->Add(rid, serve, "submit", us(s0), (s_submitted - s0) * 1e6);
    submit_us.push_back((s_submitted - s0) * 1e6);
    double cursor = us(s_submitted);
    auto add_hist = [&](const char* name,
                        const thali::serve::HistogramSnapshot& b,
                        const thali::serve::HistogramSnapshot& a) {
      const double d = (HistSum(a) - HistSum(b)) * 1e3;
      spans->Add(rid, serve, name, cursor, d);
      cursor += d;
    };
    add_hist("queue", before.queue_wait, after.queue_wait);
    add_hist("pre", before.preprocess, after.preprocess);
    add_hist("forward", before.forward, after.forward);
    add_hist("post", before.postprocess, after.postprocess);
    // Reply: server encode + the client decode measured inline above.
    s0 = Now();
    const size_t reply_bytes =
        thali::net::EncodeDetectResponse(thali::Status::OK(), *result).size();
    s1 = Now();
    THALI_CHECK_GT(reply_bytes, thali::net::kHeaderBytes);
    spans->Add(rid, root, "reply", us(t2), (s1 - s0 + t3 - t2) * 1e6);
  }
  thali::CloseFd(*fd);

  std::vector<Span> replay(spans->spans().begin() + first_span,
                           spans->spans().end());
  const auto self = SelfTimesByName(replay);
  auto med_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Median(it->second) / 1e3;
  };
  const int64_t n = static_cast<int64_t>(images.size());
  report->Add("serve.submit_us", Median(submit_us), "us", n);
  // Root self = wire (socket + event loop + hand-offs outside the
  // replayed calls); serve self = hold (linger + worker hand-off).
  const char* kParts[][2] = {
      {"replay.wire_ms", "request"}, {"replay.encode_ms", "encode"},
      {"replay.decode_ms", "decode"}, {"replay.submit_ms", "submit"},
      {"replay.queue_ms", "queue"},   {"replay.hold_ms", "serve"},
      {"replay.pre_ms", "pre"},       {"replay.forward_ms", "forward"},
      {"replay.post_ms", "post"},     {"replay.reply_ms", "reply"}};
  double accounted_ms = 0.0;
  for (const auto& p : kParts) {
    report->Add(p[0], med_ms(p[1]), "ms", n);
    accounted_ms += med_ms(p[1]);
  }
  return accounted_ms;
}

// --------------------------------------------------------- workloads --

int RunServed(const WorkloadSpec& w, const Args& args) {
  setenv("THALI_INT8", "1", 1);  // the served plan is int8 chained
  const CpuSplit cpus = SplitCpus();
  PinCurrentThread(cpus, /*generator=*/false);
  InputHash hash;
  hash.AddU64(args.seed);
  const std::string cfg = thali::bench::StandardCfg();
  StandardInputs std_in = LoadStandardInputs(&hash);
  Pool pool = RenderPool(args.seed, w.image_size, w.pool_size, &hash);
  const double load_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Arrival> schedule;
  if (!w.closed_loop) {
    schedule = PoissonSchedule(args.seed ^ 0x5c4ed01eULL, w.rate_per_s,
                               load_seconds, w.pool_size, w.conns,
                               w.interactive_share);
    hash.AddSchedule(schedule);
  }

  // References: an in-process detector built exactly like a worker.
  auto ref_det = BuildServedDetector(cfg, args.weights, *std_in.dataset,
                                     std_in.calib_indices, nullptr);
  THALI_CHECK(ref_det.ok()) << ref_det.status().ToString();
  std::vector<std::vector<Detection>> refs;
  for (const auto& req : pool) refs.push_back(ref_det->Detect(req.image));
  const int net_size = ref_det->network().input_width();
  // map50 of the served (int8) model on the val split, at the served
  // thresholds.
  double served_map50 = 0.0;
  int64_t val_count = 0;
  if (!args.trace) {
    std::vector<std::vector<Detection>> val_dets;
    std::vector<std::vector<thali::TruthBox>> val_truths;
    for (int idx : std_in.dataset->val_indices()) {
      val_dets.push_back(ref_det->Detect(std_in.dataset->item(idx).image));
      val_truths.push_back(std_in.dataset->item(idx).truths);
    }
    served_map50 = MapOf(val_dets, val_truths);
    val_count = static_cast<int64_t>(val_dets.size());
  }

  SetupTimes times;
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    double s = 0.0;
    stack = BuildStack(cfg, args.weights, *std_in.dataset,
                       std_in.calib_indices, &times, &s);
    setups.push_back(s);
  }
  FreeDataset(&std_in);
  const uint16_t port = stack->server->port();

  RssPeak rss;
  rss.Sample();
  PinCurrentThread(cpus, /*generator=*/true);
  const Counters c0 = ReadCounters(*stack);
  LoadResult load =
      w.closed_loop
          ? RunClosedLoop(port, pool, refs, args.seed, load_seconds, nullptr,
                          &rss)
          : RunOpenLoop(port, &pool, refs, schedule, w.conns, load_seconds,
                        nullptr, &rss);
  WaitIdle(stack->model);
  const Counters c1 = ReadCounters(*stack);
  rss.Sample();

  Outcome outcome;
  const int64_t wrong = load.Count(Verdict::kWrong);
  const int64_t unanswered = load.Unanswered();
  outcome.attempted = static_cast<int64_t>(load.requests.size());
  outcome.failed = wrong + unanswered + load.Count(Verdict::kErrStatus) +
                   load.Count(Verdict::kTransport);
  outcome.correct = wrong == 0 && load.transport_errors == 0 &&
                    load.Count(Verdict::kTransport) == 0;
  const Tail late = TailPercentile(load.gen_late_ms, 99);
  if (!w.closed_loop) {
    std::vector<TimedOp> late_ops(load.gen_late_ms.size());
    for (size_t i = 0; i < late_ops.size(); ++i) {
      late_ops[i] = {schedule[i].t_s, true, load.gen_late_ms[i], 0};
    }
    if (SummarizeWindows(late_ops, load.span_s, kWindows).p99_ms >
        kGenLateLimitMs) {
      outcome.correct = false;
      outcome.notes.push_back("INVALID: generator fell behind its schedule");
    }
  }
  const double error_rate =
      static_cast<double>(load.Errors()) /
      static_cast<double>(std::max<int64_t>(1, outcome.attempted));
  const double goodput =
      static_cast<double>(load.Goodput()) / load.span_s;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "outcomes: correct %lld, wrong %lld, shed %lld, expired %lld, "
                "refused %lld, error_status %lld, unanswered %lld, "
                "transport %lld; error_rate %.6f, goodput_rps %.3f, "
                "gen_late_p99_ms %.3f",
                static_cast<long long>(load.Count(Verdict::kCorrect)),
                static_cast<long long>(wrong),
                static_cast<long long>(load.Count(Verdict::kShed)),
                static_cast<long long>(load.Count(Verdict::kExpired)),
                static_cast<long long>(load.Count(Verdict::kRefused)),
                static_cast<long long>(load.Count(Verdict::kErrStatus)),
                static_cast<long long>(unanswered),
                static_cast<long long>(load.transport_errors),
                error_rate, goodput, late.value);
  outcome.notes.push_back(buf);

  const std::vector<double> lat = load.OkLatencyMs();
  const int64_t nlat = static_cast<int64_t>(lat.size());
  std::vector<TimedOp> ops;
  for (size_t i = 0; i < load.requests.size(); ++i) {
    const RequestRecord& r = load.requests[i];
    const bool ok = r.done_s >= 0 && (r.verdict == Verdict::kCorrect ||
                                      r.verdict == Verdict::kWrong);
    const double next_s = i + 1 < load.requests.size()
                              ? load.requests[i + 1].sched_s
                              : load.span_s;
    ops.push_back({r.sched_s, ok, ok ? Ms(r.done_s - r.sched_s) : 0.0,
                   r.done_s >= 0 && r.verdict == Verdict::kCorrect,
                   w.closed_loop ? next_s - r.sched_s : 0.0});
  }
  const WindowSummary ws = SummarizeWindows(ops, load.span_s, kWindows);
  AddWindowNote(ws, &outcome);
  ClosedLoopSummary closed{ws.p50_ms, ws.good_per_s};
  if (w.closed_loop) {
    closed = SummarizeClosedLoop(ops, load.span_s, ClosedWindows(load.span_s));
    AddClosedLoopNote(closed, ws, &outcome);
  }
  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setups), "s", kSetupRepeats);
    report.Add("latency_p50_ms", closed.p50_ms, "ms", ws.samples);
    report.Add("images_per_s", closed.cycle_per_s, "1/s", outcome.attempted);
    report.Add("map50", served_map50, "ratio", val_count);
    report.Add("peak_rss_mb", rss.peak, "MB", 1);
    PrintResult(args, hash, report, outcome);
    return 0;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<const Image*> sample_images;
  std::vector<const std::vector<Detection>*> sample_refs;
  for (size_t i = 0; i < pool.size() && i < 64; ++i) {
    sample_images.push_back(&pool[i].image);
    sample_refs.push_back(&refs[i]);
  }
  AddStandalone(MeasureStandalone(sample_images, sample_refs,
                                  ref_det->network().exec_plan(), net_size),
                &report);
  const ServeMeans sm = AddServeMetrics(c0, c1, load.span_s, &report);
  AddModelMetrics(ref_det->network(), sm.pre_ms, sm.forward_ms, sm.post_ms,
                  sm.forward_per_image_ms, sm.batches, sm.images, refs, times,
                  &report);
  report.Add("net.overhead_ms", Mean(lat) - sm.e2e_ms, "ms", nlat);
  report.Add("net.gen_late_p99_ms", late.value, "ms", late.samples);
  report.Add("client.latency_p99_ms", ws.p99_ms, "ms", ws.samples);
  report.Add("client.error_rate", error_rate, "ratio", outcome.attempted);
  report.Add("client.goodput_rps", goodput, "1/s", outcome.attempted);

  // Traced load: the same workload with spans recorded around every
  // call; its p50 against the untraced phase above is the overhead.
  SpanLog spans;
  WaitIdle(stack->model);
  LoadResult traced =
      w.closed_loop
          ? RunClosedLoop(port, pool, refs, args.seed + 1, load_seconds,
                          &spans, &rss)
          : RunOpenLoop(port, &pool, refs, schedule, w.conns, load_seconds,
                        &spans, &rss);
  WaitIdle(stack->model);
  const double p50_untraced = Median(lat);
  const double p50_traced = Median(traced.OkLatencyMs());
  report.Add("trace.overhead_share",
             p50_untraced > 0 ? p50_traced / p50_untraced - 1.0 : 0.0, "ratio",
             static_cast<int64_t>(traced.requests.size()));
  if (traced.Count(Verdict::kWrong) > 0) outcome.correct = false;

  // Decomposition replay on a sample of the pool.
  const double accounted_ms =
      RunReplay(stack.get(), sample_images, sample_refs, &spans,
                static_cast<int64_t>(traced.requests.size()), &report);
  const double share = p50_untraced > 0 ? accounted_ms / p50_untraced : 0.0;
  report.Add("replay.accounted_share", share, "ratio",
             static_cast<int64_t>(sample_images.size()));
  std::snprintf(buf, sizeof(buf),
                "replay self times sum to %.3f ms = %.3f of the load p50 "
                "%.3f ms (tolerance +-%.2f; %s)",
                accounted_ms, share, p50_untraced, kAccountTolerance,
                !w.closed_loop ? "open loop: queueing is not replayed"
                : std::abs(share - 1.0) <= kAccountTolerance ? "within"
                                                              : "OUTSIDE");
  outcome.notes.push_back(buf);
  if (!args.spans_out.empty() && !spans.WriteJsonl(args.spans_out)) {
    outcome.notes.push_back("could not write " + args.spans_out);
  }
  PrintResult(args, hash, report, outcome);
  return 0;
}

int RunEval(const Args& args) {
  unsetenv("THALI_INT8");  // Table I runs the fp32 plan
  InputHash hash;
  hash.AddU64(args.seed);
  const std::string cfg = thali::bench::StandardCfg();
  StandardInputs std_in = LoadStandardInputs(&hash);
  const std::vector<int> val = std_in.dataset->val_indices();
  std::vector<Image> images;
  std::vector<std::vector<thali::TruthBox>> truths;
  for (int idx : val) {
    images.push_back(std_in.dataset->item(idx).image);
    truths.push_back(std_in.dataset->item(idx).truths);
  }
  const int n = static_cast<int>(images.size());
  FreeDataset(&std_in);

  std::vector<double> setups;
  std::unique_ptr<Detector> det;
  for (int i = 0; i < kEvalSetupRepeats; ++i) {
    det.reset();
    const double t0 = Now();
    auto d = Detector::FromFiles(cfg, args.weights);
    THALI_CHECK(d.ok()) << d.status().ToString();
    det = std::make_unique<Detector>(std::move(d).value());
    setups.push_back(Now() - t0);
  }
  // References: per-image Detect. DetectBatch(8) must match them bitwise
  // before anything is timed.
  std::vector<std::vector<Detection>> refs;
  for (const Image& img : images) refs.push_back(det->Detect(img, kEvalConf, kNms));
  Outcome outcome;
  for (int s = 0; s < n; s += kEvalBatch) {
    const int m = std::min(kEvalBatch, n - s);
    const auto got = det->DetectBatch(
        std::span<const Image>(images).subspan(s, m), kEvalConf, kNms);
    for (int b = 0; b < m; ++b) {
      if (!SameDetections(got[b], refs[s + b])) outcome.correct = false;
    }
  }
  if (!outcome.correct) {
    outcome.notes.push_back("DetectBatch(8) differs from per-image Detect");
  }

  // Timed passes over the val split in seeded order.
  thali::Rng rng(args.seed);
  std::vector<int> order(n);
  std::vector<Image> batch;
  std::vector<double> lat_ms, pre, fwd, post, turnaround;
  std::vector<TimedOp> batch_ops;
  std::vector<std::vector<Detection>> served(n);
  int64_t images_done = 0, wrong = 0, in_limit = 0;
  RssPeak rss;
  rss.Sample();
  const double start = Now();
  double prev_done = start;
  bool first_pass = true;
  while (Now() - start < args.seconds) {
    for (int i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(order);
    // Later passes continue the same seeded stream, so the first order
    // fingerprints them all (how many passes fit depends on speed).
    if (first_pass) {
      for (int i : order) hash.AddU64(static_cast<uint64_t>(i));
      first_pass = false;
    }
    for (int s = 0; s < n && Now() - start < args.seconds; s += kEvalBatch) {
      const int m = std::min(kEvalBatch, n - s);
      batch.clear();
      for (int b = 0; b < m; ++b) batch.push_back(images[order[s + b]]);
      const double t0 = Now();
      turnaround.push_back(Ms(t0 - prev_done));
      const auto got = det->DetectBatch(batch, kEvalConf, kNms);
      const double t1 = Now();
      const Detector::StageTimes& st = det->last_stage_times();
      lat_ms.push_back(Ms(t1 - t0));
      pre.push_back(st.preprocess_ms);
      fwd.push_back(st.forward_ms);
      post.push_back(st.postprocess_ms);
      int64_t good = 0;
      for (int b = 0; b < m; ++b) {
        const int idx = order[s + b];
        if (SameDetections(got[b], refs[idx])) {
          ++good;
        } else {
          ++wrong;
        }
        served[idx] = got[b];
      }
      batch_ops.push_back({t0 - start, true, Ms(t1 - t0), good});
      images_done += m;
      if (Ms(t1 - t0) <= kDeadlineMs) in_limit += m;
      prev_done = Now();
      rss.MaybeSample();
    }
  }
  const double elapsed = Now() - start;
  rss.Sample();
  for (int i = 0; i < n; ++i) {
    if (served[i].empty() && !refs[i].empty()) served[i] = refs[i];
  }
  outcome.attempted = images_done;
  outcome.failed = wrong;
  if (wrong > 0) outcome.correct = false;
  char buf[256];
  const double error_rate =
      static_cast<double>(wrong) /
      static_cast<double>(std::max<int64_t>(1, images_done));
  const double goodput = static_cast<double>(in_limit) / elapsed;
  std::snprintf(buf, sizeof(buf), "outcomes: %lld images, %lld wrong; "
                "error_rate %.6f, goodput_rps %.3f",
                static_cast<long long>(images_done),
                static_cast<long long>(wrong), error_rate, goodput);
  outcome.notes.push_back(buf);

  const int64_t nlat = static_cast<int64_t>(lat_ms.size());
  for (size_t i = 0; i < batch_ops.size(); ++i) {
    batch_ops[i].cycle_s =
        (i + 1 < batch_ops.size() ? batch_ops[i + 1].t_s : elapsed) -
        batch_ops[i].t_s;
  }
  const WindowSummary ws = SummarizeWindows(batch_ops, elapsed, kWindows);
  AddWindowNote(ws, &outcome);
  const ClosedLoopSummary closed =
      SummarizeClosedLoop(batch_ops, elapsed, ClosedWindows(elapsed));
  AddClosedLoopNote(closed, ws, &outcome);
  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setups), "s", kEvalSetupRepeats);
    report.Add("latency_p50_ms", closed.p50_ms, "ms", ws.samples);
    report.Add("images_per_s", closed.cycle_per_s, "1/s", images_done);
    report.Add("map50", MapOf(served, truths), "ratio", n);
    report.Add("peak_rss_mb", rss.peak, "MB", 1);
    PrintResult(args, hash, report, outcome);
    return 0;
  }

  // ---- traced run ----
  const double fwd_per_image =
      Mean(fwd) * static_cast<double>(fwd.size()) /
      static_cast<double>(std::max<int64_t>(1, images_done));

  // The served stack sees the val split only in the decomposition
  // replay; net/serve layers do no work in the timed eval loop itself.
  setenv("THALI_INT8", "1", 1);
  InputHash replay_hash;  // the calibration images are already hashed
  std_in = LoadStandardInputs(&replay_hash);
  SetupTimes times;
  double setup_s = 0.0;
  auto stack = BuildStack(cfg, args.weights, *std_in.dataset,
                          std_in.calib_indices, &times, &setup_s);
  auto ref_det = BuildServedDetector(cfg, args.weights, *std_in.dataset,
                                     std_in.calib_indices, nullptr);
  THALI_CHECK(ref_det.ok());
  FreeDataset(&std_in);
  std::vector<std::vector<Detection>> served_refs;
  std::vector<const Image*> sample_images;
  for (int i = 0; i < n && i < 64; ++i) {
    sample_images.push_back(&images[i]);
    served_refs.push_back(ref_det->Detect(images[i]));
  }
  std::vector<const std::vector<Detection>*> sample_refs, eval_refs;
  for (size_t i = 0; i < sample_images.size(); ++i) {
    sample_refs.push_back(&served_refs[i]);
    eval_refs.push_back(&refs[i]);
  }
  AddStandalone(MeasureStandalone(sample_images, eval_refs,
                                  det->network().exec_plan(),
                                  det->network().input_width()),
                &report);

  SpanLog spans;
  // Traced eval pass: one span per DetectBatch with its stage children.
  const double t_traced = Now();
  std::vector<double> traced_lat;
  for (int s = 0; s < n; s += kEvalBatch) {
    const int m = std::min(kEvalBatch, n - s);
    const double t0 = Now();
    det->DetectBatch(std::span<const Image>(images).subspan(s, m), kEvalConf,
                     kNms);
    const double t1 = Now();
    traced_lat.push_back(Ms(t1 - t0));
    const Detector::StageTimes& st = det->last_stage_times();
    const double base = (t0 - t_traced) * 1e6;
    const int64_t root = spans.Add(s / kEvalBatch, -1, "detect_batch", base,
                                   (t1 - t0) * 1e6);
    spans.Add(s / kEvalBatch, root, "pre", base, st.preprocess_ms * 1e3);
    spans.Add(s / kEvalBatch, root, "forward", base + st.preprocess_ms * 1e3,
              st.forward_ms * 1e3);
    spans.Add(s / kEvalBatch, root, "post",
              base + (st.preprocess_ms + st.forward_ms) * 1e3,
              st.postprocess_ms * 1e3);
  }
  const double traced_p50 = Median(traced_lat);
  const Counters c0 = ReadCounters(*stack);
  const double replay_start = Now();
  const int64_t first_replay = (n + kEvalBatch - 1) / kEvalBatch;
  const double accounted_ms = RunReplay(stack.get(), sample_images,
                                        sample_refs, &spans, first_replay,
                                        &report);
  std::vector<double> replay_roots;
  for (const Span& sp : spans.spans()) {
    if (sp.request >= first_replay && sp.parent < 0) {
      replay_roots.push_back(sp.dur_us / 1e3);
    }
  }
  AddServeMetrics(c0, ReadCounters(*stack), Now() - replay_start, &report);
  AddModelMetrics(det->network(), Mean(pre), Mean(fwd), Mean(post),
                  fwd_per_image, nlat, images_done, refs, times, &report);
  // No wire in the eval loop: DetectBatch wall time minus its stages.
  report.Add("net.overhead_ms",
             Mean(lat_ms) - Mean(pre) - Mean(fwd) - Mean(post), "ms", nlat);
  report.Add("net.gen_late_p99_ms", TailPercentile(turnaround, 99).value, "ms",
             static_cast<int64_t>(turnaround.size()));
  report.Add("client.latency_p99_ms", ws.p99_ms, "ms", ws.samples);
  report.Add("client.error_rate", error_rate, "ratio", images_done);
  report.Add("client.goodput_rps", goodput, "1/s", images_done);
  const double p50 = Median(lat_ms);
  report.Add("trace.overhead_share", p50 > 0 ? traced_p50 / p50 - 1.0 : 0.0,
             "ratio", static_cast<int64_t>(traced_lat.size()));
  // No load p50 to account for in process: the replay is checked
  // against its own socket round trips.
  report.Add("replay.accounted_share", accounted_ms / Median(replay_roots),
             "ratio", static_cast<int64_t>(replay_roots.size()));
  if (!args.spans_out.empty() && !spans.WriteJsonl(args.spans_out)) {
    outcome.notes.push_back("could not write " + args.spans_out);
  }
  PrintResult(args, hash, report, outcome);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args->workload = v;
    } else if (k == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args->trace = v == "1";
    } else if (k == "--weights") {
      args->weights = v;
    } else if (k == "--spans-out") {
      args->spans_out = v;
    } else if (k == "--git-sha") {
      args->git_sha = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->weights.empty() &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.startup_env = StartupThaliEnv();
  // Every workload runs the library single-threaded per caller: the
  // served stack's parallelism is its 2 workers, and fork-join regions on
  // a shared 4-vCPU host wait for their slowest preempted thread.
  setenv("THALI_NUM_THREADS", "1", 1);
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: thali_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --weights PATH [--spans-out PATH] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload != w.name) continue;
    return w.served ? RunServed(w, args) : RunEval(args);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
