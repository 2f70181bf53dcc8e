// Pre/post-processing pipeline benchmark: full batch-1 Detect (image in,
// detections out) on the int8 chained plan, with a stage-level breakdown
// (letterbox / forward / decode+NMS). Emits BENCH_prepost.json.
//
// The acceptance question: after the SIMD letterbox, quantized network
// input, logit-space decode pre-filter and bucketed NMS, is end-to-end
// batch-1 Detect >= 1.3x faster than pre-PR main? Two baselines land in
// the JSON:
//   - reference oracles: the seed letterbox (internal::LetterboxReference)
//     and the seed all-pairs NMS (internal::NmsReference), timed
//     directly against their fast counterparts on the same inputs.
//   - baseline_pre_pr: the recorded pre-PR measurement (methodology at
//     kPrePr below), the number the 1.3x gate compares against.
//
// Uses randomly initialized weights (inference cost is independent of
// weight values), so this bench never needs the trained-model cache.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "base/file_util.h"
#include "base/logging.h"
#include "base/stopwatch.h"
#include "base/string_util.h"
#include "bench_common.h"
#include "core/detector.h"
#include "data/dataset.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "image/image.h"
#include "image/image_prepost.h"
#include "nn/exec_plan.h"
#include "nn/yolo_layer.h"

namespace thali {
namespace {

constexpr int kWarmupIters = 30;
constexpr double kMeasureSeconds = 3.0;

// Pre-PR main (commit 17e2e79) measured on this box with this same
// bench loop (416x416 platter, int8 calibrated, conf 0.25/nms 0.45),
// built in a scratch worktree immediately before the fast-path run so
// both numbers share machine state. Re-measure when porting the bench
// to another machine.
constexpr double kPrePrMeanMs = 7.5771;
constexpr double kPrePrP50Ms = 7.8218;

Image BenchImage(uint64_t seed) {
  // Camera-resolution platter (the deployment shape): letterboxing down
  // to the network input is part of the measured request.
  PlatterRenderer::Options ropts;
  ropts.width = 416;
  ropts.height = 416;
  PlatterRenderer renderer(IndianFood10(), ropts);
  Rng rng(seed);
  return renderer.RenderRandomPlatter(3, rng).image;
}

const FoodDataset& CalibSet() {
  static const FoodDataset* ds = [] {
    DatasetSpec spec;
    spec.num_images = 6;
    return new FoodDataset(FoodDataset::Generate(IndianFood10(), spec));
  }();
  return *ds;
}

Detector MakeInt8Detector(const std::string& cfg) {
  internal::SetInt8ForTesting(1);
  auto det = Detector::FromCfg(cfg, /*seed=*/7);
  internal::SetInt8ForTesting(-1);
  THALI_CHECK(det.ok()) << det.status().ToString();
  const std::vector<int> idx = {0, 1, 2, 3, 4, 5};
  const int armed = det->CalibrateInt8(CalibSet(), idx);
  THALI_CHECK_GT(armed, 0) << "int8 bench armed no conv layers";
  return std::move(det).value();
}

struct DetectBench {
  bench::LatencySummary e2e;
  bench::LatencySummary preprocess;
  bench::LatencySummary forward;
  bench::LatencySummary postprocess;
};

DetectBench MeasureDetect(Detector& det, const Image& img, float conf,
                          float nms) {
  for (int i = 0; i < kWarmupIters; ++i) det.Detect(img, conf, nms);
  std::vector<double> e2e, pre, fwd, post;
  Stopwatch wall;
  while (wall.ElapsedSeconds() < kMeasureSeconds) {
    Stopwatch iter;
    det.Detect(img, conf, nms);
    e2e.push_back(iter.ElapsedMillis());
    const Detector::StageTimes& st = det.last_stage_times();
    pre.push_back(st.preprocess_ms);
    fwd.push_back(st.forward_ms);
    post.push_back(st.postprocess_ms);
  }
  DetectBench b;
  b.e2e = bench::Summarize(e2e);
  b.preprocess = bench::Summarize(pre);
  b.forward = bench::Summarize(fwd);
  b.postprocess = bench::Summarize(post);
  return b;
}

// Times `fn` for one second after the warmup iterations.
template <typename Fn>
bench::LatencySummary MeasureCall(Fn&& fn) {
  for (int i = 0; i < kWarmupIters; ++i) fn();
  std::vector<double> samples;
  Stopwatch wall;
  while (wall.ElapsedSeconds() < 1.0) {
    Stopwatch iter;
    fn();
    samples.push_back(iter.ElapsedMillis());
  }
  return bench::Summarize(samples);
}

// The pre-NMS candidates of the detector's last forward pass.
std::vector<Detection> HeadCandidates(Detector& det, float conf) {
  Network& net = det.network();
  std::vector<Detection> all;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) != "yolo") continue;
    const std::vector<Detection> dets =
        static_cast<YoloLayer&>(net.layer(i))
            .GetDetections(0, conf, net.input_width(), net.input_height());
    all.insert(all.end(), dets.begin(), dets.end());
  }
  return all;
}

std::string SummaryJson(const char* name, const bench::LatencySummary& s) {
  return StrFormat(
      "\"%s\": {\"count\": %lld, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
      "\"p95_ms\": %.4f, \"p99_ms\": %.4f}",
      name, static_cast<long long>(s.count), s.mean_ms, s.p50_ms, s.p95_ms,
      s.p99_ms);
}

void Run() {
  const std::string cfg = bench::StandardCfg();
  Image img = BenchImage(4242);

  Detector det = MakeInt8Detector(cfg);
  const int nw = det.network().input_width();
  const int nh = det.network().input_height();
  const int quantized = det.network().exec_plan().quantized_layers;
  THALI_LOG(Info) << "bench image " << img.width() << "x" << img.height()
                  << " -> net " << nw << "x" << nh << ", quantized layers "
                  << quantized << ", resize kernel " << ResizeKernelName()
                  << ", input_u8 "
                  << (det.network().exec_plan().input_u8 ? 1 : 0);

  const DetectBench fast = MeasureDetect(det, img, 0.25f, 0.45f);
  const DetectBench fast_hi = MeasureDetect(det, img, 0.99f, 0.45f);
  std::vector<float> planes(static_cast<size_t>(3) * nh * nw);
  volatile float sink = 0.0f;
  const bench::LatencySummary letterbox = MeasureCall([&] {
    LetterboxIntoPlanes(img, nw, nh, planes.data());
    sink = sink + planes[0];
  });
  const bench::LatencySummary letterbox_ref = MeasureCall([&] {
    sink = sink + internal::LetterboxReference(img, nw, nh).image.data()[0];
  });

  // NMS over the candidates of one real forward pass at the bench
  // thresholds.
  det.Detect(img, 0.25f, 0.45f);
  const std::vector<Detection> candidates = HeadCandidates(det, 0.25f);
  const bench::LatencySummary nms_fast = MeasureCall(
      [&] { sink = sink + static_cast<float>(Nms(candidates, 0.45f).size()); });
  const bench::LatencySummary nms_ref = MeasureCall([&] {
    sink = sink + static_cast<float>(
                      internal::NmsReference(candidates, 0.45f, true).size());
  });
  (void)sink;

  std::printf("e2e batch-1 Detect (fast): mean %.4f ms  p50 %.4f (n=%lld)\n",
              fast.e2e.mean_ms, fast.e2e.p50_ms,
              static_cast<long long>(fast.e2e.count));
  std::printf("  stages: pre %.4f  forward %.4f  post %.4f ms (mean)\n",
              fast.preprocess.mean_ms, fast.forward.mean_ms,
              fast.postprocess.mean_ms);
  std::printf("e2e conf=0.99 (fast):      mean %.4f ms  p50 %.4f\n",
              fast_hi.e2e.mean_ms, fast_hi.e2e.p50_ms);
  std::printf("letterbox (table-driven):  mean %.4f ms\n", letterbox.mean_ms);
  std::printf("letterbox (reference):     mean %.4f ms\n",
              letterbox_ref.mean_ms);
  std::printf("nms %zu candidates:        fast %.4f ms  reference %.4f ms\n",
              candidates.size(), nms_fast.mean_ms, nms_ref.mean_ms);
  if (kPrePrMeanMs > 0.0) {
    std::printf("pre-PR main:               mean %.4f ms  -> speedup %.2fx\n",
                kPrePrMeanMs, kPrePrMeanMs / fast.e2e.mean_ms);
  }

  std::string json = "{";
  json += StrFormat(
      "\"config\": {\"image\": \"%dx%d\", \"net\": \"%dx%d\", "
      "\"quantized_layers\": %d, \"resize_kernel\": \"%s\", "
      "\"conf_threshold\": 0.25, \"nms_threshold\": 0.45}, ",
      img.width(), img.height(), nw, nh, quantized, ResizeKernelName());
  json += SummaryJson("e2e_detect", fast.e2e) + ", ";
  json += "\"stages\": {";
  json += SummaryJson("letterbox", fast.preprocess) + ", ";
  json += SummaryJson("forward", fast.forward) + ", ";
  json += SummaryJson("decode_nms", fast.postprocess);
  json += "}, ";
  json += SummaryJson("e2e_detect_conf99", fast_hi.e2e) + ", ";
  json += SummaryJson("letterbox_standalone", letterbox) + ", ";
  json += SummaryJson("letterbox_reference", letterbox_ref) + ", ";
  json += StrFormat("\"nms_candidates\": %zu, ", candidates.size());
  json += SummaryJson("nms_fast", nms_fast) + ", ";
  json += SummaryJson("nms_reference", nms_ref) + ", ";
  json += StrFormat(
      "\"baseline_pre_pr\": {\"mean_ms\": %.4f, \"p50_ms\": %.4f, "
      "\"source\": \"commit 17e2e79, same bench loop, scratch worktree on "
      "this box\"}, ",
      kPrePrMeanMs, kPrePrP50Ms);
  json += StrFormat("\"letterbox_speedup_vs_reference\": %.3f, ",
                    letterbox_ref.mean_ms / letterbox.mean_ms);
  json += StrFormat("\"nms_speedup_vs_reference\": %.3f, ",
                    nms_ref.mean_ms / nms_fast.mean_ms);
  json += StrFormat("\"speedup_vs_pre_pr\": %.3f",
                    kPrePrMeanMs > 0.0 ? kPrePrMeanMs / fast.e2e.mean_ms
                                       : 0.0);
  json += "}";
  Status st = WriteStringToFile("BENCH_prepost.json", json + "\n");
  THALI_CHECK(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace thali

int main() {
  thali::Run();
  return 0;
}
