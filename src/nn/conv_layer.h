#ifndef THALI_NN_CONV_LAYER_H_
#define THALI_NN_CONV_LAYER_H_

#include <functional>
#include <vector>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/qtensor.h"

namespace thali {

// 2-d convolution with optional fused batch normalization and activation —
// Darknet's `[convolutional]` layer. Weight layout is
// (out_channels, in_channels, ksize, ksize); the reference computation is
// im2col + GEMM. Under a fused inference plan (nn/exec_plan.h) Forward
// runs the one kernel plan().conv_algo names — a direct whole-batch GEMM
// for 1x1 convs, Winograd F(2x2,3x3) for stride-1 3x3 convs, the int8
// kernels for armed convs — and reads/writes either NCHW or the blocked
// CNHW layout through GEMM strides.
//
// With batch_normalize, the layer carries scales (gamma), biases (beta)
// and rolling mean/variance exactly like Darknet, so the serialized
// parameter order matches the .weights format.
class ConvLayer : public Layer {
 public:
  struct Options {
    int filters = 1;
    int ksize = 3;
    int stride = 1;
    int pad = 1;  // symmetric zero padding in pixels
    bool batch_normalize = false;
    Activation activation = Activation::kLeaky;
  };

  explicit ConvLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "convolutional"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  Status Rebatch(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;
  std::vector<Param> Params() override;
  std::vector<ConstParam> Params() const override;
  int64_t WorkspaceSize() const override;

  // Precomputes the int8 byte-workspace section offsets for the current
  // plan/shapes (quant algos only), once per plan push. When the plan
  // changes the conv algorithm, the weight copy of the old algorithm is
  // dropped and the pack marked dirty.
  void OnPlanUpdated() override;

  // Derives the one weight copy plan().conv_algo runs from: int8 rows
  // and column sums for the quantized algos, the Winograd U panels for
  // kWinograd, GEMM A panels otherwise. No-op for training networks and
  // while the pack is current.
  void PrepackWeights() override;

  // Invalidates the packed copy after any mutation of weights_ (weight
  // loading, optimizer steps, batch-norm folding); the next inference
  // Forward re-packs.
  void MarkWeightsDirty() { packed_dirty_ = true; }

  // Bytes held by the pre-packed fp32 weight copy, GEMM A panels or
  // Winograd U panels (0 when not packed, or under a quantized algo).
  int64_t packed_weight_bytes() const {
    return (packed_weights_.size() + wino_packed_.size()) *
           static_cast<int64_t>(sizeof(float));
  }

  // Bytes held by the quantized int8 weight copy (0 unless the layer's
  // plan runs a quantized algo and its weights are packed).
  int64_t int8_weight_bytes() const { return qweights_.q.bytes(); }

  // --- int8 activation calibration (int8-eligible convs only) ---
  //
  // The quantized kernels need the input activation range of each int8
  // conv. CalibrateInt8Ranges collects it by running fp32 forwards with
  // net.calib_phase() set (kRange then optionally kHist) and then
  // calling FinalizeCalibration; a persisted calibration instead lands
  // directly in SetActivationRange. A range arms the conv only once the
  // plan is recompiled (Network::ReplanInference): the compiler gives
  // an eligible conv its quantized algo when it has a range and folded
  // batch norm, and the fp32 algo of its geometry otherwise.

  // Installs the input range and derives (scale, zero point) per
  // tensor/gemm_int8.h.
  void SetActivationRange(float range_min, float range_max);
  bool has_activation_range() const { return has_act_range_; }
  float activation_range_min() const { return act_in_min_; }
  float activation_range_max() const { return act_in_max_; }

  // Clears accumulated calibration statistics (and the installed range).
  void ResetCalibration();

  // Converts accumulated statistics into an activation range:
  // percentile == 100 keeps the observed min/max; otherwise the
  // histogram pass's tails are trimmed so each holds at most
  // (100 - percentile)/2 percent of the observed values.
  void FinalizeCalibration(double percentile);

  const Options& options() const { return opts_; }

  // He-style initialization scaled for the fan-in, matching Darknet's
  // scale = sqrt(2/(k*k*c)).
  void InitWeights(Rng& rng);

  // Direct parameter access for the serializer.
  Tensor& weights() { return weights_; }
  Tensor& biases() { return biases_; }
  Tensor& scales() { return scales_; }
  Tensor& rolling_mean() { return rolling_mean_; }
  Tensor& rolling_var() { return rolling_var_; }

  // Folds batch-norm parameters into weights/biases for faster inference
  // (w' = w*gamma/sqrt(var+eps), b' = beta - gamma*mean/sqrt(var+eps)).
  // Irreversible; the layer afterwards behaves as batch_normalize=false.
  // Only valid on a layer that will no longer be trained.
  void FoldBatchNorm();

 private:
  // 1x1/stride-1/pad-0 convs need no im2col: the input planes already
  // form the col matrix.
  bool IsDirect1x1() const;

  // Returns the col matrix for one image: the input itself (1x1 fast
  // path, only valid for a contiguous NCHW item) or `ws` after an
  // im2col with the given channel-plane stride into it.
  const float* PrepareCol(const float* in, int64_t chan_stride,
                          float* ws) const;

  // Float offsets of batch item b's first channel plane (b * item) and
  // between its channel planes (chan), per side of the compiled layout.
  struct Strides {
    int64_t in_item, in_chan, out_item, out_chan;
  };
  Strides LayoutStrides() const;

  // One kernel per ConvAlgo, writing the conv output to `raw`. `epi` is
  // the fused bias/activation write-back (null: none); the int8 kernels
  // requantize through its int8 form.
  void ForwardIm2col(const Tensor& input, Tensor& raw, Network& net,
                     bool train, const GemmEpilogue* epi);
  void ForwardDirect1x1(const Tensor& input, Tensor& raw, Network& net,
                        const GemmEpilogue* epi);
  void ForwardWinograd(const Tensor& input, Tensor& raw, Network& net);
  void ForwardInt8(const Tensor& input, Tensor& raw, Network& net,
                   const GemmEpilogue& epi);
  void ForwardInt8Direct1x1(const Tensor& input, Tensor& raw, Network& net,
                            const GemmEpilogue& epi);

  // The int8 kernels' requantize epilogue: input domain, weight scales,
  // `epi`'s bias and activation, and the u8 output block of a chained
  // output. Aborts when the conv is not armed (stale plan).
  Int8Epilogue Int8EpilogueFor(Network& net, const GemmEpilogue& epi) const;

  void BatchNormForward(bool train);
  void BatchNormBackward();

  // Records input statistics for the active calibration phase (min/max
  // under kRange, histogram under kHist).
  void ObserveCalibration(const Tensor& input, CalibPhase phase);

  // Sizes the activation-shaped caches for the current out_shape_ and
  // mode (inference layers keep none); shared by Configure and Rebatch.
  void SizeActivationCaches();

  Options opts_;
  int64_t out_h_ = 0;
  int64_t out_w_ = 0;
  int64_t in_c_ = 0;

  Tensor weights_, weight_grads_;
  Tensor packed_weights_;      // microkernel panel layout (inference only)
  QTensor qweights_;           // per-channel int8 rows (kQuantInt8 plans)
  std::vector<int32_t> wcolsum_;  // per-filter quantized-row sums
  Tensor wino_packed_;         // the 16 Winograd U_k = G w G^T matrices
                               // prepacked into GEMM A panels
  bool packed_dirty_ = true;   // weights_ or the algo changed since the
                               // last pack
  ConvAlgo planned_algo_ = ConvAlgo::kIm2col;  // algo of the last plan
  Tensor biases_, bias_grads_;
  // Batch-norm parameters (allocated only when batch_normalize).
  Tensor scales_, scale_grads_;
  Tensor rolling_mean_, rolling_var_;
  Tensor mean_, var_;        // batch statistics cached for backward
  Tensor conv_out_;          // pre-BN conv output cache
  Tensor x_norm_;            // normalized activations cache
  Tensor pre_activation_;    // post-BN/bias, pre-activation cache
  Tensor col_cache_;         // per-item im2col panels cached by Forward
  bool cols_cached_ = false; // whether col_cache_ matches the last Forward
  Tensor wg_scratch_;        // per-item weight-gradient slots (Backward)

  // Byte-section offsets inside the per-strand float workspace of the
  // quantized kernels, laid out exactly as Int8ConvWorkspaceBytes /
  // Int8Direct1x1WorkspaceBytes size them. Derived from the plan once
  // in OnPlanUpdated (Finalize / SetBatch / ReplanInference), never in
  // Forward.
  struct Int8Sections {
    int64_t qin = 0;     // quantized input planes (u8)
    int64_t col = 0;     // u8 im2col panel (kQuantInt8 only)
    int64_t packed = 0;  // packed activation panel
    int64_t acc = 0;     // i32 accumulator tile
    int64_t ws_floats = 0;  // floats to request from net.workspace()
    int64_t gemm_n = 0;     // GEMM width the sections were sized for
    bool whole_batch = false;  // direct-1x1 CNHW both sides: one GEMM
    bool valid = false;
  };
  Int8Sections int8_ws_;

  // int8 activation quantization state (int8-eligible convs).
  bool has_act_range_ = false;
  float act_in_min_ = 0.0f, act_in_max_ = 0.0f;
  float act_in_scale_ = 1.0f;
  int32_t act_in_zp_ = 0;
  // Calibration accumulators (only touched while a phase is active).
  float calib_min_ = 0.0f, calib_max_ = 0.0f;
  bool calib_seen_ = false;
  std::vector<int64_t> calib_hist_;
};

// Calibrates the int8-eligible convs (LayerPlan::int8_eligible) of a
// finalized inference network. Folds batch norm on every conv (the int8
// kernels run on folded weights, so the observed ranges must describe
// them), drops the eligible convs' ranges and replans so every conv runs
// fp32, calls `forward` under CalibPhase::kRange — and again under kHist
// when percentile < 100 — then installs each range with
// FinalizeCalibration(percentile) and replans so the armed convs and
// their quantize-once chains run. `forward` runs the calibration
// forwards (any number of Network::Forward calls). Returns the number of
// convs armed; a network without eligible convs is only folded.
int CalibrateInt8Ranges(Network& net, double percentile,
                        const std::function<void()>& forward);

}  // namespace thali

#endif  // THALI_NN_CONV_LAYER_H_
