#ifndef THALI_NET_PROTOCOL_H_
#define THALI_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "eval/detection.h"
#include "image/image.h"
#include "serve/lane_queue.h"

namespace thali {
namespace net {

// THL1 wire protocol: a length-prefixed binary framing for loopback TCP.
// Every message (request or response) is one frame:
//
//   header (12 bytes, little-endian):
//     u32 magic   'T''H''L''1' (0x314C4854)
//     u16 version (kProtocolVersion; mismatches are rejected)
//     u16 op      (Op below; responses echo the request op)
//     u32 payload_len
//   payload (payload_len bytes, op-specific, little-endian)
//
// Request payloads:
//   kPing:   arbitrary bytes (echoed back verbatim)
//   kDetect: u8  priority (0 interactive, 1 batch)
//            u32 deadline_ms (0 = no deadline)
//            u8  model_len, model_len bytes model id ("" = routed)
//            u16 width, u16 height, u8 channels
//            f32 pixels[channels*height*width]  (planar CHW, as Image)
//   kStats:  empty
//
// Response payloads begin with a status block:
//            u8  status code (thali::StatusCode)
//            u16 message_len, message bytes
// followed on success by the op-specific body:
//   kPing:   the request payload, echoed
//   kDetect: u32 count, then per detection:
//            i32 class_id, f32 confidence, f32 x, f32 y, f32 w, f32 h
//   kStats:  u32 text_len, text bytes (JSON; see ModelRouter::StatsJson)
//
// Floats travel as raw IEEE-754 little-endian bytes, so a loopback
// round-trip is bitwise lossless — the e2e test pins socket-served
// detections bitwise-equal to in-process results.

inline constexpr uint32_t kMagic = 0x314C4854;  // "THL1" little-endian
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 12;
// Upper bound on payload_len; a 608x608x3 float image is ~4.4 MB, so
// 16 MB leaves headroom while still rejecting garbage lengths instantly.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class Op : uint16_t {
  kPing = 1,
  kDetect = 2,
  kStats = 3,
};

struct FrameHeader {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t op = 0;
  uint32_t payload_len = 0;
};

// Little-endian primitive append/read helpers (shared by src/net and its
// tests; the host is assumed little-endian — x86-64 — and the image float
// payloads are memcpy'd).
void AppendU8(std::vector<uint8_t>* buf, uint8_t v);
void AppendU16(std::vector<uint8_t>* buf, uint16_t v);
void AppendU32(std::vector<uint8_t>* buf, uint32_t v);
void AppendF32(std::vector<uint8_t>* buf, float v);
void AppendBytes(std::vector<uint8_t>* buf, const void* data, size_t len);

// Cursor-based reader over one payload; every Read checks bounds and
// returns kCorruption on truncation (a malformed or hostile frame must
// never read past the payload).
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  Status ReadU8(uint8_t* v);
  Status ReadU16(uint16_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadF32(float* v);
  Status ReadBytes(void* out, size_t len);
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------- framing --

// Serializes a complete frame: header + payload.
std::vector<uint8_t> EncodeFrame(Op op, std::span<const uint8_t> payload);

// Parses the 12-byte header; kCorruption on bad magic,
// kUnimplemented on a version mismatch, kResourceExhausted on an
// oversized payload length.
Status ParseHeader(std::span<const uint8_t> bytes, FrameHeader* header);

// Incremental frame reassembly over a byte stream: Feed whatever arrived
// (any split points, including mid-header), then drain complete frames
// with NextFrame. A framing error (bad magic/version/length) is sticky —
// the connection cannot be resynchronized and must be closed.
class FrameReader {
 public:
  // Appends received bytes; returns the first framing error encountered.
  Status Feed(std::span<const uint8_t> bytes);

  // Moves the next complete frame out; false if none is buffered.
  bool NextFrame(FrameHeader* header, std::vector<uint8_t>* payload);

  // True when NextFrame would return a frame.
  bool HasFrame() const;

 private:
  std::vector<uint8_t> buf_;
  Status error_;  // sticky
};

// ------------------------------------------------------------ detect --

struct DetectRequest {
  serve::Priority priority = serve::Priority::kInteractive;
  uint32_t deadline_ms = 0;  // 0 = none
  std::string model_id;      // "" = default route (A/B split applies)
  Image image;
};

// Encodes the request *payload* only (callers frame it with EncodeFrame;
// the response encoders below return complete frames because the server
// writes them to the socket as-is).
std::vector<uint8_t> EncodeDetectRequest(const DetectRequest& req);
Status DecodeDetectRequest(std::span<const uint8_t> payload,
                           DetectRequest* req);

std::vector<uint8_t> EncodeDetectResponse(
    const Status& status, std::span<const Detection> detections);
// On a non-OK wire status, *status holds it and detections is empty.
Status DecodeDetectResponse(std::span<const uint8_t> payload, Status* status,
                            std::vector<Detection>* detections);

// ------------------------------------------------------- ping / stats --

std::vector<uint8_t> EncodePingResponse(std::span<const uint8_t> echo);

std::vector<uint8_t> EncodeStatsResponse(const Status& status,
                                         const std::string& stats_json);
Status DecodeStatsResponse(std::span<const uint8_t> payload, Status* status,
                           std::string* stats_json);

// Error response usable for any op (status block only, no body).
std::vector<uint8_t> EncodeErrorResponse(Op op, const Status& status);

}  // namespace net
}  // namespace thali

#endif  // THALI_NET_PROTOCOL_H_
