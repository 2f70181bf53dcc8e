#ifndef THALI_SERVE_BATCHER_H_
#define THALI_SERVE_BATCHER_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "base/statusor.h"
#include "eval/detection.h"
#include "image/image.h"
#include "serve/lane_queue.h"
#include "serve/metrics.h"

namespace thali {
namespace serve {

using ServeClock = std::chrono::steady_clock;

// One in-flight detection request. The promise is fulfilled exactly once,
// with either the detections for `image` or an error status
// (kDeadlineExceeded when the deadline passed while the request waited in
// the queue).
struct Request {
  Image image;
  ServeClock::time_point submit_time;
  // time_point::max() means no deadline.
  ServeClock::time_point deadline = ServeClock::time_point::max();
  Priority priority = Priority::kInteractive;
  std::promise<StatusOr<std::vector<Detection>>> promise;
  std::function<void()> on_done;  // run once promise is set (Submit)
};

using RequestPtr = std::unique_ptr<Request>;
// Two bounded lanes (interactive / batch); plain Submit lands on the
// interactive lane, so single-class callers see one bounded FIFO.
using RequestQueue = LaneQueue<RequestPtr>;

// Dynamic micro-batcher: pulls requests off a shared queue and groups them
// into batches of at most `max_batch_size`. After the first request it
// waits up to `max_linger` for stragglers, but only while every other
// consumer of the queue is busy: once the queue is empty and a peer is
// idle in Pop, that peer would serve the next request at once, so the
// batch closes immediately (work-conserving). A lone worker has no peer,
// so its underfull batches wait out the whole linger. Requests whose
// deadline already passed are completed with kDeadlineExceeded at pop time
// and never occupy a batch slot, so an expired request costs no network
// time.
//
// Stateless between batches: several workers may run NextBatch on the same
// queue concurrently, each forming its own batches (the queue is the only
// shared state).
class Batcher {
 public:
  struct Options {
    int max_batch_size = 8;
    // Upper bound on the straggler wait; reached only while no peer
    // worker is idle.
    std::chrono::microseconds max_linger{2000};
  };

  // `queue` and `metrics` must outlive the batcher. Records queue-wait
  // latency and batch-size metrics as batches form; counts expired
  // requests under `timed_out`.
  Batcher(RequestQueue* queue, Options options, ServerMetrics* metrics);

  // Blocks until it can return a non-empty batch (true) or the queue is
  // closed and fully drained (false). The batch closes when it is full,
  // when `max_linger` has passed since its first request, or when the
  // queue is empty while a peer is idle. On a closed queue the linger
  // wait is skipped: whatever is left drains in max_batch_size groups
  // immediately.
  bool NextBatch(std::vector<RequestPtr>* batch);

  const Options& options() const { return options_; }

 private:
  // If `req`'s deadline has passed, completes it with kDeadlineExceeded
  // (recording metrics) and returns true.
  bool ExpireIfLate(RequestPtr* req, ServeClock::time_point now);

  RequestQueue* queue_;
  Options options_;
  ServerMetrics* metrics_;
};

}  // namespace serve
}  // namespace thali

#endif  // THALI_SERVE_BATCHER_H_
