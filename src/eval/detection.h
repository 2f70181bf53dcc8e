#ifndef THALI_EVAL_DETECTION_H_
#define THALI_EVAL_DETECTION_H_

#include <string>
#include <vector>

#include "eval/box.h"

namespace thali {

// One predicted object: a box, a class id, and a confidence score
// (objectness x class probability, as YOLO reports it).
struct Detection {
  Box box;
  int class_id = -1;
  float confidence = 0.0f;

  std::string ToString() const;
};

// One ground-truth object (a labelled dish).
struct GroundTruth {
  Box box;
  int class_id = -1;
};

// All predictions/labels for one evaluation image, keyed by an image id so
// the matcher never pairs detections with another image's truths.
struct ImageEval {
  int image_id = 0;
  std::vector<Detection> detections;
  std::vector<GroundTruth> truths;
};

// Non-maximum suppression: sorts by confidence descending and greedily
// suppresses same-class boxes whose IoU with a kept box exceeds
// `iou_threshold`. Returns the surviving detections, still sorted.
//
// Runs the fast variant (cached areas, per-class index buckets,
// alive-list compaction), which returns exactly the kept set of the seed
// all-pairs implementation, internal::NmsReference.
std::vector<Detection> Nms(std::vector<Detection> dets, float iou_threshold);

// Class-agnostic variant (suppresses across classes); not used by the
// paper pipeline but exposed for the baseline detector.
std::vector<Detection> NmsClassAgnostic(std::vector<Detection> dets,
                                        float iou_threshold);

namespace internal {

// The seed all-pairs NMS: the oracle the equivalence property tests
// compare Nms (class_aware) and NmsClassAgnostic against.
std::vector<Detection> NmsReference(std::vector<Detection> dets,
                                    float iou_threshold, bool class_aware);

}  // namespace internal

}  // namespace thali

#endif  // THALI_EVAL_DETECTION_H_
