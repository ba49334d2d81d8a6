#ifndef MVG_SERVE_SERVING_H_
#define MVG_SERVE_SERVING_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mvg_classifier.h"
#include "vg/vg_workspace.h"

namespace mvg {

/// Runtime half of the serving subsystem: load a trained model once,
/// answer prediction traffic forever (the ROADMAP's train-once /
/// classify-many deployment shape).
///
/// A session owns the classifier plus one pooled VgWorkspace per worker
/// slot, so batch after batch the feature-extraction graph builds hit
/// zero steady-state heap allocation (the PR-2 pooled-CSR contract). A
/// session is single-client state: concurrent PredictBatch calls on one
/// session must be externally serialized (parallelism belongs *inside* a
/// batch, where the persistent executor pool's ParallelForWorker gives
/// each slot its own workspace). For many concurrent producers, wrap the
/// session in AsyncServingSession (serve/async_serving.h), which
/// micro-batches a bounded queue instead of serializing clients.
class ServingSession {
 public:
  /// Takes ownership of a fitted classifier.
  explicit ServingSession(MvgClassifier model);

  /// Loads a `.mvg` model file (serve/model_io.h) into a fresh session.
  static ServingSession FromFile(const std::string& path);

  /// mmaps a v3 `.mvg` file and builds the session over zero-copy views
  /// into the mapping (LoadModelView): O(1) tree-node construction after
  /// the upfront CRC sweep, and N processes serving the same file share
  /// one physical copy of the model. The session owns the mapping, so the
  /// views stay valid for the session's lifetime; moving the session
  /// moves the mapping with it. Like FromFile, it reads v3 files only.
  static ServingSession FromFileMapped(const std::string& path);

  /// Single-sample prediction through the pooled workspace.
  int Predict(const Series& s);

  /// Labels for `count` series, fanned out over `num_threads` workers
  /// (default: hardware concurrency), each owning one pooled workspace
  /// that persists across calls. Matches MvgClassifier::Predict exactly.
  std::vector<int> PredictBatch(const Series* series, size_t count,
                                size_t num_threads);
  std::vector<int> PredictBatch(const std::vector<Series>& batch);
  std::vector<int> PredictBatch(const std::vector<Series>& batch,
                                size_t num_threads);

  const MvgClassifier& model() const { return model_; }

 private:
  /// Keeps the mmap'd model file (FromFileMapped) alive for as long as
  /// the model's zero-copy views point into it. Declared before model_
  /// so it is destroyed after the views are gone. Null for owned models.
  std::shared_ptr<const void> mapping_;
  MvgClassifier model_;
  std::vector<VgWorkspace> workspaces_;  ///< one per worker, kept warm.
};

/// Online monitoring front end: one fixed-length sliding window per
/// channel, re-classified as samples stream in — the scenario the
/// ecg_monitoring / wearable_gait examples previously simulated by
/// retraining per window.
///
/// Each channel keeps a ring buffer plus a linearization scratch, both
/// sized once at construction, and every classification goes through one
/// shared pooled VgWorkspace, so steady-state Push() performs no window
/// bookkeeping allocations. Non-finite or degenerate samples (NaN, ±inf,
/// all-equal windows) are deliberately forwarded raw: sanitization is
/// MvgFeatureExtractor::Extract's job (the PR-1 path), not duplicated
/// here, so streaming and offline classification of the same window are
/// bit-identical.
class StreamingClassifier {
 public:
  struct Options {
    /// Sliding-window length; defaults (0) to the model's training length.
    size_t window = 0;
    /// Classify every `hop` pushes once the window is full (1 = every
    /// sample, the latency-critical monitoring setting).
    size_t hop = 1;
    /// Independent input channels (e.g. ECG leads, IMU axes).
    size_t num_channels = 1;
  };

  /// `model` must be fitted and must outlive the stream.
  StreamingClassifier(const MvgClassifier* model, Options options);

  /// Appends one sample to `channel`'s window. Returns the predicted
  /// label when this push completed a window on a hop boundary,
  /// std::nullopt otherwise. Throws std::out_of_range on a bad channel.
  std::optional<int> Push(size_t channel, double sample);
  /// Single-channel convenience.
  std::optional<int> Push(double sample) { return Push(0, sample); }

  /// Classifies `channel`'s current window on demand (requires Ready).
  int Classify(size_t channel);

  /// True once `channel` has seen at least `window()` samples.
  bool Ready(size_t channel) const;

  /// Drops `channel`'s buffered samples (capacity is retained).
  void Reset(size_t channel);

  size_t window() const { return options_.window; }
  size_t hop() const { return options_.hop; }
  size_t num_channels() const { return channels_.size(); }

 private:
  struct Channel {
    std::vector<double> ring;  ///< capacity == window, circular.
    size_t head = 0;           ///< next write position.
    size_t count = 0;          ///< samples buffered, saturates at window.
    size_t since_last = 0;     ///< pushes since the last classification.
    Series scratch;            ///< oldest-first linearization, preallocated.
  };

  Channel& At(size_t channel);
  const Channel& At(size_t channel) const;

  const MvgClassifier* model_;
  Options options_;
  std::vector<Channel> channels_;
  VgWorkspace ws_;  ///< shared: a stream is single-threaded state.
};

}  // namespace mvg

#endif  // MVG_SERVE_SERVING_H_
