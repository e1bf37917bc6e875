// Training steps driven by hand, for the per-layer probes of the training
// workloads: the public calls train_model makes for one step, each inside a
// span of the benchmark's own.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/train.hpp"
#include "nn/loss.hpp"

namespace sbbench {

class ProbeTrainer {
 public:
  /// `span_of` names the span around a top-level child of `model`; the
  /// child's forward runs in "nn.fwd.<name>", its backward in
  /// "nn.bwd.<name>". Adam and the loader follow `opts` like train_model.
  ProbeTrainer(shrinkbench::Sequential& model, const shrinkbench::Dataset& train,
               const shrinkbench::TrainOptions& opts, uint64_t loader_seed,
               const std::function<std::string(const std::string& child)>& span_of);

  /// One step: "data.loader" (DataLoader::next, reset at epoch end),
  /// "nn.optimizer" (zero_grad), the children's forwards, "nn.loss"
  /// (forward + backward), the children's backwards in reverse, and
  /// "nn.optimizer" again (the periodic gradient check, Adam::step).
  /// False when the loss or a checked gradient is not finite.
  bool step();

  int64_t batches_per_epoch() const { return loader_.batches_per_epoch(); }
  shrinkbench::OptimizerState optimizer_state() const { return optimizer_.state(); }
  /// Span names of child i.
  const std::string& fwd_span(size_t i) const { return fwd_[i]; }
  const std::string& bwd_span(size_t i) const { return bwd_[i]; }

 private:
  shrinkbench::Sequential& model_;
  shrinkbench::Adam optimizer_;
  shrinkbench::DataLoader loader_;
  shrinkbench::SoftmaxCrossEntropy loss_;
  shrinkbench::Batch batch_;
  int grad_check_every_;
  int64_t steps_ = 0;
  std::vector<std::string> fwd_, bwd_;
};

}  // namespace sbbench
