#include "probe_trainer.hpp"

#include <cmath>

#include "spans.hpp"

namespace sbbench {

using namespace shrinkbench;

namespace {

AdamOptions adam_options(const TrainOptions& opts) {
  AdamOptions adam;
  adam.lr = opts.lr;
  adam.weight_decay = opts.weight_decay;
  return adam;
}

}  // namespace

ProbeTrainer::ProbeTrainer(Sequential& model, const Dataset& train, const TrainOptions& opts,
                           uint64_t loader_seed,
                           const std::function<std::string(const std::string& child)>& span_of)
    : model_(model),
      optimizer_(parameters_of(model), adam_options(opts)),
      loader_(train, opts.batch_size, /*shuffle=*/true, loader_seed),
      grad_check_every_(opts.grad_check_every) {
  for (size_t i = 0; i < model.size(); ++i) {
    const std::string name = span_of(model[i].name());
    fwd_.push_back("nn.fwd." + name);
    bwd_.push_back("nn.bwd." + name);
  }
}

bool ProbeTrainer::step() {
  {
    spans::Span span("data.loader");
    if (!loader_.next(batch_)) {
      loader_.reset();
      loader_.next(batch_);
    }
  }
  {
    spans::Span span("nn.optimizer");
    optimizer_.zero_grad();
  }
  Tensor h = batch_.x;
  for (size_t i = 0; i < model_.size(); ++i) {
    spans::Span span(fwd_[i].c_str());
    h = model_[i].forward(h, /*train=*/true);
  }
  Tensor g;
  bool finite = true;
  {
    spans::Span span("nn.loss");
    finite = std::isfinite(loss_.forward(h, batch_.y));
    g = loss_.backward();
  }
  for (size_t i = model_.size(); i-- > 0;) {
    spans::Span span(bwd_[i].c_str());
    g = model_[i].backward(g);
  }
  spans::Span span("nn.optimizer");
  if (grad_check_every_ > 0 && steps_ % grad_check_every_ == 0) {
    finite = finite && optimizer_.grads_finite();
  }
  optimizer_.step();
  ++steps_;
  return finite;
}

}  // namespace sbbench
