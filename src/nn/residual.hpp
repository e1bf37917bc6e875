// Residual block: y = relu(main(x) + shortcut(x)).
//
// main is conv-bn-relu-conv-bn (built by src/models); shortcut is identity
// or a projection (1x1 strided conv + bn) when shape changes. This is the
// He et al. (2016a) "v1" basic block — the paper's Section 5.1 points out
// that "ResNet-56" is ambiguous between v1 and v2; we implement v1 and say
// so, which is exactly the disambiguation the paper asks authors for.
#pragma once

#include "nn/sequential.hpp"

namespace shrinkbench {

class ResidualBlock : public Layer {
 public:
  /// shortcut may be null (identity). final_relu=true gives the v1 block
  /// (He et al. 2016a); false gives the pre-activation v2 residual sum
  /// (He et al. 2016b), where activations live inside the main path.
  ResidualBlock(std::string name, std::unique_ptr<Sequential> main,
                std::unique_ptr<Sequential> shortcut, bool final_relu = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  std::vector<Layer*> children() override;
  Shape output_sample_shape(const Shape& in) const override;
  int64_t flops(const Shape& in) const override;
  int64_t effective_flops(const Shape& in) const override;

  void set_forward_hook(ForwardHook hook) override {
    main_->set_forward_hook(hook);
    if (shortcut_) shortcut_->set_forward_hook(hook);
  }

  /// Structural accessors for compilers that re-emit the block (serve).
  Sequential* main() { return main_.get(); }
  Sequential* shortcut() { return shortcut_.get(); }  // null => identity
  bool final_relu() const { return final_relu_; }

 private:
  std::unique_ptr<Sequential> main_;
  std::unique_ptr<Sequential> shortcut_;  // null => identity
  bool final_relu_;
  Tensor cached_sum_;                     // pre-ReLU sum, for ReLU backward
};

}  // namespace shrinkbench
