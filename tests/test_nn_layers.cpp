// Layer-level tests: output shapes, FLOP accounting, and — most
// importantly — numerical gradient checks for every layer type, including
// composed containers (Sequential, ResidualBlock).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "madd.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"

namespace shrinkbench {
namespace {

using testing::gradcheck;

Tensor random_input(Shape shape, uint64_t seed = 1) {
  Rng rng(seed);
  Tensor x(std::move(shape));
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

// Backward must check the gradient against the cached forward's output
// shape and name the layer and both shapes, instead of reading the
// gradient with the forward's geometry.
template <typename L>
void expect_backward_rejects(L& layer, const Tensor& grad, const std::string& got,
                             const std::string& want) {
  try {
    layer.backward(grad);
    ADD_FAILURE() << layer.name() << ": backward accepted grad " << got;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(layer.name()), std::string::npos) << msg;
    EXPECT_NE(msg.find(got), std::string::npos) << msg;
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  }
}

// ---- Linear ----

TEST(Linear, ForwardMatchesManual) {
  Linear fc("fc", 2, 2, true);
  fc.weight().data = Tensor({2, 2}, {1, 2, 3, 4});
  fc.bias()->data = Tensor({2}, {0.5f, -0.5f});
  const Tensor x({1, 2}, {1, 1});
  const Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0), 3.5f);   // 1*1 + 2*1 + 0.5
  EXPECT_FLOAT_EQ(y(0, 1), 6.5f);   // 3 + 4 - 0.5
}

TEST(Linear, GradCheck) {
  Linear fc("fc", 4, 3, true);
  Rng rng(2);
  kaiming_normal(fc.weight().data, rng);
  gradcheck(fc, random_input({5, 4}));
}

TEST(Linear, GradCheckNoBias) {
  Linear fc("fc", 3, 2, false);
  Rng rng(3);
  kaiming_normal(fc.weight().data, rng);
  EXPECT_EQ(fc.bias(), nullptr);
  gradcheck(fc, random_input({2, 3}));
}

TEST(Linear, RejectsBadInput) {
  Linear fc("fc", 4, 3);
  EXPECT_THROW(fc.forward(Tensor({2, 5}), false), std::invalid_argument);
  EXPECT_THROW(fc.backward(Tensor({2, 3})), std::logic_error);
}

TEST(Linear, BackwardRejectsGradOfWrongShape) {
  Linear fc("fc", 3, 2);
  fc.forward(random_input({4, 3}, 31), true);
  expect_backward_rejects(fc, random_input({1, 2}, 32), "[1, 2]", "[4, 2]");
}

TEST(Linear, FlopsAndClassifierFlag) {
  Linear fc("fc", 10, 4, true, /*is_classifier=*/true);
  EXPECT_EQ(fc.flops({10}), 40);
  EXPECT_TRUE(fc.weight().is_classifier);
  EXPECT_TRUE(fc.weight().prunable);
  EXPECT_FALSE(parameters_of(fc)[1]->prunable);  // bias
  fc.weight().mask.zero();
  EXPECT_EQ(fc.effective_flops({10}), 0);
}

TEST(Linear, GeneratedShapesMatchAscendingChainsBitForBit) {
  // The forward (with and without bias), dW (continuing a nonzero grad)
  // and dX against test-local chains: each element from its seed (the
  // bias or +0.0, the grad, +0.0), one multiply-add per term in ascending
  // order, every term multiplied. Batch, in and out features each run
  // through 1..33, so every product meets every remainder of its 8- or
  // 16-lane column vectors and of its row tiles, batch 1 included. Inputs
  // carry -0.0 and +0, weights masked zeros, the bias and grad -0.0.
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.same_shape(b) && std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  Rng rng(2601);
  const auto sprinkle = [&](Tensor& t, double p) {
    rng.fill_normal(t, 0.0f, 1.0f);
    for (float& v : t.flat()) {
      if (rng.bernoulli(p)) v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    }
  };
  for (int64_t t = 0; t < 33; ++t) {
    const int64_t out = 1 + t, in = 1 + (7 * t) % 33, n = 1 + (5 * t) % 33;
    for (const bool bias : {false, true}) {
      Linear fc("fc", in, out, bias);
      sprinkle(fc.weight().data, 0.2);
      sprinkle(fc.weight().grad, 0.2);
      if (bias) sprinkle(fc.bias()->data, 0.2);
      const Tensor grad0 = fc.weight().grad;
      Tensor x({n, in}), dy({n, out});
      sprinkle(x, 0.2);
      sprinkle(dy, 0.1);
      const float* w = fc.weight().data.data();
      Tensor y({n, out}), dw = grad0, dx({n, in});
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t o = 0; o < out; ++o) {
          float acc = bias ? fc.bias()->data.at(o) : 0.0f;
          for (int64_t c = 0; c < in; ++c) acc = testing::madd(acc, x(i, c), w[o * in + c]);
          y(i, o) = acc;
        }
      }
      for (int64_t o = 0; o < out; ++o) {
        for (int64_t c = 0; c < in; ++c) {
          float acc = dw(o, c);
          for (int64_t i = 0; i < n; ++i) acc = testing::madd(acc, dy(i, o), x(i, c));
          dw(o, c) = acc;
        }
      }
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t c = 0; c < in; ++c) {
          float acc = 0.0f;
          for (int64_t o = 0; o < out; ++o) acc = testing::madd(acc, dy(i, o), w[o * in + c]);
          dx(i, c) = acc;
        }
      }
      const std::string at = "batch " + std::to_string(n) + " " + std::to_string(in) + " -> " +
                             std::to_string(out) + (bias ? " with bias" : " without bias");
      EXPECT_TRUE(same_bits(fc.forward(x, /*train=*/true), y)) << "forward at " << at;
      EXPECT_TRUE(same_bits(fc.backward(dy), dx)) << "dX at " << at;
      EXPECT_TRUE(same_bits(fc.weight().grad, dw)) << "dW at " << at;
    }
  }
}

// ---- Conv2d ----

TEST(Conv2d, ForwardIdentityKernel) {
  Conv2d conv("c", 1, 1, 1, 1, 0, false);
  conv.weight().data = Tensor({1, 1, 1, 1}, {2.0f});
  const Tensor x = random_input({1, 1, 4, 4});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_TRUE(ops::allclose(y, ops::scale(x, 2.0f)));
}

TEST(Conv2d, OutputShapeStridePad) {
  Conv2d conv("c", 3, 8, 3, 2, 1, false);
  EXPECT_EQ(conv.output_sample_shape({3, 8, 8}), (Shape{8, 4, 4}));
  const Tensor y = conv.forward(random_input({2, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
}

TEST(Conv2d, GradCheckWithBias) {
  Conv2d conv("c", 2, 3, 3, 1, 1, true);
  Rng rng(4);
  kaiming_normal(conv.weight().data, rng);
  gradcheck(conv, random_input({2, 2, 4, 4}));
}

TEST(Conv2d, GradCheckStride2NoBias) {
  Conv2d conv("c", 2, 2, 3, 2, 1, false);
  Rng rng(5);
  kaiming_normal(conv.weight().data, rng);
  gradcheck(conv, random_input({2, 2, 5, 5}));
}

TEST(Conv2d, GradCheck1x1) {
  Conv2d conv("c", 3, 2, 1, 1, 0, false);
  Rng rng(6);
  kaiming_normal(conv.weight().data, rng);
  gradcheck(conv, random_input({2, 3, 3, 3}));
}

TEST(Conv2d, FlopsCountsSpatialPositions) {
  Conv2d conv("c", 2, 4, 3, 1, 1, false);
  // 8x8 output positions x (4*2*3*3) weights
  EXPECT_EQ(conv.flops({2, 8, 8}), 64 * 72);
  // Masking half the weights halves effective FLOPs.
  for (int64_t i = 0; i < conv.weight().mask.numel() / 2; ++i) conv.weight().mask.at(i) = 0.0f;
  EXPECT_EQ(conv.effective_flops({2, 8, 8}), 64 * 36);
}

TEST(Conv2d, FlopsValidatesSampleShape) {
  // Regression: flops/effective_flops used to index in[1]/in[2] without
  // the shape check output_sample_shape performs, reading out of bounds
  // on malformed shapes.
  Conv2d conv("c", 2, 4, 3, 1, 1, false);
  EXPECT_THROW(conv.flops({}), std::invalid_argument);
  EXPECT_THROW(conv.flops({2, 8}), std::invalid_argument);      // wrong rank
  EXPECT_THROW(conv.flops({3, 8, 8}), std::invalid_argument);   // wrong channels
  EXPECT_THROW(conv.effective_flops({}), std::invalid_argument);
  EXPECT_THROW(conv.effective_flops({2, 8}), std::invalid_argument);
  EXPECT_THROW(conv.effective_flops({3, 8, 8}), std::invalid_argument);
  EXPECT_EQ(conv.flops({2, 8, 8}), 64 * 72);  // valid shapes still work
}

TEST(Conv2d, BackwardRejectsGradOfWrongShape) {
  Conv2d conv("c", 2, 2, 3, 1, 1);
  conv.forward(random_input({4, 2, 4, 4}, 33), true);
  expect_backward_rejects(conv, random_input({1, 2, 4, 4}, 34), "[1, 2, 4, 4]", "[4, 2, 4, 4]");
}

TEST(Conv2d, RejectsWrongChannels) {
  Conv2d conv("c", 3, 4, 3, 1, 1);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false), std::invalid_argument);
}

// ---- BatchNorm ----

TEST(BatchNorm, NormalizesBatchInTraining) {
  BatchNorm2d bn("bn", 3);
  const Tensor x = random_input({4, 3, 5, 5}, 7);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (int64_t c = 0; c < 3; ++c) {
    double s = 0, s2 = 0;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t i = 0; i < 25; ++i) {
        const float v = y.data()[(n * 3 + c) * 25 + i];
        s += v;
        s2 += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(s / 100.0, 0.0, 1e-4);
    EXPECT_NEAR(s2 / 100.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn("bn", 2);
  // Train a few times to populate running stats.
  for (int i = 0; i < 20; ++i) bn.forward(random_input({8, 2, 4, 4}, 100 + i), true);
  const Tensor x = random_input({4, 2, 4, 4}, 55);
  const Tensor y1 = bn.forward(x, false);
  const Tensor y2 = bn.forward(x, false);
  EXPECT_TRUE(ops::allclose(y1, y2));  // eval mode is deterministic/stateless
}

TEST(BatchNorm, GradCheck) {
  BatchNorm2d bn("bn", 2);
  Rng rng(8);
  rng.fill_uniform(parameters_of(bn)[0]->data, 0.5f, 1.5f);  // gamma
  rng.fill_uniform(parameters_of(bn)[1]->data, -0.5f, 0.5f); // beta
  testing::GradCheckOptions opts;
  opts.tolerance = 4e-2f;  // batch statistics amplify finite-difference noise
  gradcheck(bn, random_input({3, 2, 3, 3}, 9), opts);
}

TEST(BatchNorm, BackwardRejectsGradOfWrongShape) {
  BatchNorm2d bn("bn", 2);
  bn.forward(random_input({1, 2, 4, 4}, 35), true);
  expect_backward_rejects(bn, random_input({4, 2, 4, 4}, 36), "[4, 2, 4, 4]", "[1, 2, 4, 4]");
}

TEST(BatchNorm, ParamsNotPrunable) {
  BatchNorm2d bn("bn", 4);
  for (Parameter* p : parameters_of(bn)) EXPECT_FALSE(p->prunable);
}

// ---- Activations / pooling / flatten ----

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu("r");
  const Tensor y = relu.forward(Tensor::of({-1, 0, 2}), false);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
}

TEST(ReLU, GradCheck) {
  ReLU relu("r");
  gradcheck(relu, random_input({3, 7}, 10));
}

TEST(MaxPool, ForwardPicksMaxima) {
  MaxPool2d pool("p", 2, 2);
  Tensor x({1, 1, 2, 2}, {1, 4, 3, 2});
  EXPECT_EQ(pool.forward(x, false).at(0), 4.0f);
  EXPECT_EQ(pool.output_sample_shape({3, 8, 8}), (Shape{3, 4, 4}));
}

TEST(MaxPool, GradCheck) {
  MaxPool2d pool("p", 2, 2);
  gradcheck(pool, random_input({2, 2, 4, 4}, 11));
}

TEST(MaxPool, NanWindowPropagatesAndKeepsGradientInImage) {
  // Image 0 is finite, image 1 is all-NaN. Before the argmax seeding fix
  // an all-NaN window (every `v > best` comparison false) kept
  // best_idx = 0, so image 1's gradient was routed to element 0 of the
  // whole batch tensor — i.e. into image 0.
  MaxPool2d pool("p", 2, 2);
  Tensor x({2, 1, 2, 2}, {1, 2, 3, 4, NAN, NAN, NAN, NAN});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.at(0), 4.0f);
  EXPECT_TRUE(std::isnan(y.at(1)));  // NaN propagates instead of -inf
  const Tensor dy({2, 1, 1, 1}, {0.0f, 7.0f});
  const Tensor dx = pool.backward(dy);
  EXPECT_EQ(dx.at(0), 0.0f);  // no cross-image leakage
  EXPECT_EQ(dx.at(4), 7.0f);  // routed to image 1's own window
}

TEST(MaxPool, AllNegInfWindowKeepsArgmaxInWindow) {
  MaxPool2d pool("p", 2, 2);
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x({1, 1, 4, 2}, {1, 2, 3, 4, -inf, -inf, -inf, -inf});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.at(0), 4.0f);
  EXPECT_EQ(y.at(1), -inf);
  const Tensor dy({1, 1, 2, 1}, {0.0f, 5.0f});
  const Tensor dx = pool.backward(dy);
  EXPECT_EQ(dx.at(0), 0.0f);  // not routed to tensor element 0
  EXPECT_EQ(dx.at(4), 5.0f);  // the -inf window's own first element
}

TEST(MaxPool, GeneratedInputsMatchWindowLoopBitForBit) {
  // Eval and training (argmax) against a test-local window loop: each
  // window seeded from its first element, then `v > best` over the
  // window in row-major order. Inputs sprinkle NaN, +-Inf and -0.0; a
  // NaN that is not a window's first element never wins, one that is
  // sticks, and a -0.0 seed keeps its sign against a later +0.0. Kernel
  // 2 / stride 2 runs the row loop; the other configs run the general one.
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {NAN, inf, -inf, -0.0f, 0.0f};
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.same_shape(b) && std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  Rng rng(2501);
  struct Config {
    int64_t kernel, stride;
  };
  for (const Config cfg : {Config{2, 2}, Config{2, 1}, Config{3, 3}}) {
    for (int draw = 0; draw < 12; ++draw) {
      const int64_t oh = 1 + rng.randint(6), ow = 1 + rng.randint(9);
      const int64_t h = (oh - 1) * cfg.stride + cfg.kernel, w = (ow - 1) * cfg.stride + cfg.kernel;
      const int64_t n = 1 + rng.randint(3), c = 1 + rng.randint(4);
      Tensor x({n, c, h, w});
      rng.fill_normal(x, 0.0f, 1.0f);
      for (float& v : x.flat()) {
        if (rng.bernoulli(0.15)) v = specials[rng.randint(5)];
      }
      // Window 0: a NaN after a finite seed, and a -0.0 seed against +0.0
      // in the first window of the last plane.
      x.at(1) = NAN;
      const int64_t last = (n * c - 1) * h * w;
      x.at(last) = -0.0f;
      for (int64_t ky = 0; ky < cfg.kernel; ++ky) {
        for (int64_t kx = 0; kx < cfg.kernel; ++kx) {
          if (ky + kx > 0) x.at(last + ky * w + kx) = 0.0f;
        }
      }
      Tensor want({n, c, oh, ow});
      std::vector<int64_t> want_at;
      for (int64_t plane = 0; plane < n * c; ++plane) {
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t first = (plane * h + oy * cfg.stride) * w + ox * cfg.stride;
            float best = x.at(first);
            int64_t best_at = first;
            for (int64_t ky = 0; ky < cfg.kernel; ++ky) {
              for (int64_t kx = 0; kx < cfg.kernel; ++kx) {
                const int64_t i = first + ky * w + kx;
                if (x.at(i) > best) {
                  best = x.at(i);
                  best_at = i;
                }
              }
            }
            want.at(static_cast<int64_t>(want_at.size())) = best;
            want_at.push_back(best_at);
          }
        }
      }
      const std::string at = "kernel " + std::to_string(cfg.kernel) + " stride " +
                             std::to_string(cfg.stride) + " input " + to_string(x.shape());
      EXPECT_TRUE(same_bits(max_pool2d("p", x, cfg.kernel, cfg.stride), want)) << at;
      std::vector<int64_t> got_at;
      EXPECT_TRUE(same_bits(max_pool2d("p", x, cfg.kernel, cfg.stride, &got_at), want)) << at;
      EXPECT_EQ(got_at, want_at) << at;
    }
  }
}

TEST(MaxPool, RejectsRaggedTilingAndBadConfig) {
  MaxPool2d pool("p", 2, 2);
  // (5 - 2) % 2 != 0: pooling would silently drop the last input row.
  EXPECT_THROW(pool.forward(random_input({1, 1, 5, 4}), false), std::invalid_argument);
  EXPECT_THROW(pool.output_sample_shape({1, 5, 4}), std::invalid_argument);
  EXPECT_THROW(pool.output_sample_shape({1, 4, 1}), std::invalid_argument);  // w < kernel
  EXPECT_THROW(MaxPool2d("bad", 0, 2), std::invalid_argument);
  EXPECT_THROW(MaxPool2d("bad", 2, 0), std::invalid_argument);
}

TEST(AvgPool, ForwardAverages) {
  AvgPool2d pool("p", 2, 2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  EXPECT_FLOAT_EQ(pool.forward(x, false).at(0), 3.0f);
}

TEST(AvgPool, GradCheck) {
  AvgPool2d pool("p", 2, 2);
  gradcheck(pool, random_input({2, 2, 4, 4}, 12));
}

TEST(AvgPool, RejectsRaggedTiling) {
  AvgPool2d pool("p", 3, 2);
  EXPECT_THROW(pool.forward(random_input({1, 1, 6, 7}), false), std::invalid_argument);
  EXPECT_NO_THROW(pool.forward(random_input({1, 1, 7, 7}), false));
}

// ---- Dropout mask staleness ----

TEST(Dropout, EvalForwardInvalidatesStaleMask) {
  Dropout drop("d", 0.5f);
  const Tensor x = random_input({4, 8}, 21);
  drop.forward(x, true);  // draws a mask
  const Tensor y = drop.forward(x, false);
  EXPECT_TRUE(ops::allclose(y, x, 0.0f, 0.0f));  // eval is the identity
  // Backward now would reuse a mask the eval forward never applied —
  // must throw instead of silently mis-scaling gradients.
  EXPECT_THROW(drop.backward(x), std::logic_error);
}

TEST(Dropout, BackwardRejectsShapeMismatch) {
  Dropout drop("d", 0.5f);
  drop.forward(random_input({4, 8}, 22), true);
  EXPECT_THROW(drop.backward(random_input({2, 8}, 23)), std::logic_error);
  EXPECT_NO_THROW(drop.backward(random_input({4, 8}, 24)));
}

TEST(Dropout, TrainForwardAfterEvalRestoresBackward) {
  Dropout drop("d", 0.5f);
  const Tensor x = random_input({4, 8}, 25);
  drop.forward(x, true);
  drop.forward(x, false);  // invalidates
  drop.forward(x, true);   // fresh mask
  EXPECT_NO_THROW(drop.backward(x));
}

TEST(GlobalAvgPool, ForwardShapeAndGradCheck) {
  GlobalAvgPool gap("g");
  EXPECT_EQ(gap.output_sample_shape({5, 3, 3}), (Shape{5}));
  gradcheck(gap, random_input({2, 3, 3, 3}, 13));
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat("f");
  const Tensor x = random_input({2, 3, 4, 4}, 14);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

// ---- Containers ----

std::unique_ptr<Sequential> small_convnet() {
  auto net = std::make_unique<Sequential>("net");
  net->emplace<Conv2d>("c1", 2, 3, 3, 1, 1, false);
  net->emplace<BatchNorm2d>("b1", 3);
  net->emplace<ReLU>("r1");
  net->emplace<MaxPool2d>("p1", 2, 2);
  net->emplace<Flatten>("f");
  net->emplace<Linear>("fc", 12, 2, true);
  Rng rng(15);
  init_model(*net, rng);
  return net;
}

TEST(Sequential, ShapePropagation) {
  auto net = small_convnet();
  EXPECT_EQ(net->output_sample_shape({2, 4, 4}), (Shape{2}));
  EXPECT_EQ(net->forward(random_input({3, 2, 4, 4}), false).shape(), (Shape{3, 2}));
}

TEST(Sequential, GradCheckComposed) {
  auto net = small_convnet();
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;  // composed batchnorm + pooling
  gradcheck(*net, random_input({3, 2, 4, 4}, 16), opts);
}

TEST(Sequential, CollectsAllParams) {
  auto net = small_convnet();
  const auto params = parameters_of(*net);
  // conv.w, bn.gamma, bn.beta, fc.w, fc.b
  ASSERT_EQ(params.size(), 5u);
  EXPECT_EQ(params[0]->name, "c1.weight");
  EXPECT_EQ(params[3]->name, "fc.weight");
}

TEST(Sequential, FlopsSumOverLayers) {
  auto net = small_convnet();
  // conv: 16 positions * 54 weights; fc: 24
  EXPECT_EQ(net->flops({2, 4, 4}), 16 * 54 + 24);
}

std::unique_ptr<ResidualBlock> make_block(int64_t in_c, int64_t out_c, int64_t stride,
                                          uint64_t seed) {
  auto main = std::make_unique<Sequential>("blk.main");
  main->emplace<Conv2d>("blk.conv1", in_c, out_c, 3, stride, 1, false);
  main->emplace<BatchNorm2d>("blk.bn1", out_c);
  main->emplace<ReLU>("blk.relu1");
  main->emplace<Conv2d>("blk.conv2", out_c, out_c, 3, 1, 1, false);
  main->emplace<BatchNorm2d>("blk.bn2", out_c);
  std::unique_ptr<Sequential> shortcut;
  if (stride != 1 || in_c != out_c) {
    shortcut = std::make_unique<Sequential>("blk.sc");
    shortcut->emplace<Conv2d>("blk.proj", in_c, out_c, 1, stride, 0, false);
    shortcut->emplace<BatchNorm2d>("blk.proj_bn", out_c);
  }
  auto block = std::make_unique<ResidualBlock>("blk", std::move(main), std::move(shortcut));
  Rng rng(seed);
  init_model(*block, rng);
  return block;
}

TEST(ResidualBlock, IdentityShortcutShape) {
  auto block = make_block(3, 3, 1, 17);
  EXPECT_EQ(block->output_sample_shape({3, 4, 4}), (Shape{3, 4, 4}));
  EXPECT_EQ(block->forward(random_input({2, 3, 4, 4}), false).shape(), (Shape{2, 3, 4, 4}));
}

TEST(ResidualBlock, ProjectionShortcutShape) {
  auto block = make_block(2, 4, 2, 18);
  EXPECT_EQ(block->output_sample_shape({2, 4, 4}), (Shape{4, 2, 2}));
}

TEST(ResidualBlock, GradCheckIdentity) {
  auto block = make_block(2, 2, 1, 19);
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;
  gradcheck(*block, random_input({3, 2, 3, 3}, 20), opts);
}

TEST(ResidualBlock, GradCheckProjection) {
  auto block = make_block(2, 3, 2, 21);
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;
  gradcheck(*block, random_input({3, 2, 4, 4}, 22), opts);
}

TEST(ResidualBlock, FlopsIncludeShortcut) {
  auto block = make_block(2, 4, 2, 23);
  // main: conv1 (2x2 out * 4*2*9) + conv2 (2x2 * 4*4*9); shortcut 1x1: 2x2 * 4*2.
  const int64_t expected = 4 * 72 + 4 * 144 + 4 * 8;
  EXPECT_EQ(block->flops({2, 4, 4}), expected);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop("d", 0.5f);
  const Tensor x = random_input({4, 10}, 30);
  EXPECT_TRUE(ops::allclose(drop.forward(x, false), x, 0, 0));
}

TEST(Dropout, TrainZeroesAboutPAndRescales) {
  Dropout drop("d", 0.25f);
  const Tensor x = Tensor::ones({1, 10000});
  const Tensor y = drop.forward(x, true);
  int64_t zeros = 0;
  for (float v : y.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5f);  // inverted scaling
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.02);
  // Expectation preserved.
  EXPECT_NEAR(ops::mean(y), 1.0f, 0.03f);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop("d", 0.5f);
  const Tensor x = random_input({2, 50}, 31);
  const Tensor y = drop.forward(x, true);
  const Tensor dy = Tensor::ones({2, 50});
  const Tensor dx = drop.backward(dy);
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      EXPECT_EQ(dx.at(i), 0.0f);
    } else {
      EXPECT_NEAR(dx.at(i), 2.0f, 1e-5f);  // 1/(1-p)
    }
  }
}

TEST(Dropout, RejectsInvalidP) {
  EXPECT_THROW(Dropout("d", 1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout("d", -0.1f), std::invalid_argument);
  EXPECT_NO_THROW(Dropout("d", 0.0f));
}

TEST(ResidualBlock, PreActVariantOmitsFinalReLU) {
  // With final_relu=false the block's output can be negative.
  auto main = std::make_unique<Sequential>("b.main");
  main->emplace<Conv2d>("b.conv", 2, 2, 1, 1, 0, false);
  auto& conv = dynamic_cast<Conv2d&>((*main)[0]);
  conv.weight().data.fill(-1.0f);  // strongly negative mapping
  ResidualBlock block("b", std::move(main), nullptr, /*final_relu=*/false);
  Tensor x = Tensor::full({1, 2, 2, 2}, 1.0f);
  const Tensor y = block.forward(x, false);
  EXPECT_LT(ops::min(y), 0.0f);
}

TEST(ResidualBlock, PreActGradCheck) {
  auto main = std::make_unique<Sequential>("b.main");
  main->emplace<BatchNorm2d>("b.bn1", 2);
  main->emplace<ReLU>("b.relu1");
  main->emplace<Conv2d>("b.conv1", 2, 2, 3, 1, 1, false);
  auto block = std::make_unique<ResidualBlock>("b", std::move(main), nullptr,
                                               /*final_relu=*/false);
  Rng rng(32);
  init_model(*block, rng);
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;
  gradcheck(*block, random_input({3, 2, 3, 3}, 33), opts);
}

TEST(VisitLayers, ReachesEveryLayer) {
  auto net = small_convnet();
  int count = 0;
  visit_layers(*net, [&](Layer&) { ++count; });
  EXPECT_EQ(count, 7);  // container + 6 children
}

}  // namespace
}  // namespace shrinkbench
