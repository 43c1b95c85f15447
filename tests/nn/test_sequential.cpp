#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <memory>

#include "grad_check.h"
#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/linear.h"
#include "nn/loss.h"

namespace mandipass::nn {
namespace {

using testing::check_gradients;
using testing::random_tensor;

std::unique_ptr<Sequential> small_mlp(Rng& rng) {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Linear>(4, 8, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>(8, 3, rng));
  return net;
}

TEST(Sequential, ChainsForward) {
  Rng rng(1);
  auto net = small_mlp(rng);
  const Tensor out = net->forward(random_tensor({2, 4}, 2), true);
  EXPECT_EQ(out.dim(0), 2u);
  EXPECT_EQ(out.dim(1), 3u);
}

TEST(Sequential, CollectsAllParams) {
  Rng rng(3);
  auto net = small_mlp(rng);
  EXPECT_EQ(net->params().size(), 4u);  // two Linear layers x (W, b)
}

TEST(Sequential, GradientCheckThroughStack) {
  Rng rng(5);
  auto net = small_mlp(rng);
  Tensor in = random_tensor({3, 4}, 6);
  check_gradients(*net, in);
}

TEST(Sequential, LearnsXor) {
  // End-to-end sanity: a small MLP must learn XOR.
  Rng rng(7);
  Sequential net;
  net.add(std::make_unique<Linear>(2, 16, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Linear>(16, 2, rng));
  Adam opt(net.params(), {.lr = 0.05});
  SoftmaxCrossEntropy loss;
  Tensor x({4, 2});
  x.at2(1, 1) = 1.0f;
  x.at2(2, 0) = 1.0f;
  x.at2(3, 0) = 1.0f;
  x.at2(3, 1) = 1.0f;
  const std::vector<std::uint32_t> y{0, 1, 1, 0};
  for (int i = 0; i < 2000; ++i) {
    opt.zero_grad();
    loss.forward(net.forward(x, true), y);
    net.backward(loss.backward());
    opt.step();
  }
  loss.forward(net.forward(x, false), y);
  EXPECT_DOUBLE_EQ(loss.accuracy(), 1.0);
}

TEST(Sequential, LayerAccess) {
  Rng rng(8);
  auto net = small_mlp(rng);
  EXPECT_EQ(net->layer_count(), 3u);
  EXPECT_EQ(net->layer(1).name(), "ReLU");
  EXPECT_THROW(net->layer(3), PreconditionError);
}

TEST(Sequential, NullLayerRejected) {
  Sequential net;
  EXPECT_THROW(net.add(nullptr), PreconditionError);
}

}  // namespace
}  // namespace mandipass::nn
