#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "grad_check.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace mandipass::nn {
namespace {

using testing::random_tensor;

TEST(Serialize, TensorRoundTrip) {
  const Tensor t = random_tensor({2, 3, 4, 5}, 1);
  std::stringstream ss;
  write_tensor(ss, t);
  const Tensor back = read_tensor(ss);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_FLOAT_EQ(back[i], t[i]);
  }
}

TEST(Serialize, ScalarsRoundTrip) {
  std::stringstream ss;
  write_u64(ss, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(read_u64(ss), 0xDEADBEEFCAFEULL);
}

TEST(Serialize, TagRoundTrip) {
  std::stringstream ss;
  write_tag(ss, "HELLO");
  EXPECT_NO_THROW(expect_tag(ss, "HELLO"));
}

TEST(Serialize, WrongTagThrows) {
  std::stringstream ss;
  write_tag(ss, "AAA");
  EXPECT_THROW(expect_tag(ss, "BBB"), SerializationError);
}

TEST(Serialize, TruncatedTensorThrows) {
  const Tensor t = random_tensor({4, 4}, 2);
  std::stringstream ss;
  write_tensor(ss, t);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_tensor(truncated), SerializationError);
}

TEST(Serialize, GarbageThrows) {
  std::stringstream ss("this is not a tensor stream at all");
  EXPECT_THROW(read_tensor(ss), SerializationError);
}

TEST(Serialize, LinearStateRoundTrip) {
  Rng rng(3);
  Linear a(6, 4, rng);
  Linear b(6, 4, rng);  // different random init
  std::stringstream ss;
  a.save_state(ss);
  b.load_state(ss);
  const Tensor in = random_tensor({2, 6}, 4);
  const Tensor ya = a.forward(in, false);
  const Tensor yb = b.forward(in, false);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, LinearShapeMismatchThrows) {
  Rng rng(5);
  Linear a(6, 4, rng);
  Linear b(4, 6, rng);
  std::stringstream ss;
  a.save_state(ss);
  EXPECT_THROW(b.load_state(ss), SerializationError);
}

TEST(Serialize, BatchNormStateIncludesRunningStats) {
  BatchNorm2d a(2);
  a.forward(random_tensor({8, 2, 3, 3}, 6), true);  // builds running stats
  BatchNorm2d b(2);
  std::stringstream ss;
  a.save_state(ss);
  b.load_state(ss);
  const Tensor probe = random_tensor({2, 2, 3, 3}, 7);
  const Tensor ya = a.forward(probe, false);
  const Tensor yb = b.forward(probe, false);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, SequentialRoundTrip) {
  Rng rng(8);
  auto make = [&rng]() {
    auto net = std::make_unique<Sequential>();
    Conv2dConfig cc;
    cc.out_channels = 3;
    net->add(std::make_unique<Conv2d>(cc, rng));
    net->add(std::make_unique<BatchNorm2d>(3));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<Flatten>());
    return net;
  };
  auto a = make();
  auto b = make();
  a->forward(random_tensor({4, 1, 6, 30}, 9), true);  // make BN stats non-trivial
  std::stringstream ss;
  a->save_state(ss);
  b->load_state(ss);
  const Tensor probe = random_tensor({2, 1, 6, 30}, 10);
  const Tensor ya = a->forward(probe, false);
  const Tensor yb = b->forward(probe, false);
  ASSERT_EQ(ya.shape(), yb.shape());
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, SequentialLayerCountMismatchThrows) {
  Rng rng(11);
  Sequential a;
  a.add(std::make_unique<Linear>(2, 2, rng));
  Sequential b;
  b.add(std::make_unique<Linear>(2, 2, rng));
  b.add(std::make_unique<ReLU>());
  std::stringstream ss;
  a.save_state(ss);
  EXPECT_THROW(b.load_state(ss), SerializationError);
}

// Exhaustive truncation sweep: a model file cut at any byte offset must
// throw SerializationError, never return a short/zero-filled tensor.
TEST(Serialize, TensorTruncationAtEveryOffsetThrows) {
  const Tensor t = random_tensor({3, 5}, 12);
  std::stringstream ss;
  write_tensor(ss, t);
  const std::string blob = ss.str();
  ASSERT_GT(blob.size(), 0u);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::stringstream truncated(blob.substr(0, cut));
    EXPECT_THROW(read_tensor(truncated), SerializationError) << "no throw at offset " << cut;
  }
}

TEST(Serialize, LayerStateTruncationAtEveryOffsetThrows) {
  Rng rng(21);
  Linear layer(3, 2, rng);
  std::stringstream ss;
  layer.save_state(ss);
  const std::string blob = ss.str();
  Linear target(3, 2, rng);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::stringstream truncated(blob.substr(0, cut));
    EXPECT_THROW(target.load_state(truncated), SerializationError)
        << "no throw at offset " << cut;
  }
}

TEST(Serialize, EmptyStreamThrows) {
  std::stringstream ss;
  EXPECT_THROW(read_tensor(ss), SerializationError);
  EXPECT_THROW(read_u64(ss), SerializationError);
}

TEST(Serialize, OversizedRankThrows) {
  std::stringstream ss;
  ss.write("TNSR", 4);
  write_u64(ss, 5);  // rank cap is 4
  EXPECT_THROW(read_tensor(ss), SerializationError);
}

TEST(Serialize, OversizedDimensionThrows) {
  std::stringstream ss;
  ss.write("TNSR", 4);
  write_u64(ss, 1);
  write_u64(ss, (1ULL << 32) + 1);  // single dim over the per-dim cap
  EXPECT_THROW(read_tensor(ss), SerializationError);
}

// Regression: dims of 2^32 each used to wrap the element-count product
// around 2^64 (2^32 * 2^32 == 0 mod 2^64), sailing past the size cap and
// asking Tensor to allocate a bogus shape. The running cap now rejects the
// first oversized dimension before the product can wrap.
TEST(Serialize, DimensionProductOverflowThrows) {
  std::stringstream ss;
  ss.write("TNSR", 4);
  write_u64(ss, 2);
  write_u64(ss, 1ULL << 32);
  write_u64(ss, 1ULL << 32);
  EXPECT_THROW(read_tensor(ss), SerializationError);
}

TEST(Serialize, HeaderClaimsMoreDataThanPresentThrows) {
  // Valid header for a 1024-element tensor, but only 16 bytes of payload.
  std::stringstream ss;
  ss.write("TNSR", 4);
  write_u64(ss, 2);
  write_u64(ss, 32);
  write_u64(ss, 32);
  for (int i = 0; i < 4; ++i) {
    write_u64(ss, 0);
  }
  EXPECT_THROW(read_tensor(ss), SerializationError);
}

}  // namespace
}  // namespace mandipass::nn
