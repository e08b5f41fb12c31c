#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "base/log.h"
#include "base/rng.h"
#include "tensor/filler.h"
#include "tensor/layout.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace swcaffe::tensor {
namespace {

TEST(TensorTest, ReshapeSetsCountAndZeroes) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.count(), 120u);
  EXPECT_EQ(t.num(), 2);
  EXPECT_EQ(t.channels(), 3);
  EXPECT_EQ(t.height(), 4);
  EXPECT_EQ(t.width(), 5);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, OffsetMatchesRowMajorBnrc) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.offset(0, 0, 0, 0), 0u);
  EXPECT_EQ(t.offset(0, 0, 0, 1), 1u);
  EXPECT_EQ(t.offset(0, 0, 1, 0), 5u);
  EXPECT_EQ(t.offset(0, 1, 0, 0), 20u);
  EXPECT_EQ(t.offset(1, 0, 0, 0), 60u);
  EXPECT_EQ(t.offset(1, 2, 3, 4), 119u);
}

TEST(TensorTest, DiffIsLazyAndZeroInitialized) {
  Tensor t({4});
  auto d = t.diff();
  EXPECT_EQ(d.size(), 4u);
  for (float v : d) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, AxpyFromDiff) {
  Tensor t({3});
  t.data()[0] = 1.0f;
  t.diff()[0] = 2.0f;
  t.diff()[2] = -1.0f;
  t.axpy_from_diff(-0.5f);
  EXPECT_FLOAT_EQ(t.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(t.data()[2], 0.5f);
}

TEST(TensorTest, SumsqAndCopy) {
  Tensor a({2, 2});
  a.data()[0] = 3.0f;
  a.data()[3] = 4.0f;
  EXPECT_DOUBLE_EQ(a.sumsq_data(), 25.0);
  Tensor b({4});
  b.copy_from(a);
  EXPECT_FLOAT_EQ(b.data()[3], 4.0f);
}

TEST(TensorTest, CopyFromWrongSizeThrows) {
  Tensor a({4}), b({5});
  EXPECT_THROW(b.copy_from(a), base::CheckError);
}

TEST(FillerTest, ConstantAndUniform) {
  base::Rng rng(1);
  Tensor t({100});
  fill(t, FillerSpec::constant(2.5f), rng);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
  fill(t, FillerSpec::uniform(-1.0f, 1.0f), rng);
  for (float v : t.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(FillerTest, XavierScaleDependsOnFans) {
  base::Rng rng(2);
  Tensor t({64, 64, 3, 3});  // fan_in = fan_out = 576
  fill(t, FillerSpec::xavier(), rng);
  const float bound = std::sqrt(6.0f / (576 + 576));
  for (float v : t.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(FillerTest, MsraVarianceMatchesFanIn) {
  base::Rng rng(3);
  Tensor t({256, 64, 3, 3});  // fan_in = 576
  fill(t, FillerSpec::msra(), rng);
  double sq = 0.0;
  for (float v : t.data()) sq += static_cast<double>(v) * v;
  const double var = sq / t.count();
  EXPECT_NEAR(var, 2.0 / 576, 0.2 * 2.0 / 576);
}

TEST(LayoutTest, BnrcRcnbRoundTrip) {
  base::Rng rng(4);
  Tensor src({3, 5, 2, 7});
  fill(src, FillerSpec::uniform(-1, 1), rng);
  Tensor rcnb, back;
  bnrc_to_rcnb(src, rcnb);
  EXPECT_EQ(rcnb.shape(), (std::vector<int>{2, 7, 5, 3}));
  rcnb_to_bnrc(rcnb, back);
  EXPECT_EQ(back.shape(), src.shape());
  for (std::size_t i = 0; i < src.count(); ++i) {
    EXPECT_EQ(back.data()[i], src.data()[i]) << i;
  }
}

TEST(LayoutTest, TransposePlacesElementsCorrectly) {
  Tensor src({2, 3, 4, 5});
  for (std::size_t i = 0; i < src.count(); ++i) {
    src.data()[i] = static_cast<float>(i);
  }
  Tensor dst;
  bnrc_to_rcnb(src, dst);  // dst (R,C,N,B) = (4,5,3,2)
  // src(b=1, n=2, r=3, w=4) must land at dst(3, 4, 2, 1).
  const std::size_t src_idx = src.offset(1, 2, 3, 4);
  const std::size_t dst_idx = ((3 * 5 + 4) * 3 + 2) * 2 + 1;
  EXPECT_EQ(dst.data()[dst_idx], src.data()[src_idx]);
}

TEST(LayoutTest, FilterKkoiRoundTrip) {
  base::Rng rng(5);
  Tensor f({8, 4, 3, 3});
  fill(f, FillerSpec::uniform(-1, 1), rng);
  Tensor kkoi, back;
  filter_to_kkoi(f, kkoi);
  EXPECT_EQ(kkoi.shape(), (std::vector<int>{3, 3, 8, 4}));
  filter_from_kkoi(kkoi, back);
  for (std::size_t i = 0; i < f.count(); ++i) {
    EXPECT_EQ(back.data()[i], f.data()[i]);
  }
}

TEST(SerializeTest, StreamRoundTrip) {
  base::Rng rng(6);
  Tensor t({3, 4});
  fill(t, FillerSpec::gaussian(0, 1), rng);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor u;
  read_tensor(ss, u);
  EXPECT_EQ(u.shape(), t.shape());
  for (std::size_t i = 0; i < t.count(); ++i) {
    EXPECT_EQ(u.data()[i], t.data()[i]);
  }
}

TEST(SerializeTest, FileRoundTripMultipleTensors) {
  base::Rng rng(7);
  Tensor a({2, 3}), b({5});
  fill(a, FillerSpec::gaussian(0, 1), rng);
  fill(b, FillerSpec::gaussian(0, 1), rng);
  const std::string path = ::testing::TempDir() + "/swc_params.bin";
  write_tensors(path, {&a, &b});
  Tensor a2({2, 3}), b2({5});
  std::vector<Tensor*> dst{&a2, &b2};
  read_tensors(path, dst);
  EXPECT_EQ(a2.data()[5], a.data()[5]);
  EXPECT_EQ(b2.data()[4], b.data()[4]);
  std::remove(path.c_str());
}

TEST(SerializeTest, BadMagicThrows) {
  std::stringstream ss;
  ss << "garbage-bytes-here";
  Tensor t;
  EXPECT_THROW(read_tensor(ss, t), base::CheckError);
}

}  // namespace
}  // namespace swcaffe::tensor
