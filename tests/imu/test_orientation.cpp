#include "imu/orientation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mandipass::imu {
namespace {

TEST(Rotation, IdentityByDefault) {
  const Rotation r;
  const auto v = r.apply(std::array<double, 3>{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(Rotation, Yaw90MapsXToY) {
  const auto r = Rotation::about_z_deg(90.0);
  const auto v = r.apply(std::array<double, 3>{1.0, 0.0, 0.0});
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[1], 1.0, 1e-12);
  EXPECT_NEAR(v[2], 0.0, 1e-12);
}

TEST(Rotation, Yaw90LeavesZ) {
  const auto r = Rotation::about_z_deg(90.0);
  const auto v = r.apply(std::array<double, 3>{0.0, 0.0, 2.0});
  EXPECT_NEAR(v[2], 2.0, 1e-12);
}

TEST(Rotation, FourQuarterTurnsAreIdentity) {
  const auto q = Rotation::about_z_deg(90.0);
  const auto v = q.apply(q.apply(q.apply(q.apply(std::array<double, 3>{0.3, -0.4, 0.9}))));
  EXPECT_NEAR(v[0], 0.3, 1e-12);
  EXPECT_NEAR(v[1], -0.4, 1e-12);
  EXPECT_NEAR(v[2], 0.9, 1e-12);
}

TEST(Rotation, PreservesNorm) {
  const auto r = Rotation::from_euler_deg(33.0, -20.0, 75.0);
  const std::array<double, 3> v{0.6, -0.8, 0.5};
  const auto w = r.apply(v);
  const double n_in = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
  const double n_out = w[0] * w[0] + w[1] * w[1] + w[2] * w[2];
  EXPECT_NEAR(n_in, n_out, 1e-12);
}

TEST(Rotation, RotatesBothImuTriples) {
  const auto r = Rotation::about_z_deg(90.0);
  MotionSample s;
  s.accel_g = {1.0, 0.0, 0.0};
  s.gyro_dps = {0.0, 1.0, 0.0};
  const auto out = r.apply(s);
  EXPECT_NEAR(out.accel_g[1], 1.0, 1e-12);
  EXPECT_NEAR(out.gyro_dps[0], -1.0, 1e-12);
}

}  // namespace
}  // namespace mandipass::imu
