#include "imu/orientation.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace mandipass::imu {
namespace {

double deg2rad(double d) {
  return d * std::numbers::pi / 180.0;
}

}  // namespace

Rotation::Rotation() : m_{{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}} {}

Rotation Rotation::from_euler_deg(double yaw, double pitch, double roll) {
  MANDIPASS_EXPECTS(std::isfinite(yaw) && std::isfinite(pitch) && std::isfinite(roll));
  const double cy = std::cos(deg2rad(yaw)), sy = std::sin(deg2rad(yaw));
  const double cp = std::cos(deg2rad(pitch)), sp = std::sin(deg2rad(pitch));
  const double cr = std::cos(deg2rad(roll)), sr = std::sin(deg2rad(roll));
  Rotation r;
  r.m_ = {{{cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr},
           {sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr},
           {-sp, cp * sr, cp * cr}}};
  return r;
}

Rotation Rotation::about_z_deg(double yaw) {
  return from_euler_deg(yaw, 0.0, 0.0);
}

std::array<double, 3> Rotation::apply(const std::array<double, 3>& v) const {
  std::array<double, 3> out{};
  for (std::size_t r = 0; r < 3; ++r) {
    out[r] = m_[r][0] * v[0] + m_[r][1] * v[1] + m_[r][2] * v[2];
  }
  return out;
}

MotionSample Rotation::apply(const MotionSample& s) const {
  MotionSample out;
  out.accel_g = apply(s.accel_g);
  out.gyro_dps = apply(s.gyro_dps);
  return out;
}

}  // namespace mandipass::imu
