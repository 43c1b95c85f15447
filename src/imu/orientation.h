// Sensor orientation handling.
//
// Fig. 13 of the paper rotates the earphone IMU in 90-degree steps and
// shows MandiPass still verifies the user. We model orientation as a 3-D
// rotation of the sensor body frame applied to both the accelerometer and
// gyroscope triples before quantisation.
#pragma once

#include <array>

#include "imu/types.h"

namespace mandipass::imu {

/// A 3x3 rotation matrix (row-major).
class Rotation {
 public:
  /// Identity rotation.
  Rotation();

  /// Intrinsic Z-Y-X Euler rotation, angles in degrees.
  static Rotation from_euler_deg(double yaw, double pitch, double roll);

  /// Rotation about the sensor z axis only — the Fig. 13 experiment.
  static Rotation about_z_deg(double yaw);

  /// Applies the rotation to a 3-vector.
  std::array<double, 3> apply(const std::array<double, 3>& v) const;

  /// Rotates both triples of a motion sample.
  MotionSample apply(const MotionSample& s) const;

  double at(std::size_t r, std::size_t c) const { return m_[r][c]; }

 private:
  std::array<std::array<double, 3>, 3> m_;
};

}  // namespace mandipass::imu
