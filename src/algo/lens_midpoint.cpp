#include "algo/lens_midpoint.hpp"

#include "geometry/angles.hpp"
#include "geometry/segment.hpp"

namespace cohesion::algo {

using geom::Vec2;

Vec2 LensMidpointAlgorithm::compute(const core::Snapshot& snapshot) const {
  if (snapshot.size() != 2) return {0.0, 0.0};
  const Vec2 p = snapshot.neighbours()[0].position;
  const Vec2 r = snapshot.neighbours()[1].position;
  const double angle = geom::interior_angle(p, {0.0, 0.0}, r);
  if (angle >= geom::kPi - params_.colinearity_tolerance) return {0.0, 0.0};
  // Projection of the robot (origin) onto the segment PR: the nearest point
  // of co-linearity; it lies in the lens because projection cannot increase
  // the distance to either endpoint.
  const geom::Segment chord{p, r};
  return chord.closest_point({0.0, 0.0});
}

}  // namespace cohesion::algo
