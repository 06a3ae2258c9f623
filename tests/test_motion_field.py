import numpy as np

from planar_init.geometry import Pose, Rotation
from planar_init.motion_field import refine_velocity


def body(position, rotation=None):
    return Pose(rotation or Rotation.identity(), np.asarray(position, float), "b", "w")


class TestRefineVelocity:
    def test_sign_convention(self):
        # climbing 1 m/s away from the plane (NED z down) over 0.25 s
        v = refine_velocity(body([0.0, 0.0, -1.5]), body([0.0, 0.0, -1.75]), 0.25)
        np.testing.assert_array_equal(v, [0.0, 0.0, -1.0])

    def test_mean_over_the_interval(self):
        # constant acceleration: the displacement over dt is the velocity at
        # the midpoint, whatever the attitudes at either end
        a, v0, dt = np.array([0.4, -0.2, -1.0]), np.array([0.3, 0.1, -0.5]), 0.25
        prev = body([1.0, 2.0, -1.5], Rotation.from_axis_angle([0, 0, 1], 0.3))
        curr = body(prev.translation + v0 * dt + 0.5 * a * dt * dt,
                    Rotation.from_axis_angle([1, 0, 0], 0.2))
        np.testing.assert_allclose(refine_velocity(prev, curr, dt), v0 + 0.5 * a * dt,
                                   rtol=0.0, atol=1e-12)
