"""Body velocity from the motion-field constraint integrated over a keyframe pair.

The paper's motion-field constraint ties each tracked plane feature's
image velocity to the body velocity.  Integrated over the keyframe
interval under the gyro rotation, it says that each stereo point of the
earlier keyframe reprojects onto its track in the later one; that
least-squares problem is the known-rotation PnP of :mod:`planar_init.pnp`,
so the velocity it constrains is the body displacement between the two
poses over the interval.
"""

from __future__ import annotations

import numpy as np

from .geometry import Pose


def refine_velocity(body_prev: Pose, body_curr: Pose, dt: float) -> np.ndarray:
    """Mean body velocity (3,) in the world frame over an interval of ``dt`` s.

    ``body_prev`` and ``body_curr`` are the body poses (b -> w) at the two
    ends of the interval; the later one comes from the known-rotation PnP
    fit, so this is the integrated motion-field constraint's solution.
    """
    return (body_curr.translation - body_prev.translation) / dt
