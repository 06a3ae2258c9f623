import numpy as np
import pytest

from planar_init.geometry import CameraRig, Pose, Rotation
from planar_init.simulator import (
    NoiseModel,
    TrajectoryProfile,
    make_dataset,
    scene_preset,
)


@pytest.fixture
def rig():
    return CameraRig.default()


@pytest.fixture
def simple_rig():
    """f=400 rig with identity extrinsics, used by hand-computed cases."""
    return CameraRig(
        f=400.0, cx=640.0, cy=400.0, baseline=0.1, width=1280, height=800,
        T_c_b=Pose(Rotation.identity(), np.zeros(3), "c", "b"),
    )


@pytest.fixture(scope="session")
def clean_vertical_dataset():
    """Noise-free vertical take-off; session-scoped because many tests share it."""
    return make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="vertical"),
                        noise=NoiseModel.noiseless(), seed=11)


@pytest.fixture(scope="session")
def noisy_vertical_dataset():
    return make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="vertical"),
                        noise=NoiseModel(), seed=21)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Rotation.from_axis_angle(axis, rng.uniform(0.0, max_angle))


def transfer(m, p):
    """Normalized points (2,) or (N, 2) through the 3x3 homography matrix
    ``m``, dehomogenized."""
    p = np.asarray(p, dtype=np.float64)
    w = np.atleast_2d(p) @ m[:, :2].T + m[:, 2]
    out = w[:, :2] / w[:, 2:]
    return out[0] if p.ndim == 1 else out
