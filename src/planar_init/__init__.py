"""Visual-inertial initialization for a downward-looking stereo MAV.

Planar-homography estimation and decomposition, IMU-propagated prior
normal selection, PnP scale recovery, velocity from the PnP displacement,
dynamic stereo-residual weighting, and a deterministic take-off
simulator that serves as the test oracle.
"""

from .config import PipelineConfig, load_config
from .geometry import (
    CameraRig,
    EulerAngles,
    Pose,
    Rotation,
    normalize,
    project,
    to_euler_ned,
)
from .homography import (
    HomographySolution,
    decompose,
    estimate,
    filter_positive_depth,
    indicator,
    synthesize,
)
from .imu import (
    ImuStream,
    NavState,
    NavTrack,
    integrate_camera_rotation,
    propagate,
)
from .initializer import (
    InitializationResult,
    KeyframeWindow,
    recover_scale,
    refine_body_velocity,
    run_initialization,
    select_solution,
    triangulate_stereo,
)
from .motion_field import refine_velocity
from .pnp import solve_pnp
from .simulator import (
    NoiseModel,
    SceneConfig,
    TrajectoryProfile,
    generate_scene,
    generate_trajectory,
    make_dataset,
    render_tracks,
    scene_preset,
    synthesize_imu,
)
from .weighting import stereo_deviation, weight

__version__ = "0.1.0"
