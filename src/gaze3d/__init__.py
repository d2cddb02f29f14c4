"""gaze3d: mapping pupil measurements to scene gaze for head-mounted
eye trackers, with a simulator for studying depth-dependent parallax
error.

Three mappers share one pipeline (calibrate on targets, predict gaze):

* 2d2d  — polynomial regression from pupil pixels to scene pixels
* 2d3d  — polynomial regression to gaze angles plus a jointly estimated
          3D eyeball center (rays instead of image points)
* 3d3d  — rigid rotation + center aligning 3D pupil poses with targets

The two Levenberg-Marquardt fits use closed-form Jacobians of their
residual kernels; everything runs on numpy alone.  ``BACKEND`` names
that one numeric backend.
"""

from .geometry import (
    AngleOutOfRange,
    BehindOrigin,
    GeometryError,
    NonPositiveDepth,
    ParallelToPlane,
    PinholeCamera,
    Ray,
    ZeroVector,
    angle_between,
    angle_between_batch,
    angles_from_rotation,
    back_project,
    back_project_batch,
    intersect_ray_depth_plane,
    intersect_ray_depth_plane_batch,
    point_ray_distance,
    project,
    rotation_from_angles,
    wrap_angle,
)
from .eye_simulator import (
    DEFAULT_DEPTHS,
    DatasetBundle,
    DegenerateTarget,
    GridSpec,
    NoIntersection,
    PupilNotVisible,
    SampleColumns,
    SimRig,
    SimSample,
    TargetNotVisible,
    TwoSphereEye,
    default_bundle,
    derive_pupil_geometry,
    gaze_toward,
    synthesize_dataset,
    synthesize_points,
    synthesize_sample,
)
from .optimizer import (
    FitReport,
    LMSettings,
    NonFiniteResidual,
    ProblemBatch,
    ResidualProblem,
    SingularNormalEquations,
    numeric_jacobian,
    solve_lm,
    solve_lm_batch,
)
from .mappers import (
    MAPPER_IDS,
    DegenerateGeometry,
    MappingConfig,
    Model2Dto2D,
    Model2Dto3D,
    Model3Dto3D,
    RankDeficient,
    column_arrays,
    direction_to_polar,
    fit_2d_to_2d,
    fit_2d_to_3d,
    fit_3d_to_3d,
    fit_arrays,
    fit_mapper,
    polar_to_direction,
    poly_features,
    predict_2d_to_2d,
    predict_2d_to_3d,
    predict_3d_to_3d,
    predict_ray_arrays,
    predict_sample,
    usable_rows,
)
from .evaluation import (
    ErrorRecord,
    OffsetBucket,
    SweepResult,
    angular_error,
    depth_combination_sweep,
    evaluate,
    offset_analysis,
    parallax_curves,
)
from .dataset_io import (
    ConfigError,
    ExperimentConfig,
    LoadedDataset,
    ParseError,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    UnitViolation,
    export_results_csv,
    load_config,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)

__version__ = "0.1.0"

BACKEND = "numpy"

__all__ = [name for name in dir() if not name.startswith("_")]
