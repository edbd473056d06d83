"""Spatial privacy for mixed-reality 3D point clouds.

Mechanisms (a walk of partial releases, raw or generalized into RANSAC
planes with subsumption, under conservative plane caps), a two-level
descriptor-matching adversary, privacy/utility metrics, and a reproducible
experiment harness.
"""

from .attacker import (
    AttackParams,
    CacheFormatError,
    Hypothesis,
    ReferenceEnsemble,
    build_reference,
    infer,
    load_ensemble,
    match_inter,
    match_intra,
    save_ensemble,
)
from .descriptors import (
    DescribedSpace,
    SpinParams,
    UnusableSpaceError,
    describe,
    select_keypoints,
)
from .geometry import (
    PointCloud,
    RigidTransform,
    SpatialIndex,
    apply_transform,
    centroid,
    estimate_normals,
    knn_bruteforce,
    random_rigid_transform,
)
from .harness import (
    CellMetrics,
    DatasetError,
    ExperimentConfig,
    load_dataset,
    report,
    run_experiment,
)
from .mechanisms import (
    GeneralizationParams,
    Plane,
    ReleaseState,
    project_to_planes,
    ransac_planes,
    release_at,
    release_sequence,
    subsume,
)
from .metrics import (
    TrialRecord,
    inter_privacy,
    intra_privacy,
    privacy_band,
    qos,
)
from .ply_io import PlyFormatError, load_ply, save_ply
from .synthetic import SyntheticSpaceSpec, default_space_specs, generate_space

__version__ = "0.1.0"
