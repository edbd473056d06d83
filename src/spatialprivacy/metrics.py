"""Privacy and utility metrics for released point clouds.

Inter-space privacy is the adversary's misclassification rate; intra-space
privacy is the mean centroid distance error over trials the adversary
classified correctly. Utility (QoS) pairs each released point with its
nearest raw point and mixes position error with normal deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, SpatialIndex

__all__ = [
    "TrialRecord",
    "abstention_rate",
    "distance_error",
    "inter_privacy",
    "intra_privacy",
    "privacy_band",
    "qos",
    "qos_errors",
]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one inference trial against a known ground truth, placed in
    its sweep (release ``kind``, ``radius``, walk ``sample``, release, cap)
    and its run (``mode``, and the ``space_count`` its adversary chose among)."""

    true_label: str
    true_centroid: np.ndarray
    hyp_label: str | None
    hyp_centroid: np.ndarray | None
    abstained: bool = False
    radius: float = 0.0
    release_idx: int = 1
    max_planes: int | None = None
    q: float | None = None
    kind: str = "raw"
    sample: int = 0
    mode: str = "one-time"
    space_count: int = 2

    @property
    def correct(self) -> bool:
        return self.hyp_label == self.true_label


def distance_error(hyp_centroid: np.ndarray, true_centroid: np.ndarray) -> float:
    """Euclidean distance between hypothesis and true centroids, meters."""
    return float(np.linalg.norm(np.asarray(hyp_centroid, float) - np.asarray(true_centroid, float)))


def inter_privacy(trials: list[TrialRecord]) -> float:
    """Fraction of trials the adversary labeled wrongly (or could not label)."""
    if not trials:
        raise ValueError("no trials")
    wrong = sum(1 for t in trials if not t.correct)
    return wrong / len(trials)


def intra_privacy(trials: list[TrialRecord]) -> float | None:
    """Mean centroid error over correctly classified, non-abstaining trials.

    Returns None when no trial qualifies; abstentions are the caller's to
    count separately (see :func:`abstention_rate`).
    """
    errors = [
        distance_error(t.hyp_centroid, t.true_centroid)
        for t in trials
        if t.correct and not t.abstained and t.hyp_centroid is not None
    ]
    if not errors:
        return None
    return float(np.mean(errors))


def abstention_rate(trials: list[TrialRecord]) -> float:
    if not trials:
        raise ValueError("no trials")
    return sum(1 for t in trials if t.abstained) / len(trials)


def qos(transformed: PointCloud, raw: PointCloud, alpha: float = 0.5) -> float:
    """Mean transformation error of a released cloud against the truth: the
    mean of :func:`qos_errors`.

    Q is one-sided, from the release to the truth: every released point pairs
    with its nearest raw point, and its error is alpha * position distance +
    (1 - alpha) * normal deviation; raw structure the release withholds adds
    nothing.
    """
    return float(np.mean(qos_errors(transformed, raw, alpha)))


def qos_errors(transformed: PointCloud, raw: PointCloud, alpha: float = 0.5) -> np.ndarray:
    """Each released point's error against its nearest raw point, as
    :func:`qos` averages them: alpha * position distance + (1 - alpha) *
    normal deviation. Normal deviation is computed as 0.5 * ||n - n'||^2,
    which equals 1 - n . n' for unit vectors but is exactly zero for
    identical ones. Every point's error is its own, so the errors of any
    rows of ``transformed`` are those rows of its errors.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"need alpha in [0, 1], got {alpha!r}")
    if len(transformed) == 0 or len(raw) == 0:
        raise ValueError("qos needs non-empty clouds")
    if not (transformed.has_normals and raw.has_normals):
        raise ValueError("qos needs normals on both clouds")
    beta = 1 - alpha
    dist, idx = SpatialIndex(raw).query(transformed.positions, k=1)
    dist = dist[:, 0]
    paired = raw.normals[idx[:, 0]]
    normal_dev = 0.5 * np.einsum(
        "ij,ij->i", transformed.normals - paired, transformed.normals - paired
    )
    return alpha * dist + beta * normal_dev


def privacy_band(pi1: float) -> str:
    """Qualitative band for an inter-space privacy value."""
    if not 0.0 <= pi1 <= 1.0:
        raise ValueError("pi1 must be in [0, 1]")
    if pi1 >= 0.75:
        return "high"
    if pi1 >= 0.5:
        return "medium"
    return "low"
