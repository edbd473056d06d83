"""Privacy/utility metrics: counting, distance error, QoS, bands."""

import numpy as np
import pytest

from spatialprivacy.geometry import PointCloud, apply_transform, random_rigid_transform
from spatialprivacy.metrics import (
    TrialRecord,
    abstention_rate,
    distance_error,
    inter_privacy,
    intra_privacy,
    privacy_band,
    qos,
)


def trial(true="a", hyp="a", err=None, abstained=False):
    true_c = np.zeros(3)
    hyp_c = None
    if not abstained:
        hyp_c = true_c if err is None else np.array([err, 0.0, 0.0])
    return TrialRecord(true, true_c, hyp, hyp_c, abstained)


class TestInterPrivacy:
    def test_all_correct(self):
        assert inter_privacy([trial() for _ in range(5)]) == 0.0

    def test_all_wrong(self):
        assert inter_privacy([trial(hyp="b") for _ in range(5)]) == 1.0

    def test_counting(self):
        trials = [trial(hyp="b")] * 3 + [trial()] * 7
        assert inter_privacy(trials) == pytest.approx(0.3)

    def test_permutation_invariant(self, rng):
        trials = [trial(hyp="b")] * 4 + [trial()] * 6
        shuffled = [trials[i] for i in rng.permutation(len(trials))]
        assert inter_privacy(trials) == inter_privacy(shuffled)

    def test_missing_hypothesis_counts_as_wrong(self):
        t = TrialRecord("a", np.zeros(3), None, None, abstained=True)
        assert inter_privacy([t]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inter_privacy([])


class TestIntraPrivacy:
    def test_three_four_five(self):
        assert distance_error(np.array([3.0, 4.0, 0.0]), np.zeros(3)) == 5.0

    def test_exact_zero(self):
        assert intra_privacy([trial(err=0.0)]) == 0.0

    def test_mean_of_qualifying(self):
        assert intra_privacy([trial(err=2.0), trial(err=4.0)]) == 3.0

    def test_wrong_label_excluded(self):
        trials = [trial(err=2.0), trial(hyp="b", err=50.0)]
        assert intra_privacy(trials) == 2.0

    def test_abstentions_excluded_but_counted(self):
        trials = [trial(err=2.0), trial(abstained=True)]
        assert intra_privacy(trials) == 2.0
        assert abstention_rate(trials) == 0.5

    def test_no_qualifying_is_absent(self):
        assert intra_privacy([trial(hyp="b")]) is None

    def test_distance_is_a_metric(self, rng):
        for _ in range(50):
            a, b, c = rng.uniform(-10, 10, (3, 3))
            assert abs(distance_error(a, b) - distance_error(b, a)) < 1e-12
            assert distance_error(a, c) <= (
                distance_error(a, b) + distance_error(b, c) + 1e-12
            )
            assert distance_error(a, a) == 0.0


def unit_rows(vectors):
    v = np.asarray(vectors, float)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestQos:
    def test_identity_is_exactly_zero(self, rng):
        pts = rng.uniform(-5, 5, (200, 3))
        nrm = unit_rows(rng.normal(size=(200, 3)))
        cloud = PointCloud(pts, nrm)
        assert qos(cloud, cloud) == 0.0

    def test_single_pair_position_term(self):
        raw = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0, 1.0]]))
        moved = PointCloud(np.array([[0.0, 0, 0.1]]), np.array([[0.0, 0, 1.0]]))
        assert qos(moved, raw) == pytest.approx(0.05, abs=1e-12)

    def test_orthogonal_normals(self):
        raw = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0, 1.0]]))
        rolled = PointCloud(np.zeros((1, 3)), np.array([[1.0, 0, 0.0]]))
        assert qos(rolled, raw) == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_pairing(self, rng):
        raw = PointCloud(rng.uniform(-3, 3, (400, 3)),
                         unit_rows(rng.normal(size=(400, 3))))
        rel = PointCloud(rng.uniform(-3, 3, (350, 3)),
                         unit_rows(rng.normal(size=(350, 3))))
        for alpha, beta in ((0.5, 0.5), (1.0, 0.0), (0.0, 1.0)):
            got = qos(rel, raw, alpha)
            total = 0.0
            for p, n in zip(rel.positions, rel.normals):
                d = np.linalg.norm(raw.positions - p, axis=1)
                j = np.lexsort((np.arange(len(d)), d))[0]
                total += alpha * d[j] + beta * (
                    0.5 * np.sum((raw.normals[j] - n) ** 2)
                )
            assert abs(got - total / len(rel)) < 1e-9

    def test_rigid_invariance_under_common_transform(self, rng):
        raw = PointCloud(rng.uniform(-3, 3, (300, 3)),
                         unit_rows(rng.normal(size=(300, 3))))
        rel = PointCloud(raw.positions + rng.normal(0, 0.05, (300, 3)),
                         raw.normals)
        t = random_rigid_transform(17)
        before = qos(rel, raw)
        after = qos(apply_transform(rel, t), apply_transform(raw, t))
        assert abs(before - after) < 1e-9

    def test_withheld_structure_costs_nothing(self, rng):
        """Q is one-sided, from the release to the truth."""
        pts = rng.uniform(-3, 3, (300, 3))
        nrm = unit_rows(rng.normal(size=(300, 3)))
        raw = PointCloud(pts, nrm)
        half = PointCloud(pts[:150], nrm[:150])
        assert qos(half, raw) == 0.0
        assert qos(raw, half) > 0.0

    def test_validates_weights(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0, 1.0]]))
        for alpha in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                qos(cloud, cloud, alpha=alpha)

    def test_needs_normals(self):
        bare = PointCloud(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            qos(bare, bare)

    def test_empty_rejected(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0, 1.0]]))
        empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            qos(empty, cloud)


class TestPrivacyBand:
    @pytest.mark.parametrize(
        "value,band",
        [(0.75, "high"), (1.0, "high"), (0.5, "medium"), (0.74, "medium"),
         (0.49, "low"), (0.0, "low")],
    )
    def test_bands(self, value, band):
        assert privacy_band(value) == band

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            privacy_band(1.2)
