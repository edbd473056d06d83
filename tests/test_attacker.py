"""Two-level matcher: scoring, pair uniqueness, geometric check, inference."""

import io
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spatialprivacy import attacker
from spatialprivacy.attacker import (
    AttackParams,
    CacheFormatError,
    MatchedPairs,
    ReferenceEnsemble,
    _write_array,
    _write_text,
    build_reference,
    infer,
    load_ensemble,
    match_inter,
    match_intra,
    raw_view,
    save_ensemble,
    two_nn,
)
from spatialprivacy.descriptors import DescribedSpace, SpinParams, UnusableSpaceError, describe
from spatialprivacy.geometry import (
    PackedRows,
    PointCloud,
    apply_transform,
    ball_indices,
    knn_bruteforce,
    random_rigid_transform,
)
from spatialprivacy.mechanisms import GeneralizationParams, project_to_planes, ransac_planes
from spatialprivacy.synthetic import SyntheticSpaceSpec, generate_space


def toy_space(descriptors):
    n = len(descriptors)
    return DescribedSpace(
        indices=np.arange(n, dtype=np.int64),
        positions=np.zeros((n, 3)),
        descriptors=np.asarray(descriptors, dtype=float),
        params=SpinParams(),
    )


@pytest.fixture(scope="module")
def mini_spaces():
    # A touch of capture noise keeps descriptors distinct; perfectly planar
    # rooms produce bitwise-duplicate descriptors whose matches collide.
    specs = [
        SyntheticSpaceSpec(density=50, noise_sigma=0.005, seed=s) for s in (3, 4, 5)
    ]
    return [generate_space(spec, f"mini{i}") for i, spec in enumerate(specs)]


@pytest.fixture(scope="module")
def mini_ensemble(mini_spaces):
    return build_reference(mini_spaces, seed=0)


def packed(pools):
    """``pools`` of dense descriptor rows, with each label's rows packed, as
    :class:`ReferenceEnsemble` takes them."""
    return {label: (PackedRows.pack(rows), positions)
            for label, (rows, positions) in pools.items()}


def padded(rows):
    """Toy descriptor rows widened with zero columns to the default
    descriptor width; distances between rows stay the same, bitwise."""
    rows = np.asarray(rows, dtype=float)
    return np.pad(rows, ((0, 0), (0, SpinParams().length - rows.shape[1])))


def label_score(refs, query, params=AttackParams()):
    """Score and pairs of the query's toy descriptors against a one-label
    ensemble holding the toy reference rows."""
    refs = padded(refs)
    ensemble = ReferenceEnsemble(packed({"a": (refs, np.zeros((len(refs), 3)))}),
                                 SpinParams(), 5)
    result = match_inter(ensemble, toy_space(padded(query)), params)
    return result.scores["a"], result.pairs["a"]


def match_label_oracle(descriptors, query, params):
    """One label's score and pairs by a 2-nn call on its pool alone: the
    per-label loop that match_inter's single call over all labels replaced."""
    n_query = len(query)
    empty = MatchedPairs(
        np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    )
    dist, idx = knn_bruteforce([PackedRows.pack(descriptors)], query.descriptors, k=2)
    dist, idx = dist[0], idx[0]
    second = dist[:, 1]
    nndr = np.divide(dist[:, 0], second, out=np.zeros(n_query), where=second > 0)
    candidates = np.arange(n_query)
    if params.nndr_threshold is not None:
        candidates = candidates[nndr[candidates] < params.nndr_threshold]
    if len(candidates) == 0:
        return 0.0, empty
    priority = np.lexsort((candidates, nndr[candidates]))
    ordered = candidates[priority]
    refs = idx[ordered, 0]
    _, first_pos = np.unique(refs, return_index=True)
    kept = ordered[np.sort(first_pos)]
    kept_nndr = nndr[kept]
    score = float((1.0 - kept_nndr.mean()) * (len(kept) / n_query))
    return score, MatchedPairs(kept, idx[kept, 0], kept_nndr)


class TestLabelScore:
    def test_hand_evaluated_score(self):
        """Ten unique matches at NNDR 0.2 out of twenty query descriptors.

        Ten decoy queries share the good queries' nearest references at a
        worse ratio, so deduplication drops them: the score must come out
        exactly (1 - 0.2) * 10/20 = 0.4.
        """
        query, refs = [], []
        for i in range(10):
            base = 10.0 * i
            query.append([base])             # good query
            query.append([base + 0.7])       # decoy: 1-nn is the same ref
            refs.append([base + 0.2])        # shared nearest reference
            refs.append([base - 1.0])        # second neighbor at distance 1.0
        score, pairs = label_score(refs, query)
        # good: NNDR = 0.2/1.0; the decoy (0.5/1.7) loses the shared reference.
        assert len(pairs.query_indices) == 10
        assert np.allclose(pairs.nndr, 0.2, atol=1e-9)
        assert score == pytest.approx(0.4, abs=1e-9)

    def test_one_row_pool_rejected(self):
        """2-nn matching needs two rows in every pool: a one-row pool is
        rejected, naming its label, not scored."""
        with pytest.raises(ValueError, match="label 'a' has \\(1, 128\\) descriptors"):
            label_score([[0.0]], [[0.0], [1.0]])

    def test_duplicate_distances_give_zero_nndr(self):
        score, pairs = label_score([[5.0], [5.0]], [[5.0]])
        assert pairs.nndr[0] == 0.0
        assert score == 1.0

    def test_strict_filter_drops_weak_matches(self):
        refs = [[0.95], [1.0]]
        relaxed, _ = label_score(refs, [[0.0]], AttackParams())
        strict, _ = label_score(refs, [[0.0]], AttackParams(nndr_threshold=0.9))
        assert relaxed > 0
        assert strict == 0.0

    def test_reference_side_unique(self, rng):
        query = rng.normal(size=(40, 4))
        _, pairs = label_score(rng.normal(size=(15, 4)), query)
        assert len(pairs.reference_indices) == len(set(pairs.reference_indices))
        assert len(pairs.query_indices) == len(set(pairs.query_indices))


class TestMatchInter:
    def test_self_match_wins_with_full_score(self, mini_spaces, mini_ensemble):
        query = describe(mini_spaces[1])
        result = match_inter(mini_ensemble, query)
        assert result.winner == "mini1"
        assert result.scores["mini1"] == pytest.approx(1.0, abs=1e-9)
        assert result.scores["mini1"] >= max(result.scores.values())

    def test_scores_bounded(self, mini_ensemble, rng):
        query = toy_space(rng.normal(size=(30, 128)))
        query = DescribedSpace(
            query.indices, query.positions,
            np.abs(query.descriptors)
            / np.linalg.norm(query.descriptors, axis=1, keepdims=True),
            query.params,
        )
        result = match_inter(mini_ensemble, query)
        for s in result.scores.values():
            assert 0.0 <= s <= 1.0

    def test_tie_goes_to_first_label(self):
        descs = np.zeros((3, SpinParams().length))
        descs[:, :2] = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        pool = (descs, np.zeros((3, 3)))
        ensemble = ReferenceEnsemble(packed({"a": pool, "b": pool}), SpinParams(), 5)
        result = match_inter(ensemble, toy_space(descs[:2]))
        assert result.scores["a"] == result.scores["b"]
        assert result.winner == "a"

    @pytest.mark.parametrize("strict", [False, True])
    def test_scores_and_pairs_are_the_per_label_loop(self, strict):
        """Random ensembles of 1 to 8 labels, some pools of two rows,
        rows repeated within and across labels, queries partly copied from
        the pools: each label's score and pairs equal, bitwise, those of a
        2-nn call on its pool alone, and the first label of the top score
        wins."""
        r = np.random.default_rng(2040 + strict)
        params = AttackParams(nndr_threshold=0.9 if strict else None)
        width = SpinParams().length
        for case in range(40):
            distinct = np.abs(r.normal(size=(int(r.integers(1, 40)), width)))
            pools = {}
            for g in range(int(r.integers(1, 9))):
                n = int(r.choice([2, int(r.integers(3, 300))]))
                rows = (distinct[r.integers(0, len(distinct), n)] if case % 2
                        else np.abs(r.normal(size=(n, width))))
                rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
                pools[f"l{g}"] = (rows, r.normal(size=(n, 3)))
            ensemble = ReferenceEnsemble(packed(pools), SpinParams(), 5)
            nq = int(r.integers(1, 200))
            query = np.abs(r.normal(size=(nq, width)))
            query /= np.linalg.norm(query, axis=1, keepdims=True)
            pooled = np.vstack([rows for rows, _ in pools.values()])
            copied = r.random(nq) < 0.5
            query[copied] = pooled[r.integers(0, len(pooled), copied.sum())]
            result = match_inter(ensemble, toy_space(query), params)
            for label, (rows, _) in pools.items():
                score, pairs = match_label_oracle(rows, toy_space(query), params)
                assert result.scores[label] == score, (case, label)
                for name in ("query_indices", "reference_indices", "nndr"):
                    got, expected = getattr(result.pairs[label], name), getattr(pairs, name)
                    assert got.dtype == expected.dtype, (case, label, name)
                    assert np.array_equal(got, expected), (case, label, name)
            top = max(result.scores.values())
            assert result.winner == next(label for label in ensemble.labels
                                         if result.scores[label] == top)

    def test_empty_query_rejected(self, mini_ensemble):
        with pytest.raises(ValueError):
            match_inter(mini_ensemble, toy_space(np.zeros((0, 2))))

    def test_query_with_other_binning_rejected(self, mini_spaces, mini_ensemble):
        query = describe(mini_spaces[1], SpinParams(bin_size=0.3))
        with pytest.raises(ValueError, match="ensemble with"):
            match_inter(mini_ensemble, query)

    def test_rigid_invariance_of_scores(self, mini_spaces, mini_ensemble, rng):
        part = mini_spaces[0].subset(ball_indices(mini_spaces[0],
                                                  mini_spaces[0].positions[100], 1.5))
        base = match_inter(mini_ensemble, describe(part)).scores
        for seed in range(5):
            moved = apply_transform(part, random_rigid_transform(seed))
            scores = match_inter(mini_ensemble, describe(moved)).scores
            for label in base:
                assert abs(scores[label] - base[label]) < 1e-6


class TestMatchIntra:
    def test_identity_survives_everywhere(self, rng):
        pts = rng.uniform(-3, 3, (12, 3))
        result = match_intra(pts, pts, np.zeros(12))
        assert not result.abstained
        assert np.all(result.survivor_mask)
        assert np.allclose(result.similarity, 1.0, atol=1e-12)
        assert np.allclose(result.centroid, pts.mean(axis=0), atol=1e-12)

    def test_too_few_pairs_abstains(self, rng):
        pts = rng.uniform(-1, 1, (5, 3))
        nndr = np.array([0.1, 0.2, 0.95, 0.99, 0.97])  # only 2 pass the gate
        assert match_intra(pts, pts, nndr).abstained

    def test_inconsistent_geometry_abstains(self, rng):
        q = rng.uniform(-1, 1, (6, 3))
        r = rng.uniform(50, 60, (6, 3)) * rng.normal(size=(6, 3))
        result = match_intra(q, r, np.zeros(6))
        assert result.abstained

    def test_outlier_rejected_inliers_survive(self):
        """One reference keypoint displaced 5 m among ten exact pairs.

        The survivor set is computed independently here with explicit loops
        over edges and angles; the implementation must agree, reject the
        outlier, and keep every exact pair.
        """
        rng = np.random.default_rng(42)
        q = np.column_stack(
            [rng.uniform(-15, 15, 11), rng.uniform(-15, 15, 11),
             rng.uniform(-0.5, 0.5, 11)]
        )
        r = q.copy()
        # Displace perpendicular to the flat point spread: inlier edge
        # lengths barely change while every edge at the outlier breaks.
        r[10] = q[10] + np.array([0.0, 0.0, 5.0])
        nndr = np.zeros(11)

        n = len(q)
        s_expected = np.zeros(n)
        for v in range(n):
            dist_terms, ang_q, ang_r = [], [], []
            for w in range(n):
                if w == v:
                    continue
                dist_terms.append(
                    np.exp(-0.5 * abs(
                        np.linalg.norm(q[v] - q[w]) - np.linalg.norm(r[v] - r[w])
                    ))
                )
            others = [w for w in range(n) if w != v]
            for a_i in range(len(others)):
                for b_i in range(a_i + 1, len(others)):
                    w1, w2 = others[a_i], others[b_i]
                    uq1 = (q[w1] - q[v]) / np.linalg.norm(q[w1] - q[v])
                    uq2 = (q[w2] - q[v]) / np.linalg.norm(q[w2] - q[v])
                    ur1 = (r[w1] - r[v]) / np.linalg.norm(r[w1] - r[v])
                    ur2 = (r[w2] - r[v]) / np.linalg.norm(r[w2] - r[v])
                    ang_q.append(uq1 @ uq2)
                    ang_r.append(ur1 @ ur2)
            ang_q, ang_r = np.asarray(ang_q), np.asarray(ang_r)
            s_phi = (ang_q @ ang_r) / (
                np.linalg.norm(ang_q) * np.linalg.norm(ang_r)
            )
            s_expected[v] = np.mean(dist_terms) * s_phi

        result = match_intra(q, r, nndr)
        assert not result.abstained
        assert np.allclose(result.similarity, s_expected, atol=1e-9)
        expected_mask = s_expected >= 0.95
        assert np.array_equal(result.survivor_mask, expected_mask)
        assert not expected_mask[10]        # outlier rejected
        assert np.all(expected_mask[:10])   # exact pairs survive
        assert np.allclose(result.centroid, r[:10].mean(axis=0), atol=1e-12)


def reference_similarity(q, r):
    """The per-vertex formula the blocked kernel replaced, kept as reference.

    Builds the full n x n distance matrices and, per vertex, its n - 1 edges
    with ``np.delete``. Also returns which vertices took the degenerate
    branch (an angle-set norm <= 0).
    """
    n = len(q)
    m = n - 1
    s_angle = np.ones(n)
    degenerate = np.zeros(n, dtype=bool)
    for v in range(n):
        uq = np.delete(q, v, axis=0) - q[v]
        ur = np.delete(r, v, axis=0) - r[v]
        uq /= np.maximum(np.linalg.norm(uq, axis=1), 1e-300)[:, None]
        ur /= np.maximum(np.linalg.norm(ur, axis=1), 1e-300)[:, None]
        dot_qr = (np.linalg.norm(uq.T @ ur) ** 2 - m) / 2.0
        norm_q = (np.linalg.norm(uq.T @ uq) ** 2 - m) / 2.0
        norm_r = (np.linalg.norm(ur.T @ ur) ** 2 - m) / 2.0
        if norm_q <= 0 or norm_r <= 0:
            degenerate[v] = True
            s_angle[v] = 1.0 if norm_q <= 0 and norm_r <= 0 else 0.0
        else:
            s_angle[v] = dot_qr / np.sqrt(norm_q * norm_r)
    dq = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
    dr = np.linalg.norm(r[:, None, :] - r[None, :, :], axis=2)
    edge_sim = np.exp(-0.5 * np.abs(dq - dr))
    np.fill_diagonal(edge_sim, 0.0)
    return edge_sim.sum(axis=1) / m * s_angle, degenerate


def kernel_case(kind, n, seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-3, 3, (n, 3))
    if kind == "duplicates":
        q[n // 2:] = q[: n - n // 2]
    elif kind == "collinear":
        q = np.outer(rng.uniform(-3, 3, n), rng.normal(size=3)) + rng.normal(size=3)
    elif kind in ("clusters", "half-clusters"):
        q = np.repeat(rng.uniform(-3, 3, (2, 3)), [n - 1, 1], axis=0)
    r = q + rng.normal(scale=0.03, size=(n, 3))
    r[rng.random(n) < 0.2] += rng.normal(scale=2.0, size=3)
    if kind == "clusters":
        r = q.copy()
    return q, r


class TestBlockedKernel:
    """The row-blocked ``match_intra`` against the per-vertex formula.

    Rows per block are max(1, _BLOCK_EDGES // n), 2**15 // n: n = 181 fits
    in one block, 182 needs two, 512 needs eight and 1500 needs 69 with a
    short last one.
    """

    @pytest.mark.parametrize(
        "kind,n",
        [("random", 3), ("random", 4), ("random", 40), ("random", 511),
         ("random", 512), ("random", 513), ("random", 1500),
         ("duplicates", 3), ("duplicates", 60), ("collinear", 3),
         ("collinear", 50), ("clusters", 7), ("half-clusters", 7),
         ("half-clusters", 600)],
    )
    def test_matches_per_vertex_formula(self, kind, n):
        for seed in range(3 if n < 600 else 1):
            q, r = kernel_case(kind, n, seed)
            expected, degenerate = reference_similarity(q, r)
            result = match_intra(q, r, np.zeros(n))
            assert np.max(np.abs(result.similarity - expected)) <= 1e-12
            assert np.array_equal(result.survivor_mask, expected >= 0.95)
            if kind.endswith("clusters"):
                assert degenerate.any()

    def test_gate_selects_rows_before_the_kernel(self, rng):
        q, r = kernel_case("random", 30, 5)
        nndr = rng.uniform(0, 1, 30)
        gate = nndr < AttackParams().t1
        expected, _ = reference_similarity(q[gate], r[gate])
        result = match_intra(q, r, nndr)
        assert np.max(np.abs(result.similarity - expected)) <= 1e-12

    def test_memory_is_bounded_by_the_block(self):
        q, r = kernel_case("random", 4000, 0)
        nndr = np.zeros(4000)
        tracemalloc.start()
        try:
            match_intra(q, r, nndr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The n x n x 3 tensors alone would take 4000**2 * 3 * 8 B = 384 MB.
        assert peak <= 48 * 2**20

    def test_preflight_sized_check_stays_small(self):
        """3387 gated pairs, a default space's self-query: blocks of 2**15
        edges with in-place temporaries keep the peak near 2.9 MB; blocks of
        2**16 took 6.7 MB and blocks of 2**18 26 MB."""
        q, r = kernel_case("random", 3387, 0)
        tracemalloc.start()
        try:
            match_intra(q, r, np.zeros(3387))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    @pytest.mark.parametrize("n", [181, 182, 255, 256, 257, 3387])
    def test_similarity_bits_do_not_depend_on_the_block(self, n, monkeypatch):
        """Around the block boundaries, the similarity is the per-vertex
        formula's to 1e-12 (n < 600, where the formula's n x n matrices are
        small) and bitwise the same with blocks of 2**18 edges and of one
        row."""
        q, r = kernel_case("random", n, 0)
        result = match_intra(q, r, np.zeros(n))
        if n < 600:
            expected, _ = reference_similarity(q, r)
            assert np.max(np.abs(result.similarity - expected)) <= 1e-12
            assert np.array_equal(result.survivor_mask, expected >= 0.95)
        for edges in (1 << 18, 1):
            monkeypatch.setattr(attacker, "_BLOCK_EDGES", edges)
            other = match_intra(q, r, np.zeros(n))
            assert np.array_equal(other.similarity, result.similarity), edges


class TestInfer:
    def test_transformed_partial_recovers_label_and_location(
        self, mini_spaces, mini_ensemble
    ):
        space = mini_spaces[2]
        part = space.subset(ball_indices(space, space.positions[50], 2.0))
        moved = apply_transform(part, random_rigid_transform(71))
        hyp = infer(mini_ensemble, moved)
        assert hyp.label == "mini2"
        if not hyp.abstained:
            truth = part.positions.mean(axis=0)
            assert np.linalg.norm(hyp.centroid - truth) < 2.0

    def test_unknown_space_still_guesses(self, mini_ensemble):
        stranger = generate_space(SyntheticSpaceSpec(density=50, seed=99), "other")
        hyp = infer(mini_ensemble, stranger)
        assert hyp.label in {"mini0", "mini1", "mini2"}

    def test_empty_query_errors(self, mini_ensemble):
        with pytest.raises(ValueError):
            infer(mini_ensemble, PointCloud(np.zeros((0, 3)), np.zeros((0, 3))))

    def test_hypothesis_holds_the_described_query(self, mini_spaces, mini_ensemble):
        hyp = infer(mini_ensemble, mini_spaces[1])
        fresh = describe(mini_spaces[1])
        assert np.array_equal(hyp.query.positions, fresh.positions)
        assert np.array_equal(hyp.query.descriptors, fresh.descriptors)

    def test_query_described_with_the_ensemble_settings(self, mini_spaces):
        params = SpinParams(bin_size=0.3, image_width=6)
        ensemble = build_reference(mini_spaces[:2], variant_params=(),
                                   desc_params=params, factor=7)
        hyp = infer(ensemble, mini_spaces[1])
        assert np.array_equal(hyp.query.indices,
                              describe(mini_spaces[1], params, 7).indices)
        assert hyp.query.params == params
        assert hyp.inter.scores["mini1"] == pytest.approx(1.0, abs=1e-9)


def counted_knn(monkeypatch):
    """Wrap the attacker's ``knn_bruteforce``; return the row counts it got."""
    rows = []
    original = attacker.knn_bruteforce

    def counted(references, queries, *args, **kwargs):
        rows.append(len(queries))
        return original(references, queries, *args, **kwargs)

    monkeypatch.setattr(attacker, "knn_bruteforce", counted)
    return rows


class TestQueryBatch:
    """Query clouds matched together: :func:`two_nn` ranks their rows in one
    kNN call, then one :func:`infer` call per cloud reads its rows."""

    @pytest.fixture(scope="class")
    def clouds(self, mini_spaces):
        """Two overlapping balls of one space, which share descriptor rows
        bit for bit, the first one again, and a ball of another space."""
        space = mini_spaces[0]
        first = space.subset(ball_indices(space, space.positions[40], 2.0))
        second = space.subset(ball_indices(space, space.positions[40] + 0.5, 2.0))
        other = mini_spaces[1].subset(ball_indices(mini_spaces[1], mini_spaces[1].positions[7], 2.0))
        return [first, second, first, other]

    def test_scores_and_pairs_are_each_cloud_alone(self, clouds, mini_ensemble, monkeypatch):
        described = [describe(c) for c in clouds]
        rows = np.concatenate([d.descriptors for d in described])
        distinct = len(np.unique(rows, axis=0))
        assert distinct < len(rows) - len(described[0])  # rows shared across clouds
        knn_rows = counted_knn(monkeypatch)
        neighbours = two_nn(mini_ensemble, described)
        assert knn_rows == [distinct]
        pools = [mini_ensemble.pool(label).descriptors for label in mini_ensemble.labels]
        for cloud, d, rows in zip(clouds, described, neighbours):
            lone = knn_bruteforce(pools, d.descriptors, k=2, prepared=mini_ensemble.prepared)
            for got, want in zip(rows, lone):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            result = match_inter(mini_ensemble, d, AttackParams(), rows)
            alone = match_inter(mini_ensemble, describe(cloud))
            assert result.scores == alone.scores and result.winner == alone.winner
            for label in mini_ensemble.labels:
                for name in ("query_indices", "reference_indices", "nndr"):
                    got, want = getattr(result.pairs[label], name), getattr(alone.pairs[label], name)
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_infer_reads_the_batch(self, clouds, mini_ensemble, monkeypatch):
        described = [describe(c) for c in clouds]
        neighbours = two_nn(mini_ensemble, described)
        knn_rows = counted_knn(monkeypatch)
        monkeypatch.setattr(attacker, "describe", None)   # infer describes nothing
        hyps = [infer(mini_ensemble, cloud, described=d, neighbours=rows)
                for cloud, d, rows in zip(clouds, described, neighbours)]
        assert knn_rows == []
        monkeypatch.undo()
        for cloud, hyp in zip(clouds, hyps):
            alone = infer(mini_ensemble, cloud)
            assert (hyp.label, hyp.abstained) == (alone.label, alone.abstained)
            assert np.array_equal(hyp.centroid, alone.centroid)
            assert np.array_equal(hyp.intra.similarity, alone.intra.similarity)

    def test_unusable_cloud_raises_from_its_own_infer(self, clouds, mini_ensemble):
        unusable = PointCloud(clouds[0].positions, clouds[0].normals,
                              reliable=np.zeros(len(clouds[0]), dtype=bool))
        with pytest.raises(UnusableSpaceError):
            describe(unusable)
        described = [describe(clouds[0]), describe(clouds[3])]
        first, last = two_nn(mini_ensemble, described)
        assert infer(mini_ensemble, clouds[0], described=described[0],
                     neighbours=first).label == "mini0"
        with pytest.raises(UnusableSpaceError):
            infer(mini_ensemble, unusable)
        assert infer(mini_ensemble, clouds[3], described=described[1],
                     neighbours=last).label == "mini1"

    def test_no_queries_give_no_neighbours(self, mini_ensemble, monkeypatch):
        knn_rows = counted_knn(monkeypatch)
        assert two_nn(mini_ensemble, []) == []
        assert knn_rows == []


class TestRawView:
    @staticmethod
    def assert_is_the_raw_description(ensemble, space):
        view = raw_view(ensemble, space)
        fresh = describe(space, ensemble.params, ensemble.factor)
        for name in ("indices", "positions", "descriptors"):
            got, expected = getattr(view, name), getattr(fresh, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        assert view.params == fresh.params
        pool = ensemble.pool(space.label)
        # The descriptors are a dense copy of the packed raw rows alone.
        assert not np.shares_memory(view.descriptors, pool.descriptors.values)
        assert np.shares_memory(view.positions, pool.positions)

    def test_built_ensemble(self, mini_spaces, mini_ensemble):
        for space in mini_spaces:
            self.assert_is_the_raw_description(mini_ensemble, space)

    def test_round_tripped_ensemble(self, mini_spaces, tmp_path):
        path = tmp_path / "e.spen"
        save_ensemble(build_reference(mini_spaces, factor=7, seed=0,
                                      desc_params=SpinParams(bin_size=0.15, image_width=6)),
                      path)
        loaded = load_ensemble(path)
        for space in mini_spaces:
            self.assert_is_the_raw_description(loaded, space)

    def test_matching_the_view_is_inferring_the_space(self, mini_spaces, mini_ensemble):
        viewed = infer(mini_ensemble, mini_spaces[1],
                       described=raw_view(mini_ensemble, mini_spaces[1]))
        inferred = infer(mini_ensemble, mini_spaces[1])
        assert viewed.label == inferred.label == "mini1"
        assert viewed.inter.scores == inferred.inter.scores
        assert viewed.centroid.tobytes() == inferred.centroid.tobytes()
        assert viewed.intra.similarity.tobytes() == inferred.intra.similarity.tobytes()

    def test_pool_shorter_than_the_keypoints_rejected(self, mini_spaces, mini_ensemble):
        pool = mini_ensemble.pool("mini0")
        short = ReferenceEnsemble({"mini0": (PackedRows.pack(pool.descriptors.dense(slice(3))),
                                             pool.positions[:3])},
                                  mini_ensemble.params, mini_ensemble.factor)
        with pytest.raises(ValueError, match="fewer than its"):
            raw_view(short, mini_spaces[0])


def described_variants(space, space_idx, seed=0):
    """The raw and default-generalized descriptions ``build_reference`` stacks."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(space_idx, 0)))
    generalized = project_to_planes(space, ransac_planes(space, GeneralizationParams(), rng))
    return describe(space), describe(generalized)


def ensemble_file(labels, entries, bin_size=0.1, image_width=2, factor=5, version=2):
    """A version-2 ensemble file written field by field."""
    fh = io.BytesIO()
    fh.write(b"SPEN" + struct.pack("<IdIII", version, bin_size, image_width, factor, labels))
    for label, descriptors, positions in entries:
        _write_text(fh, label)
        _write_array(fh, descriptors, "<f8")
        _write_array(fh, positions, "<f8")
    return fh.getvalue()


class TestBuildReference:
    def test_variant_bookkeeping(self, mini_spaces, mini_ensemble):
        assert mini_ensemble.labels == ["mini0", "mini1", "mini2"]
        assert mini_ensemble.params == SpinParams()
        assert mini_ensemble.factor == 5
        for idx, label in enumerate(mini_ensemble.labels):
            raw, generalized = described_variants(mini_spaces[idx], idx)
            pool = mini_ensemble.pool(label)
            assert len(pool.descriptors) == len(raw) + len(generalized)
            assert len(pool.positions) == len(pool.descriptors)

    def test_no_generalized_variants(self, mini_spaces):
        ensemble = build_reference(mini_spaces[:2], variant_params=(), seed=0)
        for space, label in zip(mini_spaces, ensemble.labels):
            raw = describe(space)
            assert np.array_equal(ensemble.pool(label).descriptors.dense(), raw.descriptors)
            assert np.array_equal(ensemble.pool(label).positions, raw.positions)

    def test_pools_keep_the_nonzero_entries_alone(self, mini_spaces, mini_ensemble):
        """The descriptors an ensemble retains take about a mask bit per
        entry, a row offset and 8 bytes per nonzero entry, far below the 8
        bytes per entry of dense rows; the ranking copy and positions
        come on top. (``mini_ensemble`` was built first, so the imports a
        first build makes are not counted.)"""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ensemble = build_reference(mini_spaces, seed=0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        pools = [ensemble.pool(label) for label in ensemble.labels]
        rows = sum(len(pool.descriptors) for pool in pools)
        nonzero = sum(np.count_nonzero(pool.descriptors.dense()) for pool in pools)
        rest = (sum(pool.positions.nbytes for pool in pools)
                + ensemble.prepared[0].nbytes + ensemble.prepared[2].nbytes)
        dim = ensemble.params.length
        per_row = (retained - rest) / rows
        assert per_row <= dim / 8 + 8 + 8 * nonzero / rows + 16
        assert per_row < 0.6 * 8 * dim

    def test_pool_concatenates_variants(self, mini_spaces, mini_ensemble):
        raw, generalized = described_variants(mini_spaces[0], 0)
        pool = mini_ensemble.pool("mini0")
        assert np.array_equal(pool.descriptors.dense(),
                              np.vstack([raw.descriptors, generalized.descriptors]))
        assert np.array_equal(pool.positions,
                              np.vstack([raw.positions, generalized.positions]))

    def test_one_row_pool_rejected(self, mini_spaces, tmp_path):
        """A space of fewer points than the keypoint factor describes to one
        row; without generalized variants its pool is that row, which
        build_reference rejects as an unusable space and a cache holding it
        as malformed."""
        space = mini_spaces[0]
        tiny = space.subset(np.arange(4)).with_label("tiny")
        with pytest.raises(UnusableSpaceError, match="one descriptor row in tiny"):
            build_reference([space, tiny], variant_params=(), seed=0)
        d8, pos = np.arange(16, dtype=float).reshape(2, 8), np.ones((2, 3))
        path = tmp_path / "e.spen"
        path.write_bytes(ensemble_file(2, [("a", d8, pos), ("b", d8[:1], pos[:1])]))
        with pytest.raises(CacheFormatError, match="label 'b'"):
            load_ensemble(path)

    def test_duplicate_labels_rejected(self, mini_spaces):
        with pytest.raises(ValueError):
            build_reference([mini_spaces[0], mini_spaces[0]], seed=0)

    def test_threaded_build_is_the_serial_build(self, mini_spaces, mini_ensemble):
        with ThreadPoolExecutor(3) as pool:
            threaded = build_reference(mini_spaces, seed=0, map_fn=pool.map)
        assert threaded.labels == mini_ensemble.labels
        for label in threaded.labels:
            mine, theirs = threaded.pool(label), mini_ensemble.pool(label)
            for got, expected in ((mine.descriptors.dense(), theirs.descriptors.dense()),
                                  (mine.positions, theirs.positions)):
                assert got.tobytes() == expected.tobytes() and got.shape == expected.shape
        for got, expected in zip(threaded.prepared, mini_ensemble.prepared):
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_cache_round_trip_and_rebuild_identical(
        self, tmp_path, mini_spaces
    ):
        params = SpinParams(bin_size=0.15, image_width=6)
        p1, p2, p3 = (tmp_path / f"e{i}.spen" for i in (1, 2, 3))
        fresh = build_reference(mini_spaces, desc_params=params, factor=7, seed=0)
        save_ensemble(fresh, p1)
        save_ensemble(build_reference(mini_spaces, desc_params=params, factor=7, seed=0), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_ensemble(p1)
        assert loaded.labels == ["mini0", "mini1", "mini2"]
        assert loaded.params == params
        assert loaded.factor == 7
        for label in fresh.labels:
            assert np.array_equal(loaded.pool(label).descriptors.dense(),
                                  fresh.pool(label).descriptors.dense())
            assert np.array_equal(loaded.pool(label).positions, fresh.pool(label).positions)
        sq_norms, e, copy = loaded.prepared
        assert np.array_equal(sq_norms, fresh.prepared[0])
        assert e == fresh.prepared[1]
        assert np.array_equal(copy, fresh.prepared[2])
        save_ensemble(loaded, p3)
        assert p3.read_bytes() == p1.read_bytes()

    def test_every_malformed_file_raises_cache_format_error(self, tmp_path):
        d8 = np.arange(24, dtype=float).reshape(3, 8)
        pos = np.ones((3, 3))
        entries = [("a", d8, pos), ("b", d8[:2], pos[:2])]
        path = tmp_path / "e.spen"
        data = ensemble_file(2, entries)
        save_ensemble(ReferenceEnsemble(packed({"a": (d8, pos), "b": (d8[:2], pos[:2])}),
                                        SpinParams(image_width=2), 5), path)
        assert path.read_bytes() == data
        bad = [data[:cut] for cut in range(len(data))]
        bad += [data + b"\0", b"XXXX" + data[4:],
                ensemble_file(2, entries, version=1), ensemble_file(2, entries, version=3)]
        bad += [
            ensemble_file(0, []),
            ensemble_file(2, [entries[0], entries[0]]),
            ensemble_file(1, [("a", d8[:0], pos[:0])]),
            ensemble_file(1, [("a", d8[:, :4], pos)]),
            ensemble_file(1, [("a", d8, pos[:2])]),
            ensemble_file(1, [("abc", d8, pos)]).replace(b"abc", b"\xff\xfe\xfd", 1),
            ensemble_file(2, entries, bin_size=0.0),
            ensemble_file(2, entries, bin_size=-0.1),
            ensemble_file(2, entries, bin_size=np.nan),
            ensemble_file(2, entries, image_width=1),
            ensemble_file(2, entries, image_width=0),
        ]
        # The first array stores shape (4, 8) for its 24 values: magic, the
        # header, label "a", then the array's ndim and value count.
        shape_at = 4 + 24 + 4 + 1 + 1 + 4
        bad.append(data[:shape_at] + (4).to_bytes(4, "little") + data[shape_at + 4:])
        # A non-finite value would be every query's neighbour at distance NaN.
        for bad_value in (np.nan, np.inf):
            d_bad, pos_bad = d8.copy(), pos.copy()
            d_bad[1, 3] = pos_bad[2, 0] = bad_value
            bad += [ensemble_file(2, [("a", d_bad, pos), entries[1]]),
                    ensemble_file(2, [entries[0], ("b", d8[:2], pos_bad[1:])])]
        for blob in bad:
            path.write_bytes(blob)
            with pytest.raises(CacheFormatError):
                load_ensemble(path)
        path.write_bytes(data)
        assert load_ensemble(path).labels == ["a", "b"]

    @pytest.mark.parametrize("field", ["label", "array"])
    def test_oversized_header_raises_before_allocating(self, field, tmp_path):
        """A file of about a hundred bytes whose label length declares
        2**32 - 1 bytes, or whose array header declares 2**31 values (16 GiB),
        raises CacheFormatError without a read of that size."""
        fh = io.BytesIO()
        fh.write(b"SPEN" + struct.pack("<IdIII", 2, 0.1, 2, 5, 1))
        if field == "label":
            fh.write(struct.pack("<I", 2**32 - 1) + b"a")
        else:
            _write_text(fh, "a")
            fh.write(struct.pack("<BII", 1, 2**31, 2**31))
        path = tmp_path / "huge.spen"
        path.write_bytes(fh.getvalue() + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(CacheFormatError, match="cut short"):
                load_ensemble(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_dense_descriptors_are_rejected(self):
        """Pools hold packed descriptors only: dense rows raise, naming the label."""
        rows = np.abs(np.random.default_rng(8).normal(size=(4, SpinParams().length)))
        pools = packed({"a": (rows, np.zeros((4, 3)))})
        pools["b"] = (rows, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="label 'b' descriptors are not a PackedRows"):
            ReferenceEnsemble(pools, SpinParams(), 5)
