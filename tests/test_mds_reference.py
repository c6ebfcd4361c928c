"""The MDS helpers against the loop forms in mds_reference.py.

The block sums, the tie-block scan and the pool-adjacent-violators stack
do the same float64 arithmetic in the same order as the loops, so tie
blocks and disparities must be equal, and stress agree to 1e-15.
"""

from __future__ import annotations

import mds_reference
import numpy as np
import pytest

from coactive import cluster, mds_embed

STRESS_TOL = 1e-15
POINTS_TOL = 1e-12


def _euclid(X):
    return np.sqrt(((X[:, None] - X[None, :]) ** 2).sum(-1))


def _all_equal():
    D = 0.7 * (np.ones((9, 9)) - np.eye(9))
    dist = np.random.default_rng(1).uniform(0.1, 2.0, size=36)
    return D, dist


def _noisy():
    rng = np.random.default_rng(4)
    D = _euclid(rng.normal(size=(14, 2)))
    noise = rng.uniform(0, 0.4, size=D.shape)
    D = D + 0.5 * (noise + noise.T)
    np.fill_diagonal(D, 0.0)
    dist = _euclid(rng.normal(size=(14, 2)))[np.triu_indices(14, 1)]
    return D, dist


def _duplicated_members():
    # members 0-2 and 5-6 are copies: their dissimilarities are exact zeros
    base, _ = _noisy()
    copies = [0, 0, 0, 1, 2, 3, 3, 4, 5, 6]
    dist = _euclid(np.random.default_rng(3).normal(size=(10, 2)))[np.triu_indices(10, 1)]
    return base[np.ix_(copies, copies)], dist


def _decreasing():
    n = 8
    iu = np.triu_indices(n, 1)
    D = np.zeros((n, n))
    D[iu] = np.arange(1, iu[0].size + 1) / iu[0].size
    D += D.T
    order = np.argsort(D[iu], kind="stable")
    dist = np.empty(iu[0].size)
    dist[order] = np.linspace(3.0, 0.5, iu[0].size)
    return D, dist


CASES = {
    "all_equal": _all_equal,
    "duplicated_members": _duplicated_members,
    "decreasing": _decreasing,
    "noisy": _noisy,
}


def _prepared(D):
    diss = D[np.triu_indices(D.shape[0], 1)]
    order = np.argsort(diss, kind="stable")
    return order, diss[order]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stress_matches_loop_reference(case):
    D, dist = CASES[case]()
    order, d_sorted = _prepared(D)
    blocks = cluster._tie_blocks(d_sorted)
    ref_blocks = mds_reference._tie_blocks(d_sorted)
    assert blocks.tolist() == ref_blocks

    stress, dhat = cluster._stress(dist, order, blocks)
    ref_stress, ref_dhat = mds_reference._stress(dist, order, ref_blocks)
    assert abs(stress - ref_stress) <= STRESS_TOL
    np.testing.assert_array_equal(dhat, ref_dhat)
    assert 0.0 < stress < 1.0

    # each input has the shape its name claims
    sizes = np.diff(blocks)
    if case == "all_equal":
        assert sizes.tolist() == [dist.size]
    elif case == "duplicated_members":
        assert d_sorted[:4].tolist() == [0.0] * 4 and d_sorted[4] > 0.0
        assert sizes[0] == 4 and np.all(sizes[1:] >= 1)
    elif case == "decreasing":
        assert np.all(sizes == 1)
        np.testing.assert_allclose(dhat, dist.mean(), rtol=1e-15)
    else:
        assert np.all(sizes == 1)


def test_pava_pools_by_block_weight():
    # the heavy first block pulls the pooled value toward itself
    y = np.array([3.0, 1.0, 2.0])
    w = np.array([4.0, 1.0, 1.0])
    out = cluster._pava(y, w)
    np.testing.assert_array_equal(out, mds_reference._pava(y, w))
    np.testing.assert_array_equal(out, [2.5, 2.5, 2.5])
    assert cluster._pava(np.array([1.0, 2.0]), np.ones(2)).tolist() == [1.0, 2.0]


def test_pava_matches_the_loop_reference_bitwise():
    # runs that pool across many blocks, none, all of them, and equal
    # neighbours, under unit and uneven weights
    rng = np.random.default_rng(9)
    ys = [np.sort(rng.uniform(size=40)) + 0.3 * rng.uniform(size=40) for _ in range(20)]
    ys += [np.arange(12.0), np.arange(12.0)[::-1], np.repeat([2.0, 1.0, 3.0], 4), np.array([5.0])]
    for y in ys:
        for w in (np.ones(y.size), rng.integers(1, 5, size=y.size).astype(float)):
            out = cluster._pava(y, w)
            assert out.tobytes() == mds_reference._pava(y, w).tobytes()
            assert np.all(np.diff(out) >= 0.0)


@pytest.mark.parametrize("case", ["duplicated_members", "noisy"])
def test_mds_embed_matches_loop_reference(case, monkeypatch):
    D, _ = CASES[case]()
    fast = mds_embed(D, dims=2)
    monkeypatch.setattr(cluster, "_tie_blocks", mds_reference._tie_blocks)
    monkeypatch.setattr(cluster, "_stress", mds_reference._stress)
    ref = mds_embed(D, dims=2)
    assert len(fast.stress_history) == len(ref.stress_history) > 2
    np.testing.assert_allclose(fast.stress_history, ref.stress_history, rtol=0, atol=STRESS_TOL)
    np.testing.assert_allclose(fast.points, ref.points, rtol=0, atol=POINTS_TOL)
