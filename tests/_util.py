"""Shared random-corpus generators, a batched distance helper, the float64 pair reduction and its report fields, and a ``_support`` spy."""

import numpy as np

from projcone import cone, pseudo_distance
from projcone.matrices import _first_smallest, _pair_products


def random_cone_vector(rng, dim, zero_prob=0.0, log_uniform=False):
    """Random cone vector with optional exact zeros and log-uniform magnitudes."""
    if log_uniform:
        v = 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
    else:
        v = rng.uniform(0.05, 10.0, size=dim)
    if zero_prob > 0.0:
        mask = rng.random(dim) < zero_prob
        v = np.where(mask, 0.0, v)
    if not (v > 0.0).any():
        v[int(rng.integers(dim))] = 1.0
    return v


def random_cone_preserving_matrix(rng, dim, zero_prob=0.3):
    """Random nonnegative matrix with a random zero pattern and no zero column."""
    M = rng.uniform(0.1, 10.0, size=(dim, dim))
    mask = rng.random((dim, dim)) < zero_prob
    for j in range(dim):
        if mask[:, j].all():
            mask[int(rng.integers(dim)), j] = False
    return np.where(mask, 0.0, M)


def farthest_pair(al):
    """``(m_min, witness)`` of the float64 aleph table ``al``: its smallest pair product and first pair at it, read row by row
    over ``i < j`` by ``_first_smallest``."""
    n = al.shape[0]
    return _first_smallest((_pair_products(al[i, i + 1:], al[i + 1:, i]), i, np.arange(i + 1, n)) for i in range(n - 1))


def c_and_a_star(m):
    """``(c, a_star)`` of a strict matrix whose smallest pair product is ``m``, as ``ContractionReport`` derives them."""
    return (1.0 - m) / (1.0 + m), m**-0.5 if m > 0.0 else None


def batch_pseudo_distance(F, G):
    """Columnwise bounded distances between two stacks of cone vectors.

    Same divisions and reductions as pseudo_distance column by column
    (cross-checked in the tests that use it); exists so volume property
    checks stay fast.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    fpos = F > 0.0
    gpos = G > 0.0
    rfg = np.where(fpos, G / np.where(fpos, F, 1.0), np.inf).min(axis=0)
    rgf = np.where(gpos, F / np.where(gpos, G, 1.0), np.inf).min(axis=0)
    m = np.minimum(rfg * rgf, 1.0)
    return (1.0 - m) / (1.0 + m)


def assert_batch_matches_scalar(F, G, count=5):
    """Spot-check the batched helper against the scalar public route."""
    d = batch_pseudo_distance(F, G)
    for k in range(min(count, F.shape[1])):
        assert d[k] == pseudo_distance(F[:, k], G[:, k])


def support_calls(monkeypatch, *modules):
    """Shapes of the arrays passed to ``_support``, through each module's name for it, from now on."""
    shapes, support = [], cone._support

    def spy(a, zero_tol):
        shapes.append(np.shape(a))
        return support(a, zero_tol)

    for module in modules:
        monkeypatch.setattr(module, "_support", spy)
    return shapes
