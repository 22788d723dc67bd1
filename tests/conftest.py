"""Fixtures shared across the test modules."""

import pytest

from projcone import matrices


@pytest.fixture
def aleph_scans(monkeypatch):
    """``(rows, dtype)`` of each table contraction_coeff builds with the ratio kernel ``_aleph_columns``, in call order: its rows are those with support."""
    scans = []
    scan = matrices._aleph_columns

    def spy(M, *args, **kwargs):
        scans.append((M.shape[0], M.dtype))
        return scan(M, *args, **kwargs)

    monkeypatch.setattr(matrices, "_aleph_columns", spy)
    return scans
