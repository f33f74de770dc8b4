"""Fixtures shared by more than one test module."""

import pytest

import kerrqgt.eigensolver as eigensolver


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Fail the test at the first tridiagonal eigensolve of the package,
    bisected or seeded."""
    def solve(*args, **kwargs):
        raise AssertionError("a tridiagonal eigensolve was made")

    monkeypatch.setattr(eigensolver, "_lowest_pair", solve)
    monkeypatch.setattr(eigensolver, "_seeded_pairs", solve)
