"""Shared fixtures: the enumerated small-ring populations are expensive
enough to compute once per session and reuse across test modules."""

import pytest

from finring import enumerate_unital_rings


@pytest.fixture(scope="session")
def enum_raw():
    """All unital rings by order, raw (every labeled table), orders 2..8."""
    return {n: list(enumerate_unital_rings(n)) for n in range(2, 9)}


@pytest.fixture(scope="session")
def enum_iso():
    """One representative per isomorphism class, orders 2..8."""
    return {n: list(enumerate_unital_rings(n, up_to_iso=True)) for n in range(2, 9)}


@pytest.fixture(scope="session")
def order_16_classes():
    """One representative per isomorphism class of order 16, on a node budget
    ample for the pinned tree (3.83 M nodes, nearly all on (2,2,2,2))."""
    return list(enumerate_unital_rings(16, up_to_iso=True, budget=10 ** 7))
