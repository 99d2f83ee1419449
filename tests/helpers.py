"""Cached ground-truth oracles shared across test modules.

The dense oracles (Power-Method S, exact D) cost seconds per graph; tests
reference them by registry name so one computation serves every test in the
session.
"""
from functools import lru_cache

import numpy as np

from repro.baselines.power_method import simrank_power
from repro.core import diagonal
from repro.graphs import generators as gen


@lru_cache(maxsize=None)
def power_truth(name: str, c: float = 0.6, tol: float = 1e-11) -> np.ndarray:
    return simrank_power(gen.load(name), c=c, tol=tol)


@lru_cache(maxsize=None)
def exact_d(name: str, c: float = 0.6, tol: float = 1e-11) -> np.ndarray:
    return diagonal.exact_diagonal_linsys(gen.load(name), c=c, tol=tol)


@lru_cache(maxsize=None)
def exact_d_power(name: str, c: float = 0.6, tol: float = 1e-12) -> np.ndarray:
    return diagonal.exact_diagonal(gen.load(name), c=c, tol=tol)


#: ``P``'s weighted edges ``(src, dst, w = 1/d_in(dst))``, derived by DuckDB
#: from the ``edges`` table alone, independently of the code under test.
TRANSITION_SQL = "SELECT src, dst, 1.0 / COUNT(*) OVER (PARTITION BY dst) AS w FROM edges"
