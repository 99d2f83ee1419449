"""Cached ground-truth oracles and references shared across test modules.

The dense oracles (Power-Method S, exact D) cost seconds per graph; tests
reference them by registry name so one computation serves every test in the
session.
"""
from functools import lru_cache

import numpy as np
import pandas as pd

from repro.baselines.power_method import simrank_power
from repro.core import diagonal
from repro.graphs import generators as gen
from repro.linalg import matvec as mv
from repro.walks.pair_walks import MAX_STEPS


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


def expand_sparse(csr, keys, val, *, prune=0.0):
    """``matvec.push_blocks``' blocks joined into one ``(keys, values,
    edges_traversed)``: the whole push of every row, keys sorted."""
    blocks = list(mv.push_blocks(csr, keys, val, prune=prune))
    if not blocks:
        return keys[:0], val[:0], 0
    out, acc, edges = zip(*blocks)
    return np.concatenate(out), np.concatenate(acc), sum(edges)


def trace_frame(index) -> pd.DataFrame:
    """An MC index's rows as the trace table ``(node, r, step, pos)``,
    unpacked from its ``walk = node·R + r`` and its key
    ``(r·(MAX_STEPS+1) + step)·span + pos``."""
    R = index.r_per_node
    return pd.DataFrame(
        {
            "node": index.walk // R,
            "r": index.walk % R,
            "step": (index.key // index.span) % (MAX_STEPS + 1),
            "pos": index.key % index.span,
        }
    )
