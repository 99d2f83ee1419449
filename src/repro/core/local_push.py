"""Algorithm 3 — local deterministic exploitation for ``D(k,k)``.

The first-meeting decomposition ``D(k,k) = 1 − Σ_ℓ Z_ℓ(k)`` (eq. 12) lets us
compute the head ``Σ_{ℓ<=ℓ(k)} Z_ℓ(k)`` *exactly* via the Lemma-4 recursion

    Z_ℓ(k,q) = c^ℓ M^ℓ(k,q)² − Σ_{t=1}^{ℓ-1} Σ_{q'} c^{ℓ-t} M^{ℓ-t}(q',q)² Z_t(k,q')

(``M = Pᵀ`` is the walk transition matrix), and estimate only the tail
``Σ_{ℓ>ℓ(k)} Z_ℓ(k) = c^{ℓ(k)}·Pr[survive ℓ(k) un-met ∧ √c-continuations
meet]`` with the non-stop pair walks from ``walks.pair_walks``.  The head
keeps one packed row set: every live ``M^t(q',·)`` row is a run of
``row·n + node`` keys, its birth level and its coefficient ``Z_t(k,q')`` sit
in two per-row arrays, and a level is one push of all rows
(``linalg.matvec.push_blocks``) whose cache-sized blocks are folded into
``Z_ℓ`` and into the next level as they come.  The blocks of a level are
pushed on ``matvec.PUSH_THREADS`` threads and arrive in block order, while
the fold stays serial in the caller's thread, so ``Z_ℓ`` and every score
keep their bits.  The next level stops being stored as soon as its cost is
out of budget, so the last level a head pushes is never held whole.

``ℓ(k)`` is chosen adaptively: expansion stops once the traversed-edge
counter ``E_k`` exceeds ``2R(k)/√c`` — the expected edge cost of simulating
the ``R(k)`` pairs — exactly Algorithm 3's budget rule.  Every node with
``d_in(k) > 1`` then walks its ``⌈R(k)·c^{ℓ(k)}⌉`` tail pairs.

Nodes run in Algorithm 2's batches (``pair_walks.simulate_pairs``, §3.2
"Parallelization"); :func:`estimate_batch` is the per-batch estimator, and
returns numpy arrays aligned with its batch's nodes.  A
node whose level 1 alone costs more than its budget — the first test
``meeting_head`` makes — keeps ``ℓ(k) = 0`` without a head call.  A node
that affords level 1 but not level 2 gets ``ℓ(k) = 1`` and its ``Z_1(k)``
from one vectorized pass over the whole batch, with the bits
``meeting_head`` would return; on DB-lite these are ~96% of the heads.  The
other nodes get one ``meeting_head`` call each, and the batch's tails walk
through ``pair_walks.count_meetings``: slices of ``CHUNK`` pairs, each on its
own stream, spread over one thread per core.  One hub node (the source
itself) can hold most of a query's work: on Spark its batch (batch 0, the
largest ``R(k)``) shares a task only with batches ``par, 2·par, …``, and
that task sets the phase's time; its head's blocks still use
``PUSH_THREADS`` threads and its tail slices every core.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pandas as pd

from repro.graphs.graph import CSRGraph, Graph
from repro.linalg import matvec as mv
from repro.walks import pair_walks
from repro.walks.pair_walks import pair_meet_count

#: Entries below this magnitude are dropped from sparse rows/Z vectors during
#: expansion.  Introduces error << 1e-10 per node — far below ε_min — while
#: keeping supports from exploding on dense graphs.
PRUNE = 1e-15

#: Hard cap on the deterministic depth; c^40 ≈ 1e-9 so deeper heads cannot
#: change the 1e-7 digit.
MAX_LEVEL = 40


@dataclass
class HeadResult:
    """Deterministic head of the first-meeting series for one node."""

    ell: int  # ℓ(k): levels computed exactly
    z_sum: float  # Σ_{ℓ<=ℓ(k)} Z_ℓ(k)
    edges: int  # E_k actually traversed


def meeting_head(csr: CSRGraph, k: int, *, c: float, budget_edges: int) -> HeadResult:
    """Exact ``Σ_{ℓ<=ℓ(k)} Z_ℓ(k)`` with adaptive depth under an edge budget.

    Row ``r`` holds ``M^{ℓ-t_r}(q_r,·)`` entering level ``ℓ``: the node's own
    row (``q = k``, ``t = 0``, ``z = -1``), or the row born at level ``t`` for
    ``q ∈ supp Z_t`` with ``z = Z_t(k,q)``.  Lemma 4 is then one sum over
    rows, ``Z_ℓ(k,·) = Σ_r -c^{ℓ-t_r} z_r M^{ℓ-t_r}(q_r,·)²``.  All live
    entries sit under ``r·n + node`` keys with ``r`` in birth order, so a
    level is one push of all rows, whatever their number, and each
    ``Z_ℓ(k,q)`` adds its terms in birth order.  The traversal cost of a
    level is known *before* paying it (sum of in-degrees over all row
    entries), so the budget check aborts a level without partial work,
    mirroring Algorithm 3's ``E_k`` counter at level granularity.

    A level is streamed through ``linalg.matvec.push_blocks``' cache-sized
    blocks: each block's Lemma-4 terms go straight into ``Z_ℓ``, and its
    entries are kept for the next level, which is joined only once the
    level has ended and the next one is affordable.
    A level of at least ``n`` pushed edges sums ``Z_ℓ`` into a dense vector
    with ``np.add.at``, a smaller one collects its terms for one
    ``accumulate``; both add each node's terms in input order, as one
    ``accumulate`` over the whole level would.  The next level's cost grows
    block by block, and once it is out of budget the level stops storing
    entries: the loop stops after this level anyway, and the rest of the
    level only adds its ``Z_ℓ`` terms.
    """
    n = csr.n
    c_pow = np.array([c**j for j in range(MAX_LEVEL + 1)])
    keys = np.array([k], dtype=np.int64)
    val = np.ones(1)
    birth = np.zeros(1, dtype=np.int64)  # t_r
    coef = np.full(1, -1.0)  # z_r
    cost = int(csr.din[k])  # edges the next level pushes
    z_sum = 0.0
    edges = 0
    ell_done = 0
    for ell in range(1, MAX_LEVEL + 1):
        if edges + cost > budget_edges:
            break  # unaffordable level: ℓ(k) stays at ell-1 (0 ⇒ Algorithm 2)
        edges += cost
        # Edges the next level may cost; no next level once they run out.
        room = budget_edges - edges
        store = ell < MAX_LEVEL and c**ell >= PRUNE
        next_cost = 0
        kept_keys, kept_val = [], []
        dense = cost >= n
        if dense:
            z = np.zeros(n)
        else:
            z_node, z_term = [keys[:0]], [val[:0]]
        scale = -c_pow[ell - birth]
        # Entries at dead ends or pruned away vanish; so do rows left empty.
        for bkeys, bval, _ in mv.push_blocks(csr, keys, val, prune=PRUNE):
            # Lemma 4: each term is (-c^{ℓ-t} · M²) · z, so the own row's
            # z = -1 only flips a sign: its terms are c^ℓ · M².
            rid = bkeys // n  # np.divmod is ~6× slower than // and a multiply
            node = bkeys - rid * n
            term = scale[rid] * bval**2 * coef[rid]
            if dense:
                np.add.at(z, node, term)
            else:
                z_node.append(node)
                z_term.append(term)
            if store:
                next_cost += int(csr.din[node].sum())
                store = next_cost <= room
                if store:
                    kept_keys.append(bkeys)
                    kept_val.append(bval)
        if dense:
            zi = np.flatnonzero(np.abs(z) > PRUNE)
            zv = z[zi]
        else:
            zi, zv = mv.accumulate(
                np.concatenate(z_node), np.concatenate(z_term), n, prune=PRUNE
            )
        z_sum += float(zv.sum())
        ell_done = ell
        if not store:
            break
        # This level's first-meeting nodes start rows after all older ones.
        next_cost += int(csr.din[zi].sum())
        if next_cost > room:
            break
        new_rid = coef.size + np.arange(zi.size, dtype=np.int64)
        keys = np.concatenate([*kept_keys, new_rid * n + zi])
        val = np.concatenate([*kept_val, np.ones(zi.size)])
        birth = np.concatenate([birth, np.full(zi.size, ell, dtype=np.int64)])
        coef = np.concatenate([coef, zv])
        cost = next_cost
        if not keys.size:
            break
    return HeadResult(ell=ell_done, z_sum=z_sum, edges=edges)


def estimate_batch(
    csr: CSRGraph,
    nodes: np.ndarray,
    r: np.ndarray,
    *,
    c: float,
    rng: np.random.Generator,
) -> pair_walks.Estimates:
    """Full Algorithm 3 for a batch of nodes: heads, then the tails.

    Returns ``(D̂(k,k), ℓ(k), pairs actually simulated)`` arrays aligned
    with ``nodes``; ``r`` holds the allocations ``R(k)``.  Trivial
    in-degree cases short-circuit (lines 1-4).  A node whose level 1 alone
    costs more than its budget (``d_in(k) > ⌈2R(k)/√c⌉``, the first test
    ``meeting_head`` makes) keeps ``ℓ(k) = 0`` without a head call, and one
    that cannot afford level 2 gets ``ℓ(k) = 1`` from
    :func:`_level_one_heads`; the rest call ``meeting_head``.

    The tail sample count is scaled down to ``R'(k) = ⌈c^{ℓ(k)} R(k)⌉``: the
    tail estimator's values live in ``{0, c^{ℓ(k)}}``, so its variance is
    ``c^{2ℓ(k)} q(1-q)/R' <= c^{ℓ(k)}/(4R(k)) <= 1/(4R(k))`` — never worse
    than Algorithm 2 at the full ``R(k)``.  This is how the paper's "reduces
    the variance by at least ``c^{ℓ(k)}``" claim turns into wall-clock
    savings (Figure 9's 10-100×) rather than only accuracy.  The batch's
    tails walk through ``pair_walks.count_meetings``, which runs their
    slices on a thread pool, one child stream of ``rng`` per slice.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    c_pow = np.array([c**j for j in range(MAX_LEVEL + 1)])
    din = csr.din[nodes]
    budget = np.ceil(2.0 * r / math.sqrt(c))
    d_hat = np.where(din == 1, 1.0 - c, 1.0)
    ell = np.zeros(nodes.size, dtype=np.int64)
    heads = np.flatnonzero((din > 1) & (din <= budget))
    one, z1 = _level_one_heads(csr, nodes[heads], budget[heads], c=c)
    d_hat[heads[one]] = 1.0 - z1
    ell[heads[one]] = 1
    for i in heads[~one]:
        head = meeting_head(csr, int(nodes[i]), c=c, budget_edges=int(budget[i]))
        d_hat[i] = 1.0 - head.z_sum
        ell[i] = head.ell
    pairs = np.where(din > 1, np.ceil(r * c_pow[ell]), 0.0).astype(np.int64)
    met = pair_walks.count_meetings(csr, nodes, pairs, ell, c=c, rng=rng, walk=pair_meet_count)
    d_hat -= c_pow[ell] * met / np.maximum(pairs, 1)
    return d_hat, ell, pairs


def _level_one_heads(
    csr: CSRGraph, nodes: np.ndarray, budget: np.ndarray, *, c: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Which heads ``meeting_head`` would stop at ``ℓ(k) = 1``, and their ``Z_1(k)``.

    Level 1 pushes ``k``'s own row to its ``d = d_in(k)`` distinct
    in-neighbours ``q``, each at ``M(k,q) = 1/d``, so ``Z_1(k,q) = c/d²``.
    Level 2 then pushes that row and one new row per ``q``, at a cost of
    ``2·Σ_q d_in(q)`` edges; where ``d`` plus that exceeds the budget, the
    head stops at level 1.  Its ``z_sum`` is ``d`` equal terms summed by
    ``np.sum``, built here once per degree from the same float operations,
    so it has the same bits.  Nodes whose level-1 terms the ``PRUNE`` drop
    would touch are left to ``meeting_head``.
    """
    d = csr.din[nodes]
    q = csr.in_neighbors[mv.ranges(csr.in_indptr[nodes], d)]
    owner = np.repeat(np.arange(nodes.size), d)
    level2 = 2 * np.bincount(owner, weights=csr.din[q], minlength=nodes.size)
    deg, inv = np.unique(d, return_inverse=True)
    term = -c * (1.0 / deg) ** 2 * -1.0  # meeting_head's scale · val² · coef
    one = (d + level2 > budget) & (term[inv] > PRUNE)
    z1 = np.zeros(deg.size)
    for j in np.unique(inv[one]):
        z1[j] = np.full(deg[j], term[j]).sum()
    return one, z1[inv[one]]


def estimate_D_local_push(
    graph: Graph,
    nodes: np.ndarray,
    counts: np.ndarray,
    *,
    c: float,
    seed: int,
    engine: str = "local",
) -> Tuple[np.ndarray, pd.DataFrame]:
    """Estimate ``D̂`` for the given nodes with Algorithm 3.

    Returns the dense ``D̂`` vector plus a per-node stats frame
    ``(node, d_hat, ell, pairs)`` (int64, float64, int64, int64), one row
    per entry of ``nodes`` in their order.  The batches run through
    ``pair_walks.simulate_pairs``; ``engine`` (``'local'`` or ``'spark'``)
    picks where, and both engines agree exactly.
    """
    estimate = functools.partial(estimate_batch, c=c)
    d_hat, ell, pairs = pair_walks.simulate_pairs(
        graph, nodes, counts, estimate, seed=seed, engine=engine
    )
    d = np.full(graph.n, 1.0 - c)
    d[nodes] = d_hat
    node = np.asarray(nodes, dtype=np.int64)
    return d, pd.DataFrame({"node": node, "d_hat": d_hat, "ell": ell, "pairs": pairs})
