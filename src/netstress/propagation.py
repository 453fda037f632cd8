"""Supply-chain shock propagation.

Shocks ``psi`` give each firm's remaining production capacity in [0, 1]
(1 = unshocked, 0 = full stop). Propagation iterates a generalized
Leontief-style update until the remaining production levels stabilise:

* input availability per supplier sector s for buyer j,
  ``alpha[s, j] = sum_{i in s} W[i, j] * h[i] / sum_{i in s} W[i, j]``;
* downstream capacity ``d[j]`` is the minimum of ``alpha`` over essential
  input sectors, softened by non-essential sectors through
  ``1 - sigma * (1 - mean_nonessential(alpha))`` (``sigma = 0`` means
  non-essential inputs never constrain);
* upstream demand ``u[j] = sum_k W[j, k] * h[k] / sum_k W[j, k]``; firms
  without customers sell to final demand and keep ``u = 1``;
* ``h[j] <- min(psi[j], d[j], u[j], h[j])``.

The trailing ``h[j]`` term forces monotone non-increasing trajectories,
so the decrement-based stopping rule always terminates.

Layout. Each (buyer, supplier-sector) pool is one row of a sparse matrix
over suppliers, so ``alpha`` is one matrix-vector product. The rows are
ordered by *level*: level ``j`` holds the ``j``-th essential pool of every
buyer with more than ``j`` of them. Buyers are sorted by their number of
essential pools, most first, so each level is a prefix of level 0 and the
minimum over a buyer's essential pools is one in-place ``minimum`` per
level on contiguous slices. Non-essential pools follow, in (buyer, sector)
order.

Firms are held in *step order*: the buyers of level 0 first, in its
order, then every other firm. Row ``p`` of ``h`` is firm ``order[p]``, and
the supplier columns of the pools and both axes of the supply matrix are
renumbered to match, so the level minimum is itself the first rows of the
update and no row is scattered. The renumbering relabels each stored edge
and moves no edge within its row: every sum accumulates from 0 in the
supply matrix's buyer-major order, as in a per-edge loop, and the results
do not depend on the layout.

A call runs S scenarios as one n × S block ``H``: ``pool_csr @ H`` sums
each (row, column) from 0 in edge order, so every column gets the bits of
a run on its own. At the step a column's largest drop reaches ``epsilon``
it is frozen and compacted out of two preallocated workspaces. The
pipeline passes :data:`CHUNK` scenarios a call; at that width the pool
and sales totals divide as full (rows, CHUNK) arrays, which numpy runs as
one contiguous loop, and narrower blocks divide by a broadcast column.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .economy import EconomyGraph


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs for one propagation run.

    ``nonessential_weight`` is the substitutability weight sigma described
    in the module docstring.
    """

    epsilon: float = 0.01
    max_iter: int = 1000
    nonessential_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 <= self.nonessential_weight <= 1.0:
            raise ValueError("nonessential_weight must lie in [0, 1]")


@dataclass
class ProductionProfile:
    """Remaining production levels after a propagation run, shaped like the shocks."""

    h: np.ndarray
    iterations: int    # updates, summed over the scenarios
    converged: bool    # whether every scenario is done
    steps: np.ndarray  # per scenario: updates made
    done: np.ndarray   # per scenario: whether its decrement fell to epsilon


# scenarios per cascade and credit call in the pipeline: eight levels of a firm fill a 64-byte cache line
CHUNK = 8


@dataclass
class _Plan:
    """Graph-derived arrays reused across propagation runs (layout above).

    Firm axes are in step order. Each total is a (rows, 1) column and the
    same column repeated to (rows, CHUNK), for a block of that width.
    """

    order: np.ndarray            # firm at each step position: the level-0 buyers, then the rest
    n_ess: int                   # firms with an essential pool: the first positions
    pool_csr: sparse.csr_matrix  # (pools, n): one row per pool, edges in buyer-major order
    pool_weight: tuple[np.ndarray, np.ndarray]  # total input weight per row
    levels: list[tuple[int, int]]  # (first row, length) of each level past level 0
    ne_start: int                # first non-essential row
    ne_firms: np.ndarray         # positions of the firms with a non-essential pool
    ne_csr: sparse.csr_matrix    # (ne_firms, non-essential rows): 1 where the row is the firm's
    ne_count: np.ndarray         # (ne_firms, 1): number of non-essential supplier sectors
    weights_csr: sparse.csr_matrix  # (n, n): supply weights, seller rows and buyer columns
    out_weight: tuple[np.ndarray, np.ndarray]   # total intermediate sales, 1 for firms selling nothing
    no_sales: np.ndarray         # positions of the firms without customers


_PLANS: "weakref.WeakKeyDictionary[EconomyGraph, _Plan]" = weakref.WeakKeyDictionary()


def _pools(g: EconomyGraph, suppliers: np.ndarray, buyers: np.ndarray):
    """The (buyer, supplier-sector) pool of each edge; per pool its buyer and whether it is essential."""
    sector_codes, sector_of = np.unique(np.asarray(g.sectors, dtype=object), return_inverse=True)
    n_sectors = len(sector_codes)
    pool_keys, edge_pool = np.unique(buyers * n_sectors + sector_of[suppliers], return_inverse=True)
    pool_buyer = (pool_keys // n_sectors).astype(np.intp)
    essential = g.essentiality.lookup(sector_codes.tolist())[pool_keys % n_sectors, sector_of[pool_buyer]]
    return edge_pool, pool_buyer, essential


def _relabel(m: sparse.csr_matrix, position: np.ndarray) -> sparse.csr_matrix:
    """``m`` with column ``i`` renamed ``position[i]``; every row keeps its stored edge order."""
    return sparse.csr_matrix((m.data, position[m.indices], m.indptr), shape=m.shape)


def _divisors(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return total[:, None], np.repeat(total[:, None], CHUNK, axis=1)


def _build_plan(g: EconomyGraph) -> _Plan:
    w_csc = g.supply.weights.tocsc()
    n = g.n
    buyers = np.repeat(np.arange(n, dtype=np.int64), np.diff(w_csc.indptr))
    suppliers = w_csc.indices
    weights = w_csc.data.astype(float)
    edge_pool, pool_buyer, essential = _pools(g, suppliers, buyers)
    n_pools = pool_buyer.size

    # level j holds the j-th essential pool of every buyer with more than j;
    # buyers go by descending count, so every level is a prefix of level 0
    ess_pool = np.flatnonzero(essential)
    ess_buyer = pool_buyer[ess_pool]
    count = np.bincount(ess_buyer, minlength=n)
    rank = np.arange(ess_pool.size) - (np.cumsum(count) - count)[ess_buyer]
    n_ess = np.count_nonzero(count)
    # step order: the level-0 buyers by descending count, then the firms without an essential pool
    order = np.argsort(-count, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    sizes = np.bincount(rank)
    starts = np.cumsum(sizes) - sizes
    ne_pool = np.flatnonzero(~essential)
    row_of_pool = np.empty(n_pools, dtype=np.intp)
    row_of_pool[ess_pool] = starts[rank] + position[ess_buyer]
    row_of_pool[ne_pool] = ess_pool.size + np.arange(ne_pool.size)

    # suppliers ascend within a row as within a buyer's edges, so each row
    # sum accumulates in the order of a loop over the buyer-major edges
    edge_row = row_of_pool[edge_pool]
    pool_csr = sparse.csr_matrix((weights, (edge_row, suppliers)), shape=(n_pools, n))
    pool_weight = np.bincount(edge_row, weights=weights, minlength=n_pools)

    sales = g.intermediate_sales[order]
    # non-essential rows go by buyer, so each row of ne_csr holds its firm's rows in order
    ne_firms, ne_row, ne_count = np.unique(pool_buyer[ne_pool], return_inverse=True, return_counts=True)
    ne_csr = sparse.csr_matrix((np.ones(ne_pool.size), (ne_row, np.arange(ne_pool.size))),
                               shape=(ne_firms.size, ne_pool.size))
    return _Plan(
        order=order,
        n_ess=int(n_ess),
        pool_csr=_relabel(pool_csr, position),
        pool_weight=_divisors(pool_weight),
        levels=[(int(s), int(k)) for s, k in zip(starts[1:], sizes[1:])],
        ne_start=int(ess_pool.size),
        ne_firms=position[ne_firms],
        ne_csr=ne_csr,
        ne_count=ne_count.astype(float)[:, None],
        weights_csr=_relabel(g.supply.weights.tocsr()[order], position),
        out_weight=_divisors(np.where(sales > 0.0, sales, 1.0)),
        no_sales=np.flatnonzero(sales <= 0.0),
    )


def _plan_for(g: EconomyGraph) -> _Plan:
    plan = _PLANS.get(g)
    if plan is None:
        plan = _build_plan(g)
        _PLANS[g] = plan
    return plan


def _check_shock_vector(psi, n: int) -> np.ndarray:
    """Validate and convert shocks: a length-n vector or (S, n) rows, all entries in [0, 1]."""
    arr = np.asarray(psi, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != n:
        raise ValueError(f"shock vector has shape {arr.shape}, expected ({n},) or (S, {n})")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("shock vector entries must lie in [0, 1]")
    return arr


def _step(plan: _Plan, h: np.ndarray, d: np.ndarray, sigma: float) -> np.ndarray:
    """Update the n × k levels ``h`` into ``d`` (no ``psi`` term: ``h <= psi``); return each column's drop."""
    wide = h.shape[1] == CHUNK  # picks the full-width divisors: one contiguous loop, not k-element ones
    alpha = plan.pool_csr @ h
    alpha /= plan.pool_weight[wide]

    # alpha <= 1 because h <= 1, so the minimum over a buyer's essential
    # pools needs no cap at 1
    d_ess = d[: plan.n_ess]
    d_ess[...] = alpha[: plan.n_ess]
    for start, size in plan.levels:
        np.minimum(d_ess[:size], alpha[start : start + size], out=d_ess[:size])
    d[plan.n_ess :] = 1.0
    if sigma > 0.0 and plan.ne_firms.size:
        # each firm's rows summed from 0 in row order; the other firms keep d (scaled by 1.0)
        ne_mean = plan.ne_csr @ alpha[plan.ne_start :]
        ne_mean /= plan.ne_count
        d[plan.ne_firms] *= 1.0 - sigma * (1.0 - ne_mean)

    u = plan.weights_csr @ h
    u /= plan.out_weight[wide]
    u[plan.no_sales] = 1.0

    np.minimum(d, u, out=d)
    np.minimum(h, d, out=d)
    drop = np.subtract(h, d, out=u)
    rows = h.shape[0]  # fold the rows in halves: a 2-D max(axis=0) is slow for few columns
    while rows > 1:
        half = rows // 2
        np.maximum(drop[:half], drop[rows - half : rows], out=drop[:half])
        rows -= half
    return drop[:1].max(axis=0, initial=-np.inf)


def propagate(
    g: EconomyGraph, psi, cfg: PropagationConfig = PropagationConfig()
) -> ProductionProfile:
    """Propagate production shocks through the supply network.

    ``psi`` is one vector of length n or (S, n) rows, one scenario each;
    ``h`` comes back in its shape, each row as if run alone. Trajectories
    are monotone non-increasing, bounded to [0, h(start)] and deterministic.
    A scenario still dropping by more than ``cfg.epsilon`` after
    ``cfg.max_iter`` updates has ``done`` False; the caller decides.
    """
    psi = _check_shock_vector(psi, g.n)
    plan = _plan_for(g)
    rows = np.atleast_2d(psi)
    count, n = rows.shape
    h, steps, done = np.empty((count, n)), np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)
    # the k live columns fill the first n * k entries of each workspace, firms in step order
    cur, new = np.empty(n * count), np.empty(n * count)
    cur.reshape(n, count)[...] = rows.T[plan.order]
    live = np.arange(count)  # the row of h behind each live column
    step = 0
    while live.size:
        step += 1
        levels, update = (a[: n * live.size].reshape(n, live.size) for a in (cur, new))
        below = _step(plan, levels, update, cfg.nonessential_weight) <= cfg.epsilon
        stop = below | (step == cfg.max_iter)
        if not stop.any():
            cur, new = new, cur
            continue
        h[live[stop][:, None], plan.order] = update.T[stop]
        steps[live[stop]], done[live[stop]] = step, below[stop]
        live = live[~stop]
        np.take(update, np.flatnonzero(~stop), axis=1, out=cur[: n * live.size].reshape(n, live.size), mode="clip")
    return ProductionProfile(h.reshape(psi.shape), int(steps.sum()), bool(done.all()), steps, done)
