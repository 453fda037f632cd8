"""Supply-chain shock propagation and the economic systemic risk index.

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
order. Within a row the edges keep the supply matrix's buyer-major order,
so every sum accumulates from 0 in the same order as a per-edge loop and
the results do not depend on the layout.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .economy import EconomyGraph
from .tables import fmt, write_csv


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs for one propagation run.

    ``enabled = False`` short-circuits the cascade entirely and returns
    ``h = psi`` (the no-supply-chain regime). ``nonessential_weight`` is the
    substitutability weight sigma described in the module docstring.
    """

    epsilon: float = 0.01
    max_iter: int = 1000
    enabled: bool = True
    nonessential_weight: float = 0.0
    record_trajectory: bool = False

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 <= self.nonessential_weight <= 1.0:
            raise ValueError("nonessential_weight must lie in [0, 1]")


@dataclass
class ProductionProfile:
    """Converged remaining production levels after a propagation run."""

    h: np.ndarray
    iterations: int
    converged: bool
    trajectory: np.ndarray | None = None  # (iterations + 1, n) including the initial state


@dataclass
class _Plan:
    """Graph-derived arrays reused across propagation runs (layout above)."""

    pool_csr: sparse.csr_matrix  # (pools, n): one row per pool, edges in buyer-major order
    pool_weight: np.ndarray      # total input weight per row
    ess_buyer: np.ndarray        # buyer per level-0 row: every firm with an essential pool
    levels: list[tuple[int, int]]  # (first row, length) of each level past level 0
    ne_start: int                # first non-essential row
    ne_buyer: np.ndarray         # buyer per non-essential row
    ne_count: np.ndarray         # per firm: number of non-essential supplier sectors
    weights_csr: sparse.csr_matrix
    out_weight: np.ndarray       # per firm: total intermediate sales, 1 for firms selling nothing
    no_sales: np.ndarray         # firms without customers


_PLANS: "weakref.WeakKeyDictionary[EconomyGraph, _Plan]" = weakref.WeakKeyDictionary()


def _build_plan(g: EconomyGraph) -> _Plan:
    w_csc = g.supply.weights.tocsc()
    n = g.n
    buyers = np.repeat(np.arange(n, dtype=np.int64), np.diff(w_csc.indptr))
    suppliers = w_csc.indices
    weights = w_csc.data.astype(float)

    sector_codes, sector_of = np.unique(np.asarray(g.sectors, dtype=object), return_inverse=True)
    n_sectors = len(sector_codes)
    keys = buyers * n_sectors + sector_of[suppliers]
    pool_keys, edge_pool = np.unique(keys, return_inverse=True)
    n_pools = len(pool_keys)
    pool_buyer = (pool_keys // n_sectors).astype(np.intp)
    pool_sector = (pool_keys % n_sectors).astype(np.intp)

    table = g.essentiality
    sectors = g.sectors
    essential = np.fromiter(
        (
            table.is_essential(str(sector_codes[s]), sectors[b])
            for s, b in zip(pool_sector, pool_buyer)
        ),
        dtype=bool,
        count=n_pools,
    )

    # level j holds the j-th essential pool of every buyer with more than j;
    # buyers go by descending count, so every level is a prefix of level 0
    ess_pool = np.flatnonzero(essential)
    ess_buyer = pool_buyer[ess_pool]
    count = np.bincount(ess_buyer, minlength=n)
    rank = np.arange(ess_pool.size) - (np.cumsum(count) - count)[ess_buyer]
    order = np.argsort(-count, kind="stable")[: np.count_nonzero(count)]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(order.size)
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

    sales = g.intermediate_sales
    ne_buyer = pool_buyer[ne_pool]
    return _Plan(
        pool_csr=pool_csr,
        pool_weight=pool_weight,
        ess_buyer=order,
        levels=[(int(s), int(k)) for s, k in zip(starts[1:], sizes[1:])],
        ne_start=int(ess_pool.size),
        ne_buyer=ne_buyer,
        ne_count=np.bincount(ne_buyer, minlength=n).astype(float),
        weights_csr=g.supply.weights.tocsr(),
        out_weight=np.where(sales > 0.0, sales, 1.0),
        no_sales=np.flatnonzero(sales <= 0.0),
    )


def _plan_for(g: EconomyGraph) -> _Plan:
    plan = _PLANS.get(g)
    if plan is None:
        plan = _build_plan(g)
        _PLANS[g] = plan
    return plan


def check_shock_vector(psi, n: int) -> np.ndarray:
    """Validate and convert a shock vector: length n, all entries in [0, 1]."""
    arr = np.asarray(psi, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"shock vector has shape {arr.shape}, expected ({n},)")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("shock vector entries must lie in [0, 1]")
    return arr


def _step(plan: _Plan, psi: np.ndarray, h: np.ndarray, sigma: float) -> np.ndarray:
    n = h.size
    alpha = plan.pool_csr @ h
    alpha /= plan.pool_weight

    # alpha <= 1 because h <= 1, so the minimum over a buyer's essential
    # pools needs no cap at 1
    d_ess = alpha[: plan.ess_buyer.size]
    for start, size in plan.levels:
        np.minimum(d_ess[:size], alpha[start : start + size], out=d_ess[:size])
    d = np.ones(n)
    d[plan.ess_buyer] = d_ess
    if sigma > 0.0 and plan.ne_buyer.size:
        ne_sum = np.bincount(plan.ne_buyer, weights=alpha[plan.ne_start :], minlength=n)
        ne_mean = np.ones(n)
        has = plan.ne_count > 0
        ne_mean[has] = ne_sum[has] / plan.ne_count[has]
        d *= 1.0 - sigma * (1.0 - ne_mean)

    u = plan.weights_csr @ h
    u /= plan.out_weight
    u[plan.no_sales] = 1.0

    np.minimum(d, u, out=d)
    np.minimum(psi, h, out=u)
    return np.minimum(u, d, out=u)


def propagate(
    g: EconomyGraph, psi, cfg: PropagationConfig = PropagationConfig()
) -> ProductionProfile:
    """Propagate a production shock through the supply network.

    Returns the converged remaining-production profile; trajectories are
    monotone non-increasing, bounded to [0, h(start)] and deterministic.
    When the decrement never falls below ``cfg.epsilon`` within
    ``cfg.max_iter`` updates the profile comes back with
    ``converged = False`` and the caller decides what to do.
    """
    psi = check_shock_vector(psi, g.n)
    if not cfg.enabled:
        h = psi.copy()
        traj = np.asarray([h]) if cfg.record_trajectory else None
        return ProductionProfile(h=h, iterations=0, converged=True, trajectory=traj)

    plan = _plan_for(g)
    sigma = cfg.nonessential_weight
    h = psi.copy()
    traj = [h.copy()] if cfg.record_trajectory else None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        h_new = _step(plan, psi, h, sigma)
        drop = float(np.max(h - h_new)) if h.size else 0.0
        h = h_new
        if traj is not None:
            traj.append(h.copy())
        if drop <= cfg.epsilon:
            converged = True
            break
    return ProductionProfile(
        h=h,
        iterations=iterations,
        converged=converged,
        trajectory=np.asarray(traj) if traj is not None else None,
    )


def compute_esri(
    g: EconomyGraph, firm_id: str, cfg: PropagationConfig = PropagationConfig()
) -> float:
    """Fraction of total system output lost if one firm stops producing.

    Output weights are intermediate sales plus the final-demand proxy, so a
    firm with 10% of total output and no supply links scores exactly 0.10.
    """
    try:
        idx = g.firm_index[firm_id]
    except KeyError:
        raise ValueError(f"unknown firm id {firm_id!r}") from None
    psi = np.ones(g.n)
    psi[idx] = 0.0
    profile = propagate(g, psi, cfg)
    out = g.total_output()
    total = out.sum()
    if total <= 0.0:
        raise ValueError("economy has zero total output; impact share undefined")
    return float(out @ (1.0 - profile.h) / total)


def write_trajectory(profile: ProductionProfile, firm_ids: list[str], path: str | Path) -> None:
    """Dump a recorded trajectory as (iteration, firm_id, h) rows."""
    if profile.trajectory is None:
        raise ValueError("profile carries no trajectory; run with record_trajectory=True")
    write_csv(path, ["iteration", "firm_id", "h"], (
        [t, fid, fmt(value)]
        for t, row in enumerate(profile.trajectory)
        for fid, value in zip(firm_ids, row)
    ))
