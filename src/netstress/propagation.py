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
    """Graph-derived arrays reused across propagation runs."""

    edge_supplier: np.ndarray   # supplier index per supply edge (buyer-major order)
    edge_weight: np.ndarray
    edge_pool: np.ndarray       # (buyer, supplier-sector) pool id per edge
    pool_weight: np.ndarray     # total input weight per pool
    ess_pool: np.ndarray        # pool ids of essential pools
    ess_buyer: np.ndarray       # buyer per essential pool
    ne_pool: np.ndarray         # pool ids of non-essential pools
    ne_buyer: np.ndarray
    ne_count: np.ndarray        # per firm: number of non-essential supplier sectors
    out_weight: np.ndarray      # per firm: total intermediate sales
    weights_csr: sparse.csr_matrix
    n_pools: int


_PLANS: "weakref.WeakKeyDictionary[EconomyGraph, _Plan]" = weakref.WeakKeyDictionary()


def _build_plan(g: EconomyGraph) -> _Plan:
    w_csc = g.supply.weights.tocsc()
    n = g.n
    buyers = np.repeat(np.arange(n, dtype=np.int64), np.diff(w_csc.indptr))
    suppliers = w_csc.indices.astype(np.intp)
    weights = w_csc.data.astype(float)

    sector_codes, sector_of = np.unique(np.asarray(g.sectors, dtype=object), return_inverse=True)
    n_sectors = len(sector_codes)
    keys = buyers * n_sectors + sector_of[suppliers]
    pool_keys, edge_pool = np.unique(keys, return_inverse=True)
    pool_buyer = (pool_keys // n_sectors).astype(np.intp)
    pool_sector = (pool_keys % n_sectors).astype(np.intp)
    pool_weight = np.bincount(edge_pool, weights=weights, minlength=len(pool_keys))

    table = g.essentiality
    sectors = g.sectors
    essential = np.fromiter(
        (
            table.is_essential(str(sector_codes[s]), sectors[b])
            for s, b in zip(pool_sector, pool_buyer)
        ),
        dtype=bool,
        count=len(pool_keys),
    )

    ess_idx = np.flatnonzero(essential)
    ne_idx = np.flatnonzero(~essential)
    return _Plan(
        edge_supplier=suppliers,
        edge_weight=weights,
        edge_pool=edge_pool.astype(np.intp),
        pool_weight=pool_weight,
        ess_pool=ess_idx,
        ess_buyer=pool_buyer[ess_idx],
        ne_pool=ne_idx,
        ne_buyer=pool_buyer[ne_idx],
        ne_count=np.bincount(pool_buyer[ne_idx], minlength=n).astype(float),
        out_weight=g.intermediate_sales,
        weights_csr=g.supply.weights.tocsr(),
        n_pools=len(pool_keys),
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
    pool_avail = np.bincount(
        plan.edge_pool, weights=plan.edge_weight * h[plan.edge_supplier], minlength=plan.n_pools
    )
    alpha = pool_avail / plan.pool_weight

    d = np.ones(n)
    np.minimum.at(d, plan.ess_buyer, alpha[plan.ess_pool])
    if sigma > 0.0 and plan.ne_pool.size:
        ne_sum = np.bincount(plan.ne_buyer, weights=alpha[plan.ne_pool], minlength=n)
        ne_mean = np.ones(n)
        has = plan.ne_count > 0
        ne_mean[has] = ne_sum[has] / plan.ne_count[has]
        d *= 1.0 - sigma * (1.0 - ne_mean)

    u = np.ones(n)
    sells = plan.out_weight > 0.0
    u[sells] = (plan.weights_csr @ h)[sells] / plan.out_weight[sells]

    return np.minimum(np.minimum(psi, h), np.minimum(d, u))


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
