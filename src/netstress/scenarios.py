"""Shock inputs: single-firm failures, pandemic-style batches, random networks.

Pandemic-style batches bootstrap observed per-firm production reductions
within each two-digit industry and then rescale every industry so its
output-weighted aggregate reduction matches the observed aggregate
exactly. Scenarios therefore differ firm by firm but are statistically
identical at the industry level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .economy import DataFormatError, EconomyGraph, InterbankNetwork, ReferentialError
from .tables import fmt, parse, parse_fraction, read_rows, write_csv

SHOCK_TABLE_COLUMNS = ["firm_id", "reduction"]
BATCH_COLUMNS = ["scenario_id", "firm_id", "psi"]

_RESCALE_ROUNDS = 10
_AGGREGATE_TOL = 1e-9


@dataclass
class ShockBatch:
    """A stack of shock vectors, one row per scenario.

    ``residuals`` records (scenario, sector, gap) for the rare industries
    whose aggregate could not be met exactly because clipping to [0, 1]
    left a remainder after redistribution. ``scenario_ids`` name the rows
    in every output; they default to ``0 .. len - 1``.
    """

    psi: np.ndarray  # (scenarios, firms)
    seed: int | None
    provenance: str
    residuals: list[tuple[int, str, float]] = field(default_factory=list)
    scenario_ids: list[int] | None = None

    def __post_init__(self):
        if self.scenario_ids is None:
            self.scenario_ids = list(range(len(self)))

    def __len__(self) -> int:
        return self.psi.shape[0]

    def __iter__(self):
        return iter(self.psi)


def single_firm_shock(g: EconomyGraph, firm_id: str) -> np.ndarray:
    """Everything runs at full capacity except one firm, which stops."""
    try:
        idx = g.firm_index[firm_id]
    except KeyError:
        raise ValueError(f"unknown firm id {firm_id!r}") from None
    psi = np.ones(g.n)
    psi[idx] = 0.0
    return psi


@dataclass
class EmpiricalShockTable:
    """Observed production reductions in [0, 1] for the firms with data."""

    reductions: dict[str, float]

    def __post_init__(self):
        for fid, value in self.reductions.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"reduction for firm {fid!r} is {value}, outside [0, 1]")

    @classmethod
    def from_csv(cls, path: str | Path) -> "EmpiricalShockTable":
        path = Path(path)
        reductions: dict[str, float] = {}
        for line, row in read_rows(path, SHOCK_TABLE_COLUMNS):
            fid = row["firm_id"].strip()
            if fid in reductions:
                raise DataFormatError(f"{path} line {line}: second row for firm {fid!r}")
            reductions[fid] = parse_fraction(path, line, "reduction", row["reduction"])
        return cls(reductions=reductions)

    def write_csv(self, path: str | Path) -> None:
        write_csv(path, SHOCK_TABLE_COLUMNS, ([f, fmt(v)] for f, v in self.reductions.items()))


@dataclass
class _SectorGroup:
    """Sampling layout for one two-digit industry."""

    code: str
    members: np.ndarray          # firm indices of the whole industry
    target_mean: float           # observed output-weighted aggregate reduction
    weights: np.ndarray          # rescaling weights aligned with members
    draw_groups: list[tuple[np.ndarray, np.ndarray]]  # (member positions, value pool)


def _sampling_layout(g: EconomyGraph, table: EmpiricalShockTable) -> list[_SectorGroup]:
    index = g.firm_index
    for fid in table.reductions:
        if fid not in index:
            raise ReferentialError(f"shock table references unknown firm id {fid!r}")

    observed = np.full(g.n, np.nan)
    for fid, value in table.reductions.items():
        observed[index[fid]] = value
    has_data = ~np.isnan(observed)

    sectors = np.asarray(g.sectors, dtype=object)
    nace2 = np.asarray([s[:2] for s in g.sectors], dtype=object)
    output = g.total_output()

    groups: list[_SectorGroup] = []
    for code in sorted(set(nace2)):
        members = np.flatnonzero(nace2 == code)
        data_members = members[has_data[members]]
        if data_members.size == 0:
            raise DataFormatError(f"shock table has no observations for sector {code!r} to resample")
        pool2 = observed[data_members]

        data_w = output[data_members]
        if data_w.sum() > 0.0:
            target = float(data_w @ pool2 / data_w.sum())
        else:
            target = float(pool2.mean())

        weights = output[members]
        if weights.sum() <= 0.0:
            weights = np.ones(members.size)

        # firms with data resample from the industry pool; firms without
        # data are imputed from four-digit peers when any exist
        pools: dict[str, np.ndarray] = {}
        pool_positions: dict[str, list[int]] = {}
        for pos, i in enumerate(members):
            if has_data[i]:
                key = "@2"
                values = pool2
            else:
                peers = data_members[sectors[data_members] == sectors[i]]
                if peers.size:
                    key = f"@4:{sectors[i]}"
                    values = observed[peers]
                else:
                    key = "@2"
                    values = pool2
            pools.setdefault(key, values)
            pool_positions.setdefault(key, []).append(pos)
        draw_groups = [
            (np.asarray(pool_positions[key], dtype=np.intp), pools[key])
            for key in sorted(pool_positions)
        ]
        groups.append(_SectorGroup(code, members, target, weights, draw_groups))
    return groups


def _rescale_to_target(red: np.ndarray, weights: np.ndarray, target_mean: float) -> float:
    """Scale reductions so the weighted mean hits the target; clip to [0, 1].

    Clipping mass is redistributed proportionally over the unclipped firms
    for a bounded number of rounds. Returns the remaining gap in weighted
    mean (zero in the regular path).
    """
    total = float(weights.sum())
    target_mass = target_mean * total
    current = float(weights @ red)
    if current <= 0.0:
        red[:] = target_mean
        return 0.0
    red *= target_mass / current
    clipped = np.zeros(red.size, dtype=bool)
    for _ in range(_RESCALE_ROUNDS):
        over = red > 1.0
        if not over.any():
            break
        clipped |= over
        red[clipped] = 1.0
        free = ~clipped
        remaining = target_mass - float(weights[clipped].sum())
        if not free.any() or remaining < 0.0:
            break
        free_mass = float(weights[free] @ red[free])
        if free_mass <= 0.0:
            break
        red[free] *= remaining / free_mass
    np.clip(red, 0.0, 1.0, out=red)
    return (float(weights @ red) - target_mass) / total


def covid_style_batch(
    g: EconomyGraph, table: EmpiricalShockTable, count: int, seed: int
) -> ShockBatch:
    """Bootstrap per-firm shocks that preserve two-digit industry aggregates.

    Every scenario draws each firm's production reduction (with
    replacement) from its industry's observed values -- firms without data
    from their four-digit peers when possible -- then rescales each
    industry to its observed output-weighted aggregate. Deterministic for
    a given seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    groups = _sampling_layout(g, table)
    rng = np.random.default_rng(seed)

    psi = np.ones((count, g.n))
    residuals: list[tuple[int, str, float]] = []
    for s in range(count):
        for grp in groups:
            red = np.empty(grp.members.size)
            for positions, values in grp.draw_groups:
                red[positions] = values[rng.integers(0, values.size, positions.size)]
            gap = _rescale_to_target(red, grp.weights, grp.target_mean)
            if abs(gap) > _AGGREGATE_TOL:
                residuals.append((s, grp.code, gap))
            psi[s, grp.members] = 1.0 - red
    return ShockBatch(psi=psi, seed=seed, provenance="covid-style", residuals=residuals)


def gaussian_bank_seed_batch(reference, count: int, seed: int) -> np.ndarray:
    """Per-bank loss seeds drawn from normals matching the reference moments.

    ``reference`` holds one row per observed scenario and one column per
    bank; draws are independent across banks and floored at zero.
    """
    ref = np.asarray(reference, dtype=float)
    if ref.ndim != 2 or ref.shape[0] < 2:
        raise ValueError("reference needs at least two samples per bank")
    mu = ref.mean(axis=0)
    sigma = ref.std(axis=0, ddof=1)
    rng = np.random.default_rng(seed)
    draws = rng.normal(mu, sigma, size=(count, ref.shape[1]))
    return np.maximum(draws, 0.0)


def random_interbank_network(m: int, seed: int, bank_equity=None) -> InterbankNetwork:
    """Maximally random interbank layer: leverage entries uniform on (0, 0.05).

    The liability matrix is reconstructed from the leverage draws and the
    bank equities (unit equities when none are given), keeping every
    bank's total exposure below (m - 1) * 0.05 of its equity.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    leverage = rng.uniform(0.0, 0.05, size=(m, m))
    np.fill_diagonal(leverage, 0.0)
    equity = np.ones(m) if bank_equity is None else np.asarray(bank_equity, dtype=float)
    if equity.shape != (m,):
        raise ValueError(f"bank_equity has shape {equity.shape}, expected ({m},)")
    liabilities = leverage * equity[None, :]
    return InterbankNetwork(m=m, liabilities=sparse.csr_matrix(liabilities))


def write_batch(batch: ShockBatch, firm_ids: list[str], path: str | Path) -> None:
    """Dump a batch in long format: scenario_id, firm_id, psi."""
    write_csv(path, BATCH_COLUMNS, (
        [s, fid, fmt(value)]
        for s, row in zip(batch.scenario_ids, batch.psi)
        for fid, value in zip(firm_ids, row)
    ))


def read_batch(g: EconomyGraph, path: str | Path) -> ShockBatch:
    """Read a long-format batch; unlisted firms keep psi = 1, scenario ids are kept."""
    path = Path(path)
    per_scenario: dict[int, np.ndarray] = {}
    seen: set[tuple[int, str]] = set()
    for line, row in read_rows(path, BATCH_COLUMNS):
        s = parse(path, line, "scenario_id", row["scenario_id"], int)
        fid = row["firm_id"].strip()
        if fid not in g.firm_index:
            raise ReferentialError(f"{path} line {line}: unknown firm id {fid!r}")
        if (s, fid) in seen:
            raise DataFormatError(f"{path} line {line}: second row for scenario {s} and firm {fid!r}")
        seen.add((s, fid))
        psi = parse_fraction(path, line, "psi", row["psi"])
        per_scenario.setdefault(s, np.ones(g.n))[g.firm_index[fid]] = psi
    if not per_scenario:
        raise DataFormatError(f"{path}: no scenarios found")
    ids = sorted(per_scenario)
    return ShockBatch(
        psi=np.vstack([per_scenario[s] for s in ids]), seed=None, provenance="custom", scenario_ids=ids
    )
