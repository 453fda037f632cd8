"""Shock inputs: single-firm failures, pandemic-style batches, batch files.

Pandemic-style batches bootstrap observed per-firm production reductions
within each two-digit industry and then rescale every industry so its
output-weighted aggregate reduction matches the observed aggregate
exactly. Scenarios therefore differ firm by firm but are statistically
identical at the industry level.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .economy import DataFormatError, EconomyGraph, ReferentialError
from .tables import Block, RowError, first_repeat, read_blocks, write_columns, write_parts

SHOCK_TABLE_COLUMNS = ["firm_id", "reduction"]
BATCH_COLUMNS = ["scenario_id", "firm_id", "psi"]

_RESCALE_ROUNDS = 10
_AGGREGATE_TOL = 1e-9


@dataclass
class ShockBatch:
    """A stack of shock vectors, one row per scenario, read in blocks of rows.

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

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The shock vectors in scenario order, at most ``rows`` scenarios a block."""
        for start in range(0, len(self), rows):
            yield self.psi[start:start + rows]


class StreamedBatch(ShockBatch):
    """A batch whose rows are drawn block by block, never all at once.

    ``draw(rows)`` yields the blocks afresh on every call, in scenario
    order. ``psi`` stacks the whole batch on first access, for callers
    that want it dense; ``run_batch`` only reads ``blocks``.
    """

    def __init__(self, count: int, draw: Callable[[int], Iterator[np.ndarray]],
                 seed: int | None, provenance: str, residuals: list | None = None):
        self._count, self._draw = count, draw
        self.seed, self.provenance = seed, provenance
        self.residuals = [] if residuals is None else residuals
        self.scenario_ids = list(range(count))

    def __len__(self) -> int:
        return self._count

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        return self._draw(rows)

    @cached_property
    def psi(self) -> np.ndarray:
        (psi,) = self.blocks(self._count)
        return psi


def single_firm_shock(g: EconomyGraph, firm_id: str) -> np.ndarray:
    """Everything runs at full capacity except one firm, which stops."""
    try:
        idx = g.firm_index[firm_id]
    except KeyError:
        raise ValueError(f"unknown firm id {firm_id!r}") from None
    psi = np.ones(g.n)
    psi[idx] = 0.0
    return psi


def single_firm_batch(g: EconomyGraph) -> StreamedBatch:
    """One scenario per firm, in firm order: that firm stops, all others run."""
    if g.n == 0:
        raise DataFormatError("economy has no firms to shock")

    def draw(rows: int) -> Iterator[np.ndarray]:
        for start in range(0, g.n, rows):
            yield 1.0 - np.eye(min(rows, g.n - start), g.n, start)

    return StreamedBatch(g.n, draw, seed=None, provenance="single-firm")


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
        reductions: dict[str, float] = {}
        for block in read_blocks(Path(path), SHOCK_TABLE_COLUMNS):
            reductions.update(block.convert(lambda b: _shock_rows(b, reductions)))
        return cls(reductions=reductions)

    def write_csv(self, path: str | Path) -> None:
        write_columns(path, SHOCK_TABLE_COLUMNS, [list(self.reductions), np.fromiter(self.reductions.values(), float)])


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

    sectors = g.sectors
    output = g.total_output()
    by_code: dict[str, list[int]] = {}
    for i, sector in enumerate(sectors):
        by_code.setdefault(sector[:2], []).append(i)

    groups: list[_SectorGroup] = []
    for code in sorted(by_code):
        members = np.asarray(by_code[code], dtype=np.intp)
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
        peers: dict[str, list[int]] = {}
        for i in data_members.tolist():
            peers.setdefault(sectors[i], []).append(i)
        pool_positions: dict[str, list[int]] = {}
        for pos, i in enumerate(members.tolist()):
            key = "@4:" + sectors[i] if not has_data[i] and sectors[i] in peers else "@2"
            pool_positions.setdefault(key, []).append(pos)
        draw_groups = [
            (np.asarray(positions, dtype=np.intp),
             pool2 if key == "@2" else observed[peers[key[3:]]])
            for key, positions in sorted(pool_positions.items())
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


def _rescale_rows(red: np.ndarray, grp: _SectorGroup) -> np.ndarray:
    """:func:`_rescale_to_target` on each row of ``red``, in place; each row's gap.

    The rows that need no clipping are rescaled together. Each weighted sum
    is one row's vector product, ``(red[:, None, :] @ w[:, None])``, so on
    rows that are each contiguous it keeps the bits of ``w @ row``. A row
    that needs clipping, or that sums to zero, goes through
    :func:`_rescale_to_target` from its raw draw.
    """
    w = grp.weights
    total = float(w.sum())
    target_mass = grp.target_mean * total
    current = (red[:, None, :] @ w[:, None])[:, 0, 0]
    regular = current > 0.0
    scaled = red * np.divide(target_mass, current, out=np.zeros_like(current), where=regular)[:, None]
    regular &= ~(scaled > 1.0).any(axis=1)
    gaps = ((scaled[:, None, :] @ w[:, None])[:, 0, 0] - target_mass) / total
    for r in np.flatnonzero(~regular).tolist():
        scaled[r] = red[r]
        gaps[r] = _rescale_to_target(scaled[r], w, grp.target_mean)
    red[...] = scaled
    return gaps


# scenarios per generator call: the index arrays of a call take several times
# the bytes of its rows, so a call per block would outgrow the block it draws
_DRAW_ROWS = 8


def covid_style_batch(
    g: EconomyGraph, table: EmpiricalShockTable, count: int, seed: int
) -> StreamedBatch:
    """Bootstrap per-firm shocks that preserve two-digit industry aggregates.

    Every scenario draws each firm's production reduction (with
    replacement) from its industry's observed values -- firms without data
    from their four-digit peers when possible -- then rescales each
    industry to its observed output-weighted aggregate. Deterministic for
    a given seed. The sampling layout is built (and the table checked)
    here; the scenarios are drawn block by block as the batch is read,
    and ``residuals`` is filled in once a pass over it is complete.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if g.n == 0:
        raise DataFormatError("economy has no firms to draw shocks for")
    groups = _sampling_layout(g, table)
    residuals: list[tuple[int, str, float]] = []

    # A row draws one index per firm into its pool, in (industry, draw group) order:
    # one generator call with per-draw bounds gives the values and the generator
    # state of one call per draw group. The values are laid out industry by
    # industry in member order ("slots") and looked up in the pools end to end.
    starts = np.cumsum([0] + [grp.members.size for grp in groups])
    draws = [(start + positions, values) for grp, start in zip(groups, starts)
             for positions, values in grp.draw_groups]
    sizes = np.array([values.size for _, values in draws])
    counts = [slots.size for slots, _ in draws]
    pools = np.concatenate([values for _, values in draws])
    back = np.argsort(np.concatenate([slots for slots, _ in draws]))  # the draw behind each slot
    first = np.repeat(np.cumsum(sizes) - sizes, counts)[back]  # its pool's offset in pools
    highs = np.tile(np.repeat(sizes, counts), _DRAW_ROWS)

    def block(rng: np.random.Generator, scenarios: range, found: list) -> np.ndarray:
        psi = np.empty((len(scenarios), g.n))
        for start in range(0, len(scenarios), _DRAW_ROWS):
            rows = psi[start:start + _DRAW_ROWS]
            drawn = rng.integers(0, highs[: rows.size]).reshape(rows.shape)
            # C-ordered, as np.take makes it: a row with gaps between its values would sum in another order
            red = pools[first + np.take(drawn, back, axis=1)]
            gaps = []
            for k, grp in enumerate(groups):
                part = red[:, starts[k]:starts[k + 1]]
                gaps += [(r, k, gap) for r, gap in enumerate(_rescale_rows(part, grp).tolist())
                         if abs(gap) > _AGGREGATE_TOL]
                rows[:, grp.members] = 1.0 - part
            found += [(scenarios[start + r], groups[k].code, gap) for r, k, gap in sorted(gaps)]
        return psi

    def draw(rows: int) -> Iterator[np.ndarray]:
        rng = np.random.default_rng(seed)
        found: list[tuple[int, str, float]] = []
        for start in range(0, count, rows):
            # drawn in a call, so no local here keeps a block the consumer is done with
            yield block(rng, range(start, min(start + rows, count)), found)
        residuals[:] = found  # every pass finds the same: keep one copy

    return StreamedBatch(count, draw, seed=seed, provenance="covid-style", residuals=residuals)


def write_batch(batch: ShockBatch, firm_ids: list[str], path: str | Path) -> None:
    """Dump a batch in long format: scenario_id, firm_id, psi, a block of scenarios at a time."""
    ids = iter(batch.scenario_ids)
    write_parts(path, BATCH_COLUMNS, (
        [np.repeat(list(islice(ids, len(rows))), len(firm_ids)), firm_ids * len(rows), rows.ravel()]
        for rows in batch.blocks(_DRAW_ROWS)
    ))


def _shock_rows(b: Block, seen: dict[str, float]) -> dict[str, float]:
    ids = b.text("firm_id")
    r = first_repeat(ids, seen)
    if r is not None:
        raise RowError(r, f"second row for firm {ids[r]!r}")
    return dict(zip(ids, b.fractions("reduction").tolist()))


def _batch_rows(b: Block, firm_index: dict[str, int], seen: set):
    scenarios = b.numbers("scenario_id", int)
    firms = b.positions("firm_id", firm_index, "firm")
    ids = b.text("firm_id")
    r = first_repeat(list(zip(scenarios, ids)), seen)
    if r is not None:
        raise RowError(r, f"second row for scenario {scenarios[r]} and firm {ids[r]!r}")
    return scenarios, ids, firms, b.fractions("psi")


def read_batch(g: EconomyGraph, path: str | Path) -> ShockBatch:
    """Read a long-format batch; unlisted firms keep psi = 1, scenario ids are kept."""
    path = Path(path)
    seen: set[tuple[int, str]] = set()
    scenarios: list[int] = []
    firms: list[np.ndarray] = []
    values = []
    for block in read_blocks(path, BATCH_COLUMNS):
        s, ids, f, psi = block.convert(lambda b: _batch_rows(b, g.firm_index, seen))
        seen.update(zip(s, ids))
        scenarios += s
        firms.append(f)
        values.append(psi)
    if not scenarios:
        raise DataFormatError(f"{path}: no scenarios found")
    ids = sorted(set(scenarios))
    row = dict(zip(ids, range(len(ids))))
    psi = np.ones((len(ids), g.n))
    psi[list(map(row.__getitem__, scenarios)), np.concatenate(firms)] = np.concatenate(values)
    return ShockBatch(psi=psi, seed=None, provenance="custom", scenario_ids=ids)
