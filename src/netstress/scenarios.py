"""Shock inputs: single-firm failures, pandemic-style batches, batch files.

Pandemic-style batches bootstrap observed per-firm production reductions
within each two-digit industry and then rescale every industry so its
output-weighted aggregate reduction matches the observed aggregate
exactly. Scenarios therefore differ firm by firm but are statistically
identical at the industry level.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .economy import DataFormatError, EconomyGraph, ReferentialError
from .tables import Block, first_repeat, lookup, read_blocks, read_long, write_columns, write_long

SHOCK_TABLE_COLUMNS = ["firm_id", "reduction"]
BATCH_COLUMNS = ["scenario_id", "firm_id", "psi"]

_RESCALE_ROUNDS = 10
_AGGREGATE_TOL = 1e-9


class ShockBatch:
    """A stack of shock vectors, one row per scenario, read in blocks of rows.

    ``draw(spans)`` yields one block of rows for each range of scenarios
    in ``spans``, in turn, and draws them afresh on every call; the batch
    chooses the spans, so an empty batch is one block of no rows.
    ``residuals`` records (scenario, sector, gap) for the rare industries
    whose aggregate could not be met exactly because clipping to [0, 1]
    left a remainder after redistribution. ``scenario_ids`` name the rows
    in every output; they default to ``0 .. len - 1``.
    """

    def __init__(self, count: int, draw: Callable[[Iterable[range]], Iterator[np.ndarray]], provenance: str,
                 residuals: list | None = None, scenario_ids: list[int] | None = None):
        self._count, self._draw, self.provenance = count, draw, provenance
        self.residuals = [] if residuals is None else residuals
        self.scenario_ids = list(range(count)) if scenario_ids is None else scenario_ids

    @classmethod
    def dense(cls, psi: np.ndarray, provenance: str, scenario_ids: list[int] | None = None) -> "ShockBatch":
        """A batch over one array, ``psi[s]`` the shock vector of scenario ``s``."""
        return cls(len(psi), lambda spans: (psi[s.start:s.stop] for s in spans), provenance,
                   scenario_ids=scenario_ids)

    def __len__(self) -> int:
        return self._count

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The shock vectors in scenario order, at most ``rows`` scenarios a block."""
        n = self._count
        return self._draw(range(s, min(s + rows, n)) for s in range(0, n or 1, rows))

    @cached_property
    def psi(self) -> np.ndarray:
        """The whole batch as one array, drawn on first access; ``run_batch`` reads only ``blocks``."""
        (psi,) = self._draw([range(self._count)])
        return psi


def single_firm_batch(g: EconomyGraph, firm_ids: list[str] | None = None) -> ShockBatch:
    """One scenario per firm, in ``firm_ids`` order (every firm by default): that firm stops, all others run."""
    if g.n == 0:
        raise DataFormatError("economy has no firms to shock")
    try:
        stopped = np.arange(g.n) if firm_ids is None else np.array([g.firm_index[f] for f in firm_ids], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"unknown firm id {exc.args[0]!r}") from None

    def draw(spans: Iterable[range]) -> Iterator[np.ndarray]:
        for span in spans:
            psi = np.ones((len(span), g.n))
            psi[np.arange(len(span)), stopped[span.start:span.stop]] = 0.0
            yield psi

    return ShockBatch(stopped.size, draw, provenance="single-firm")


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
    try:
        observed_firms = lookup(list(table.reductions), g.firm_index)
    except KeyError as exc:
        raise ReferentialError(f"shock table references unknown firm id {exc.args[0]!r}") from None
    observed = np.full(g.n, np.nan)
    observed[observed_firms] = list(table.reductions.values())
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
) -> ShockBatch:
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

    def draw(spans: Iterable[range]) -> Iterator[np.ndarray]:
        rng = np.random.default_rng(seed)
        found: list[tuple[int, str, float]] = []
        for span in spans:
            # drawn in a call, so no local here keeps a block the consumer is done with
            yield block(rng, span, found)
        residuals[:] = found  # every pass finds the same: keep one copy

    return ShockBatch(count, draw, provenance="covid-style", residuals=residuals)


def write_batch(batch: ShockBatch, firm_ids: list[str], path: str | Path) -> None:
    """Dump a batch in long format: scenario_id, firm_id, psi, a block of scenarios at a time."""
    write_long(path, BATCH_COLUMNS, batch.scenario_ids, firm_ids, ((rows,) for rows in batch.blocks(_DRAW_ROWS)))


def _shock_rows(b: Block, seen: dict[str, float]) -> dict[str, float]:
    ids = b.text("firm_id")
    first_repeat(ids, seen, lambda fid: f"second row for firm {fid!r}")
    return dict(zip(ids, b.fractions("reduction").tolist()))


def read_batch(g: EconomyGraph, path: str | Path) -> ShockBatch:
    """Read a long-format batch; unlisted firms keep psi = 1, scenario ids are kept."""
    def psi_column(b: Block) -> tuple[np.ndarray]:
        b.positions("firm_id", g.firm_index, "firm")  # an unknown firm is refused at its line
        return (b.fractions("psi"),)

    path = Path(path)
    ids, firm_ids, filled, columns = read_long(path, BATCH_COLUMNS, psi_column)
    if not ids:
        raise DataFormatError(f"{path}: no scenarios found")
    psi = np.ones((len(ids), g.n))
    psi[:, lookup(firm_ids, g.firm_index)] = np.where(filled, columns[0], 1.0)
    return ShockBatch.dense(psi, provenance="custom", scenario_ids=ids)
