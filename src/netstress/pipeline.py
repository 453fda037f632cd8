"""End-to-end scenario runs: shock -> cascade -> defaults -> bank losses.

Every scenario is evaluated in both regimes. The regime without
supply-chain contagion takes the raw shock as the final production levels;
the regime with contagion propagates it first. Both sets of bank losses
then seed the interbank solvency contagion separately.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .credit import bank_losses, default_flags, profit_shock
from .debtrank import DEFAULT_EPSILON, DEFAULT_MAX_ITER, debtrank
from .economy import EconomyGraph
from .propagation import PropagationConfig, propagate
from .scenarios import ShockBatch


@dataclass
class BatchResult:
    """Stacked channel losses over a scenario batch; one row per scenario.

    ``scenario_ids`` name the rows in every output; they default to
    ``0 .. len - 1``.
    """

    bank_ids: list[str]
    bank_equity: np.ndarray
    di: np.ndarray      # (scenarios, banks)
    sc: np.ndarray
    ib_wo: np.ndarray
    ib_w: np.ndarray
    sc_converged: np.ndarray
    dr_wo_converged: np.ndarray
    dr_w_converged: np.ndarray
    chi_wo: np.ndarray | None = None  # (scenarios, firms), kept only on request
    chi_w: np.ndarray | None = None
    dp_w: np.ndarray | None = None
    scenario_ids: list[int] | None = None

    def __post_init__(self):
        if self.scenario_ids is None:
            self.scenario_ids = list(range(len(self)))

    def __len__(self) -> int:
        return self.di.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(
            self.sc_converged.all() and self.dr_wo_converged.all() and self.dr_w_converged.all()
        )


# at most this many bytes of shock vectors per block: the blocks in flight
# sit in the parent, and so in every worker forked from it
BLOCK_BYTES = 2 << 20
# scenarios per cascade and credit call: eight levels of a firm fill a 64-byte cache line
CHUNK = 8

# what every block of a pool worker shares: set once per worker process
_shared: tuple | None = None


def _run_block(g, cfg, dr_epsilon, dr_max_iter, keep_defaults, psi_block) -> dict[str, np.ndarray]:
    """Run a block of scenarios through both regimes, a chunk at a time; per-firm arrays if ``keep_defaults``."""
    rows = len(psi_block)
    out = {name: np.empty((rows, g.m)) for name in ("di", "sc", "ib_wo", "ib_w")}
    for name in ("sc_converged", "dr_wo_converged", "dr_w_converged"):
        out[name] = np.empty(rows, dtype=bool)
    if keep_defaults:
        out.update(chi_wo=np.empty((rows, g.n), dtype=bool), chi_w=np.empty((rows, g.n), dtype=bool),
                   dp_w=np.empty((rows, g.n)))
    for start in range(0, rows, CHUNK):
        _run_chunk(g, cfg, dr_epsilon, dr_max_iter, psi_block[start:start + CHUNK], out, start)
    return out


def _run_chunk(g, cfg, dr_epsilon, dr_max_iter, psi, out, start) -> None:
    """Run the scenarios ``psi`` into rows ``start, ...`` of ``out``; their arrays go on return."""
    # each stage is looked up here per chunk: benchmarks/tracing.py wraps them in this namespace
    part = slice(start, start + len(psi))
    chi_wo = default_flags(g, profit_shock(g, psi))
    profile = propagate(g, psi, cfg)
    shock_w = profit_shock(g, profile.h)
    chi_w = default_flags(g, shock_w)
    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    out["di"][part], out["sc"][part] = ledger.di, ledger.sc
    out["sc_converged"][part] = profile.done
    if "chi_w" in out:
        out["chi_wo"][part], out["chi_w"][part], out["dp_w"][part] = chi_wo.chi, chi_w.chi, shock_w.dp
    for k, seed_wo, seed_w in zip(range(start, part.stop), ledger.seed_without(), ledger.seed_with()):
        result_wo = debtrank(g, seed_wo, epsilon=dr_epsilon, max_iter=dr_max_iter)
        result_w = debtrank(g, seed_w, epsilon=dr_epsilon, max_iter=dr_max_iter)
        out["ib_wo"][k], out["ib_w"][k] = result_wo.ib_marginal, result_w.ib_marginal
        out["dr_wo_converged"][k], out["dr_w_converged"][k] = result_wo.converged, result_w.converged


def _init_worker(*shared) -> None:
    global _shared
    _shared = shared


def _run_shared_block(psi_block) -> dict[str, np.ndarray]:
    return _run_block(*_shared, psi_block)


def run_batch(
    g: EconomyGraph,
    batch: ShockBatch,
    cfg: PropagationConfig = PropagationConfig(),
    *,
    dr_epsilon: float = DEFAULT_EPSILON,
    dr_max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
    keep_defaults: bool = False,
) -> BatchResult:
    """Run a whole batch, optionally over a process pool.

    The batch is read block by block, so a generated batch is never held
    whole. Each pool worker receives the graph and settings once, every
    block only its shock vectors, and at most ``2 * workers`` blocks are
    in flight. Results are reduced in scenario order, so the output is
    identical for any worker count and block size.
    """
    shared = (g, cfg, dr_epsilon, dr_max_iter, keep_defaults)
    n_scenarios = len(batch)
    if n_scenarios == 0:
        raise ValueError("batch has no scenarios")
    # rows per block: within BLOCK_BYTES, at least 4 * workers blocks, and whole chunks
    # where a block holds more than one: a narrow chunk steps little faster than one scenario
    rows = min(BLOCK_BYTES // (8 * max(g.n, 1)), -(-n_scenarios // (4 * max(workers, 1))))
    blocks = batch.blocks(max(rows - rows % CHUNK if rows > CHUNK else rows, 1))
    if workers > 1 and n_scenarios > 1:
        parts = []
        pending = deque()
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=shared
        ) as pool:
            for block in blocks:
                pending.append(pool.submit(_run_shared_block, block))
                if len(pending) == 2 * workers:
                    parts.append(pending.popleft().result())
            parts += [future.result() for future in pending]
    else:
        # map lets each block go before the next one is drawn
        parts = list(map(partial(_run_block, *shared), blocks))

    return BatchResult(
        bank_ids=list(g.bank_ids),
        bank_equity=g.bank_equity.copy(),
        scenario_ids=list(batch.scenario_ids),
        **{name: np.concatenate([part[name] for part in parts]) for name in parts[0]},
    )
