"""Independent brute-force oracle: plain-Python loops, no shared code paths.

Re-derives the whole pipeline from the raw matrices with dictionaries and
explicit iteration so that vectorized results can be checked end to end
on small economies. ``oracle_covid_rows`` is the exception: it keeps the
pandemic-style draw of one scenario and one draw group at a time, on the
library's own sampling layout and rescaling, to check the batched draw.
``oracle_read_blocks`` is the CSV reader that parses every row with
:mod:`csv`, to check the reader that splits plain blocks of text.
"""

from __future__ import annotations

import csv

import numpy as np

from netstress.economy import DataFormatError
from netstress.scenarios import _AGGREGATE_TOL, _rescale_to_target, _sampling_layout
from netstress.tables import BLOCK_ROWS, Block


def _dense(matrix) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(matrix.todense())]


def is_essential(table, supplier_sector: str, buyer_sector: str) -> bool:
    """One pair's essentiality: the exact pair, then two-digit prefixes, then the default."""
    key = (supplier_sector, buyer_sector)
    if key in table.overrides:
        return table.overrides[key]
    key2 = (supplier_sector[:2], buyer_sector[:2])
    if key2 in table.overrides:
        return table.overrides[key2]
    return table.default_essential


def oracle_propagate(g, psi, epsilon=0.01, max_iter=1000, sigma=0.0):
    """Per-firm loop version of the production-shock cascade."""
    n = g.n
    w = _dense(g.supply.weights)
    sectors = list(g.sectors)
    table = g.essentiality

    h = [float(v) for v in psi]
    for _ in range(max_iter):
        h_new = []
        for j in range(n):
            # pool input availability by supplier sector
            pools: dict[str, list[float]] = {}
            for i in range(n):
                if w[i][j] > 0.0:
                    pools.setdefault(sectors[i], [0.0, 0.0])
                    pools[sectors[i]][0] += w[i][j] * h[i]
                    pools[sectors[i]][1] += w[i][j]
            d = 1.0
            ne_alphas = []
            for sector, (avail, tot) in pools.items():
                alpha = avail / tot
                if is_essential(table, sector, sectors[j]):
                    d = min(d, alpha)
                else:
                    ne_alphas.append(alpha)
            if sigma > 0.0 and ne_alphas:
                d *= 1.0 - sigma * (1.0 - sum(ne_alphas) / len(ne_alphas))

            sold = sum(w[j][k] for k in range(n))
            if sold > 0.0:
                u = sum(w[j][k] * h[k] for k in range(n)) / sold
            else:
                u = 1.0
            h_new.append(min(psi[j], d, u, h[j]))
        drop = max((h[j] - h_new[j] for j in range(n)), default=0.0)
        h = h_new
        if drop <= epsilon:
            break
    return h


def oracle_defaults(g, h):
    """Balance-sheet arithmetic: default when equity or liquidity is exhausted."""
    chi = []
    for i in range(g.n):
        if not g.eligible_for_default[i]:
            chi.append(0)
            continue
        revenue, op_cost, equity, short_assets, short_liabs = (
            float(g.revenue[i]), float(g.op_cost[i]), float(g.equity[i]),
            float(g.short_assets[i]), float(g.short_liabs[i]),
        )
        dp = (1.0 - h[i]) * (revenue - op_cost) if g.financials_present[i] else 0.0
        equity_gone = (equity - dp) <= 0.0
        liquidity_gone = (short_assets - short_liabs - dp) <= 0.0
        chi.append(1 if (equity_gone or liquidity_gone) else 0)
    return chi


def oracle_bank_losses(g, chi):
    """Write-offs per bank as fractions of equity, by direct summation."""
    book = _dense(g.loans.principals)
    out = []
    for k, tier1_equity in enumerate(g.bank_equity.tolist()):
        total = sum(book[i][k] for i in range(g.n) if chi[i])
        out.append(g.loans.lgd * total / tier1_equity)
    return out


def oracle_debtrank(g, seed, epsilon=0.01, max_iter=1000):
    """Explicit matrix iteration of the solvency-contagion fixed point."""
    m = g.m
    liab = _dense(g.interbank.liabilities)
    equity = g.bank_equity.tolist()
    lam = [[liab[l][k] / equity[k] for k in range(m)] for l in range(m)]
    total_equity = sum(equity)

    losses = [float(v) for v in seed]
    for _ in range(max_iter):
        clamped = [min(v, 1.0) for v in losses]
        updated = [
            seed[k] + sum(lam[l][k] * clamped[l] for l in range(m)) for k in range(m)
        ]
        change = sum(equity[k] * (updated[k] - losses[k]) for k in range(m)) / total_equity
        losses = updated
        if change <= epsilon:
            break
    return losses


def oracle_scenario(g, psi, epsilon=0.01, max_iter=1000, dr_epsilon=0.01, dr_max_iter=1000):
    """Full both-regime pipeline: returns (di, sc, ib_wo, ib_w) lists."""
    chi_wo = oracle_defaults(g, list(psi))
    h_w = oracle_propagate(g, list(psi), epsilon=epsilon, max_iter=max_iter)
    chi_w = oracle_defaults(g, h_w)

    di = oracle_bank_losses(g, chi_wo)
    total_w = oracle_bank_losses(g, chi_w)
    sc = [tw - d for tw, d in zip(total_w, di)]

    seed_wo = [min(v, 1.0) for v in di]
    seed_w = [min(d + s, 1.0) for d, s in zip(di, sc)]
    final_wo = oracle_debtrank(g, seed_wo, epsilon=dr_epsilon, max_iter=dr_max_iter)
    final_w = oracle_debtrank(g, seed_w, epsilon=dr_epsilon, max_iter=dr_max_iter)
    ib_wo = [f - s for f, s in zip(final_wo, seed_wo)]
    ib_w = [f - s for f, s in zip(final_w, seed_w)]
    return di, sc, ib_wo, ib_w


def oracle_fsri(g, firm_id, epsilon=0.01, max_iter=1000, sigma=0.0, dr_epsilon=0.01, dr_max_iter=1000):
    """Serial (FSRI, FSRI+) of one firm's failure: the cascade, the defaults it
    leaves, their write-offs clamped at one equity and weighted by equity;
    FSRI+ runs interbank contagion on the clamped write-offs first."""
    psi = [0.0 if fid == firm_id else 1.0 for fid in g.firm_ids]
    h = oracle_propagate(g, psi, epsilon=epsilon, max_iter=max_iter, sigma=sigma)
    seed = [min(v, 1.0) for v in oracle_bank_losses(g, oracle_defaults(g, h))]
    final = oracle_debtrank(g, seed, epsilon=dr_epsilon, max_iter=dr_max_iter)
    equity = g.bank_equity.tolist()
    total = sum(equity)
    base = sum(e * s for e, s in zip(equity, seed)) / total
    plus = sum(e * min(f, 1.0) for e, f in zip(equity, final)) / total
    return base, plus



def oracle_loan_book(rng, eligible, revenue, p, coverage, m):
    """The generator's loan book with one scalar ``rng`` call per draw and
    ``rng.choice`` for the banks."""
    firms, banks, amounts = [], [], []
    for i in eligible:
        if rng.random() >= coverage:
            continue
        n_loans = 1 + int(rng.random() < 0.3)
        for k in rng.choice(m, size=min(n_loans, m), replace=False, p=p).tolist():
            firms.append(i)
            banks.append(k)
            amounts.append(float(revenue[i] * rng.uniform(0.05, 0.3)))
    return firms, banks, amounts


def oracle_covid_rows(g, table, count, seed):
    """``covid_style_batch`` one scenario, industry and draw group at a time: (psi, residuals)."""
    groups = _sampling_layout(g, table)
    rng = np.random.default_rng(seed)
    psi = np.ones((count, g.n))
    residuals = []
    for s, row in enumerate(psi):
        for grp in groups:
            red = np.empty(grp.members.size)
            for positions, values in grp.draw_groups:
                red[positions] = values[rng.integers(0, values.size, positions.size)]
            gap = _rescale_to_target(red, grp.weights, grp.target_mean)
            if abs(gap) > _AGGREGATE_TOL:
                residuals.append((s, grp.code, gap))
            row[grp.members] = 1.0 - red
    return psi, residuals


def oracle_read_blocks(path, columns):
    """``read_blocks`` with every row parsed by :mod:`csv`."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open ({exc})") from exc
    with handle:
        reader = csv.reader(handle)
        rows: list[list[str]] = []
        start = 0
        failure = None
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file, expected header {','.join(columns)}")
            if [c.strip() for c in header] != columns:
                raise DataFormatError(f"{path}: header is {','.join(header)}, expected {','.join(columns)}")
            width = len(columns)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue  # a blank line
                    failure = DataFormatError(f"{path} line {reader.line_num}: wrong number of fields")
                    break
                rows.append(row)
                if len(rows) == BLOCK_ROWS:
                    yield Block(path, start, columns, list(zip(*rows)))
                    start += len(rows)
                    rows = []
        except (UnicodeDecodeError, csv.Error) as exc:
            failure = DataFormatError(f"{path} line {reader.line_num}: {exc}")
        if rows:
            yield Block(path, start, columns, list(zip(*rows)))
        if failure is not None:
            raise failure
