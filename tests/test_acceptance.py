"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from netstress import (
    ChannelDecomposition,
    InterbankNetwork,
    LoanBook,
    SupplyNetwork,
    SyntheticParams,
    bank_losses,
    covid_style_batch,
    debtrank,
    default_flags,
    fsri,
    fsri_plus,
    generate_synthetic_economy,
    ib_amplification,
    ols_fit,
    profit_shock,
    propagate,
    risk_measures,
    run_batch,
    synthetic_shock_table,
    welch_test,
)
from netstress.cli import main as cli_main

from .builders import BankSheet, FirmNode, graph_from_records, single_firm_shock, toy_economy
from .conftest import random_economy
from .oracle import oracle_scenario


def check(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_toy_fixture_exactness():
    start = time.perf_counter()
    g = toy_economy()
    psi = single_firm_shock(g, "f")

    h_wo = psi
    h_w = propagate(g, psi).h
    chi_wo = default_flags(g, profit_shock(g, h_wo))
    chi_w = default_flags(g, profit_shock(g, h_w))
    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    elapsed = time.perf_counter() - start

    ok = (
        np.array_equal(h_wo, [1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        and np.array_equal(h_w, np.zeros(6))
        and ledger.di[2] == 0.25
        and ledger.sc[2] == 0.05
        and ledger.sc[3] == 0.10
        and not ledger.di[[0, 1, 3]].any()
        and not ledger.sc[[0, 1]].any()
        and elapsed < 1.0
    )
    check(1, "toy fixture reproduces exact channel losses and cascades", ok)


def test_criterion_2_closed_form_amplification():
    rng = np.random.default_rng(99)
    worst = 0.0
    for case in range(100):
        m = int(rng.integers(2, 7))
        equities = rng.uniform(50.0, 400.0, m)
        banks = [BankSheet(f"b{k}", float(e)) for k, e in enumerate(equities)]
        edges = [
            (k, l, float(rng.uniform(1.0, 0.4 * equities[l])))
            for k in range(m)
            for l in range(m)
            if k != l and rng.random() < 0.5
        ]
        interbank = InterbankNetwork.from_edges(
            m, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges]
        )
        hit = int(rng.integers(0, m))
        firm = FirmNode("x", "1000", 100.0, 60.0, 30.0, 50.0, 10.0)
        g = graph_from_records(
            firms=[firm],
            supply=SupplyNetwork.from_edges(1, [], [], []),
            banks=banks,
            interbank=interbank,
            loans=LoanBook.from_entries(1, m, [0], [hit], [float(equities[hit] * 1e-4)]),
        )
        ratio = fsri_plus(g, "x") / fsri(g, "x")
        liabilities = float(np.asarray(interbank.liabilities.sum(axis=1)).ravel()[hit])
        expected = 1.0 + liabilities / equities[hit]
        worst = max(worst, abs(ratio - expected))
    check(2, f"one-round amplification matches closed form (worst gap {worst:.2e})", worst < 1e-9)


def test_criterion_3_regime_ordering_zero_violations():
    g = generate_synthetic_economy(
        SyntheticParams(n=1000, m=19, target_exposure_ratio=12.5), seed=7
    )
    table = synthetic_shock_table(g, seed=3)
    batch = covid_style_batch(g, table, count=120, seed=11)
    result = run_batch(g, batch)
    losses = ChannelDecomposition(result).channel_losses()
    ib_violations = int((result.ib_w < result.ib_wo).sum())
    total_violations = int((losses["di_sc_ib"] < losses["di_ib"]).sum())
    check(
        3,
        f"IB and total regime orderings hold for all {len(batch)} x 19 pairs "
        f"({ib_violations + total_violations} violations)",
        ib_violations == 0 and total_violations == 0,
    )


def test_criterion_4_brute_force_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 5))
        g = random_economy(rng, n=n, m=m)
        psi = rng.uniform(0.0, 1.0, n)
        result = run_batch(
            g,
            __import__("netstress").ShockBatch.dense(psi=psi[None, :], provenance="custom"),
        )
        di, sc, ib_wo, ib_w = oracle_scenario(g, list(psi))
        worst = max(
            worst,
            float(np.max(np.abs(result.di[0] - di))),
            float(np.max(np.abs(result.sc[0] - sc))),
            float(np.max(np.abs(result.ib_wo[0] - ib_wo))),
            float(np.max(np.abs(result.ib_w[0] - ib_w))),
        )
    check(4, f"50 small economies match the loop oracle end to end (worst gap {worst:.2e})", worst < 1e-9)


def test_criterion_5_debtrank_linearity_and_monotonicity():
    g = toy_economy()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        seed = rng.uniform(0.0, 0.5, 4)
        base = debtrank(g, seed, epsilon=1e-14, max_iter=10_000).final
        for alpha in (0.1, 0.5):
            scaled = debtrank(g, alpha * seed, epsilon=1e-14, max_iter=10_000).final
            worst = max(worst, float(np.max(np.abs(scaled - alpha * base))))
    linear_ok = worst < 1e-9

    mono_ok = True
    for _ in range(100):
        a = rng.uniform(0.0, 0.8, 4)
        b = rng.uniform(0.0, 0.8, 4)
        low, high = np.minimum(a, b), np.maximum(a, b)
        final_low = debtrank(g, low, epsilon=1e-12, max_iter=10_000).final
        final_high = debtrank(g, high, epsilon=1e-12, max_iter=10_000).final
        mono_ok = mono_ok and bool(np.all(final_low <= final_high + 1e-12))
    check(
        5,
        f"contagion is linear below the clamp (worst gap {worst:.2e}) and monotone in seeds",
        linear_ok and mono_ok,
    )


def test_criterion_6_lgd_proportionality():
    psi_shock = None
    results = {}
    for lgd in (1.0, 0.5):
        g = toy_economy()
        g.loans.lgd = lgd
        psi_shock = single_firm_shock(g, "f")
        chi_wo = default_flags(g, profit_shock(g, psi_shock))
        chi_w = default_flags(g, profit_shock(g, propagate(g, psi_shock).h))
        results[lgd] = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    di_gap = float(np.max(np.abs(results[0.5].di - 0.5 * results[1.0].di)))
    sc_gap = float(np.max(np.abs(results[0.5].sc - 0.5 * results[1.0].sc)))
    check(
        6,
        f"halving loss-given-default halves both channels (gaps {di_gap:.2e}, {sc_gap:.2e})",
        di_gap <= 1e-12 and sc_gap <= 1e-12,
    )


def test_criterion_7_sector_aggregate_preservation():
    g = generate_synthetic_economy(SyntheticParams(n=800, m=8), seed=21)
    table = synthetic_shock_table(g, seed=22)
    batch = covid_style_batch(g, table, count=50, seed=23)

    nace2 = np.asarray([s[:2] for s in g.sectors], dtype=object)
    out = g.total_output()
    residual_keys = {(s, code) for s, code, _ in batch.residuals}
    worst = 0.0
    sector_scenarios = 0
    for code in sorted(set(nace2)):
        members = np.flatnonzero(nace2 == code)
        data = [i for i in members if g.firm_ids[i] in table.reductions]
        emp = np.array([table.reductions[g.firm_ids[i]] for i in data])
        w_data = out[data]
        target = float(w_data @ emp / w_data.sum()) if w_data.sum() > 0 else float(emp.mean())
        weights = out[members]
        if weights.sum() <= 0:
            weights = np.ones(members.size)
        for s in range(len(batch)):
            sector_scenarios += 1
            if (s, code) in residual_keys:
                continue
            red = 1.0 - batch.psi[s, members]
            worst = max(worst, abs(float(weights @ red / weights.sum()) - target))
    residual_fraction = len(batch.residuals) / sector_scenarios
    check(
        7,
        f"industry aggregates preserved to {worst:.2e}; residual path hit "
        f"{residual_fraction:.2%} of sector-scenarios",
        worst < 1e-9 and residual_fraction < 0.01,
    )


def test_criterion_8_statistics_correctness():
    summary = risk_measures(np.arange(1, 101, dtype=float))
    stats_ok = (
        summary.el == pytest.approx(50.5)
        and summary.var95 == 95.0
        and summary.es95 == pytest.approx(98.0)
    )

    rng = np.random.default_rng(42)
    p = welch_test(rng.normal(0, 1, 10_000), rng.normal(1, 1, 10_000)).p_value
    welch_ok = p < 1e-15

    x = np.linspace(1.0, 7.0, 25)
    fit = ols_fit(x, 3.0 * x - 2.0)
    log_fit = ols_fit(x, x**2.5, log_log=True)
    ols_ok = (
        fit.slope == pytest.approx(3.0, abs=1e-12)
        and fit.r_squared == pytest.approx(1.0, abs=1e-12)
        and log_fit.slope == pytest.approx(2.5, abs=1e-12)
        and log_fit.r_squared == pytest.approx(1.0, abs=1e-12)
    )
    check(
        8,
        "risk measures, separated-sample test and exact-data fits are pinned",
        stats_ok and welch_ok and ols_ok,
    )


def test_criterion_9_qualitative_patterns_at_scale():
    start = time.perf_counter()
    g = generate_synthetic_economy(
        SyntheticParams(n=10_000, m=19, target_exposure_ratio=12.5), seed=7
    )
    table = synthetic_shock_table(g, seed=3)
    batch = covid_style_batch(g, table, count=1000, seed=11)
    result = run_batch(g, batch)
    elapsed = time.perf_counter() - start

    dec = ChannelDecomposition(result)
    system = dec.system_losses()
    el = {name: float(values.mean()) for name, values in system.items()}
    ordering_ok = el["di"] < el["di_sc"] < el["di_sc_ib"]

    mask = result.ib_wo.ravel() > 0.0
    fit = ols_fit(result.ib_wo.ravel()[mask], result.ib_w.ravel()[mask])
    slope_ok = fit.slope > 1.0

    stats = ib_amplification(result.ib_wo, result.ib_w)
    tail_mass = float((stats.pooled_ratios > 2.0).mean())
    tail_ok = tail_mass > 0.0

    check(
        9,
        f"tuned economy shows EL ordering ({el['di']:.4f} < {el['di_sc']:.4f} < "
        f"{el['di_sc_ib']:.4f}), pooled slope {fit.slope:.2f} > 1, amplification "
        f"tail mass {tail_mass:.2%}, runtime {elapsed:.0f}s",
        ordering_ok and slope_ok and tail_ok and elapsed < 600.0,
    )


def test_criterion_10_bit_identical_reruns(tmp_path):
    out = tmp_path / "run"
    args = [
        "stress", "--synthetic", "--n", "150", "--m", "8", "--economy-seed", "5",
        "--count", "30", "--seed", "11", "--out", str(out), "--workers", "1",
    ]
    assert cli_main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli_main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    identical = first == second
    check(10, f"repeated runs produce bit-identical report files ({len(first)} files)", identical)
