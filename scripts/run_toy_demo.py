#!/usr/bin/env python3
"""Walk the shipped six-firm fixture through every pipeline stage.

Loads the checkout's ``data/toy``, found from this script's own path, and
prints the cascade, the default sets, the per-bank channel losses and the
two systemic-risk indices for the worst firm. Takes no arguments.
"""

from __future__ import annotations

from pathlib import Path

from netstress import (
    bank_losses,
    compute_esri,
    debtrank,
    default_flags,
    economy_files,
    fsri,
    fsri_plus,
    load_economy,
    profit_shock,
    propagate,
    single_firm_batch,
    validate_economy,
)

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"


def main() -> None:
    g = load_economy(economy_files(TOY))
    print("validation:", "ok" if validate_economy(g).ok else "violations found")

    psi = next(single_firm_batch(g, ["f"]).blocks(1))[0]
    print("\nshock: firm f stops;", "psi =", psi)

    h_wo = psi  # without the cascade, production is the shock itself
    profile = propagate(g, psi)
    print("remaining production without cascade:", h_wo)
    print(f"remaining production with cascade:    {profile.h} "
          f"(converged in {profile.iterations} iterations)")

    chi_wo = default_flags(g, profit_shock(g, h_wo))
    chi_w = default_flags(g, profit_shock(g, profile.h))
    print("defaults without cascade:", [f for f, hit in zip(g.firm_ids, chi_wo.chi) if hit])
    print("defaults with cascade:   ", [f for f, hit in zip(g.firm_ids, chi_w.chi) if hit])

    ledger = bank_losses(g, chi_w=chi_w, chi_wo=chi_wo)
    print("\nper-bank loss fractions (of Tier 1 equity):")
    print("  bank   direct   supply-chain")
    for bank_id, di, sc in zip(g.bank_ids, ledger.di, ledger.sc):
        print(f"  {bank_id:>4}   {di:6.2%}   {sc:6.2%}")

    result_w = debtrank(g, ledger.seed_with())
    result_wo = debtrank(g, ledger.seed_without())
    print("\ninterbank contagion adds (with / without cascade):")
    for bank_id, ib_w, ib_wo in zip(g.bank_ids, result_w.ib_marginal, result_wo.ib_marginal):
        print(f"  {bank_id:>4}   {ib_w:6.2%} / {ib_wo:6.2%}")

    print(f"\noutput share lost if f exits:            {compute_esri(g, 'f'):.1%}")
    print(f"banking equity share lost (credit only):  {fsri(g, 'f'):.2%}")
    print(f"banking equity share lost (plus interbank): {fsri_plus(g, 'f'):.2%}")


if __name__ == "__main__":
    main()
