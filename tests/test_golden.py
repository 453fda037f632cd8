"""Golden output: the SHA-256 of every file the CLI and the dump functions write.

The runs use the toy economy, small synthetic economies and relative paths,
so every output is a pure function of the code. ``manifest.json`` is hashed
without its ``versions`` block, which names the installed libraries. A
change to any output byte fails here; update ``GOLDEN`` only for a change
of format that is meant.
"""

from __future__ import annotations

import hashlib
import json
import shutil

from netstress import (
    EmpiricalShockTable,
    EssentialityTable,
    covid_style_batch,
    write_batch,
    write_economy,
)
from netstress.cli import main

from .builders import toy_economy

BATCH = "scenario_id,firm_id,psi\n0,f,0.0\n0,a,1.0\n1,d,0.25\n1,b,0.5\n"

RUNS = [
    ["generate", "--n", "40", "--m", "4", "--economy-seed", "5", "--out", "generate"],
    ["stress", "--economy-dir", "toy", "--count", "4", "--seed", "11", "--trace",
     "--workers", "1", "--out", "stress"],
    ["stress", "--economy-dir", "toy", "--batch-file", "batch.csv", "--workers", "1",
     "--out", "batch"],
    ["fsri", "--economy-dir", "toy", "--out", "fsri"],
    ["debtrank", "--economy-dir", "toy", "--trace", "--out", "debtrank"],
    ["report", "--ledgers", "stress/ledgers.csv", "--out", "report"],
]

GOLDEN = {
    "api/batch.csv": "88323cf563c0e300ae2e04fe0d34c446806eecca02dc8181b5b8c31e176ebb28",
    "api/economy/banks.csv": "ec0d8137701bff15f56597879c4f45a86383242cd2d7a05b37b08803f82bea80",
    "api/economy/essentiality.csv": "396f165462affa6e8f42cbc342c66f2bae8fd114b413bcfe3bb8617925dc9e55",
    "api/economy/firms.csv": "78081653c4a30701d94dbff4ab2eda42bbb2467d2238ca6da9349114f520bcb5",
    "api/economy/interbank.csv": "7daa90f6d88d7350815945007592596db26ff4f38bd9b0338e4754421219b446",
    "api/economy/loans.csv": "0b14dc35aa3f139e029403dbab60830a57fadcb2827f9bc6683baed8ad5edc5b",
    "api/economy/supply.csv": "0ec901a1e820ff94fdb4029eca0aed30a1eca54033175aeaa7adcff00a2899b9",
    "api/shocks.csv": "3f39f5caa368735cb9b696505ddfee3027c7fef82b7b703b30def2d5cc07d021",
    "batch/amplification.csv": "c0ca5d5f3b07367536f3a3cfbfb869376e4aca75a36ab48485487c6fca1a23e1",
    "batch/ccdf.csv": "bb71be1b632c1d7fdf543cf8cc7aa9ce7b2ec80020a0590ba5afbd24a4802015",
    "batch/fits.json": "761c488d9f183d9f4133aaab689ec7b2bcfca6bf9275f0ad5300e8187f3891b8",
    "batch/ledgers.csv": "bb10f72b2a3662f438a473b16877a799b3cd15ffea598a9d3f697f66c7308547",
    "batch/manifest.json": "08750c098c57441e130aeb9f9eb8cb36363ce323e97a84de01262a9ebfabaae3",
    "batch/risk_summary.csv": "f6468af1cee29578a466220d9536aec47bcb7d8b2666a49ca31f0a876158a1d3",
    "debtrank/debtrank.csv": "878082a6bde4bae4a42dbe08e2507b057e6398cf6c03711d2ec4f5755c82d41d",
    "debtrank/debtrank_trace_1.csv": "dffeac033e2784a85d3a86d1ed7362642a8f426723dc21e22f04d326f4728965",
    "debtrank/debtrank_trace_2.csv": "062b4dae5c17f03f97dff385946292158b3204b15331e734b3dde8ead057fb5b",
    "debtrank/debtrank_trace_3.csv": "49655a8b0bc2a2c08d53c3ac83f944c5f96dfd28da7fdc91cc1308bcf4e19aea",
    "debtrank/debtrank_trace_4.csv": "85238983739e221d5de7d1318802f185cc363d49a07b6a83452ee56da5c1f87d",
    "debtrank/manifest.json": "b54162e2db1b60c79ff82a04130578c9bf15eb10bf77eff19d16e35045fce9f3",
    "fsri/ccdf.csv": "26d1a119915c2703913fbccd6fbc4149b26185deac50968d418df7f5dae36c57",
    "fsri/fsri_profile.csv": "228d4c779aa867891741bd01f01d0ce4c519861524310e2d18d4d3bef1cf58e5",
    "fsri/manifest.json": "db65d0066cccde8ba9b4986d505876647031044015329a3ab42bff359e9f63e9",
    "generate/banks.csv": "dce4ec1c6a34234d9a5ba1d7aa71cd64a67b9f5a6c079a061c2d90f8a4f28586",
    "generate/firms.csv": "b36cdf34f17645621e736c73b3d2fdb4619abbbdd02d6b0f7b87407474a293f2",
    "generate/interbank.csv": "d6bb0cf3fb6c6297b2d8a2b88cddeda7fce5cf713af3d7a359eae37dd2aebff1",
    "generate/loans.csv": "ae88b7f2da0d3066dd179d22e756f8d622b53844286137cd67c6495ca85df74c",
    "generate/manifest.json": "454918d5fa64bd93594ed1f42871fe8ef1d5ba63f46fd60a27bd082dbe397ccf",
    "generate/supply.csv": "5af46c1ce8e7b2c671eade139d8a3b18be9b69a2db9511bbfdfc2e92e5e5b54d",
    "report/amplification.csv": "35a02bfcd361f45ba92939aa69124833267f14770b8b23c0e0413823b55e58cc",
    "report/ccdf.csv": "2a44472d749e9520f73ca2ae4efbb5f4918b6ad0929b501857cce7a241469a78",
    "report/fits.json": "16e0e893030ba88b8c5679ab3e9bf98f288ca17cf5f72a14ed81dac3aafbf189",
    "report/manifest.json": "dda1339c15667c180bd9b503b96b36faa269cb720453cf9f2fc74d71f1bcf8a1",
    "report/risk_summary.csv": "e098afbb4331e9987022c1e4e5a4bdcc6a8210b29863c4aa2826f42d53bdd217",
    "stress/amplification.csv": "35a02bfcd361f45ba92939aa69124833267f14770b8b23c0e0413823b55e58cc",
    "stress/ccdf.csv": "2a44472d749e9520f73ca2ae4efbb5f4918b6ad0929b501857cce7a241469a78",
    "stress/defaults.csv": "8c70c2759ac30800184dffac4b066b86277417dbf4f8b9e62c60c789a2655f0a",
    "stress/fits.json": "16e0e893030ba88b8c5679ab3e9bf98f288ca17cf5f72a14ed81dac3aafbf189",
    "stress/ledgers.csv": "172558398d13eacfeed856f9dbe85bdb2fd0ab42320e9178abffb841c6158dce",
    "stress/manifest.json": "1611fd654abb00636c83e2f8e00e7825847730e0f309f5bc0614040a7b415cb6",
    "stress/risk_summary.csv": "e098afbb4331e9987022c1e4e5a4bdcc6a8210b29863c4aa2826f42d53bdd217",
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("versions")
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def _api_dumps(out) -> None:
    g = toy_economy()
    g.essentiality = EssentialityTable(overrides={("1011", "1012"): False, ("10", "10"): True})
    out.mkdir()
    write_economy(g, out / "economy")
    table = EmpiricalShockTable(reductions={"a": 0.3, "d": 0.5, "f": 0.125})
    table.write_csv(out / "shocks.csv")
    write_batch(covid_style_batch(g, table, count=3, seed=2), g.firm_ids, out / "batch.csv")


def test_output_bytes_unchanged(toy_dir, tmp_path, monkeypatch):
    shutil.copytree(toy_dir, tmp_path / "toy")
    (tmp_path / "batch.csv").write_text(BATCH)
    monkeypatch.chdir(tmp_path)
    for argv in RUNS:
        assert main(argv) == 0, argv
    _api_dumps(tmp_path / "api")
    got = {
        str(p.relative_to(tmp_path)): _digest(p)
        for run in [argv[-1] for argv in RUNS] + ["api"]
        for p in sorted((tmp_path / run).rglob("*")) if p.is_file()
    }
    assert got == GOLDEN, json.dumps(got, indent=4, sort_keys=True)
