"""Golden output of the synthetic generator: SHA-256 of the CSVs it leads to.

``generate_synthetic_economy`` is a pure function of its parameters and
seed, and ``write_economy`` writes floats with ``repr``, so these digests
change only when the random stream, the arithmetic or the file format
does. The cases cover one, two and nineteen banks (with two banks a firm
that borrows twice often draws the same bank first and must draw again),
every weight family, a partly non-essential sector table and firms
without financials.
"""

from __future__ import annotations

import hashlib

import pytest

from netstress import SyntheticParams, generate_synthetic_economy, write_economy

N = 3000

CASES = {
    "m1-lognormal": (dict(m=1, weight_family="lognormal"), 7, {
        "banks.csv": "71a39248695228bd93c322c0b4b9aeb6a3ac6f7118ac45b195da037c15dc7407",
        "firms.csv": "1b525fbec0fa5ffc80b159a2b943d4594daea1d876fd649d4733ffd6d0b8fa35",
        "interbank.csv": "2f8c848d82cbf2f464dd32d54eddf26bbe6382430afe62749c428e051ec7d717",
        "loans.csv": "e1a74971e16f8b077c0cffc1ee2270a24740a7c7d28adf8dc8fd3aa2645454ff",
        "supply.csv": "e6830840b9eaa6a34575be6a54d5b396fc885496570f4b2de441c3a64314c381",
    }),
    "m1-pareto-missing": (dict(m=1, weight_family="pareto", missing_financials_rate=0.2), 5, {
        "banks.csv": "c67d7fc9b7b619fb8aefb191ab7fdfd495217ac104293269cae0eae38f280802",
        "firms.csv": "d804fd1ef087a03dea4d4c1b19ca732d5697091e68a9c99fdf2616d5afb52f47",
        "interbank.csv": "2f8c848d82cbf2f464dd32d54eddf26bbe6382430afe62749c428e051ec7d717",
        "loans.csv": "738065c80574d9554374f4747ba0810175bed114d9f379c3c9650707772dbeb4",
        "supply.csv": "537bf0a550880bbd3fef19db5e43e3d43d32dc061d496466d0f27d1e35fe2445",
    }),
    "m2-pareto-half-essential": (dict(m=2, weight_family="pareto", essential_fraction=0.5), 11, {
        "banks.csv": "f1dc6fe25f10ed54181a7a9c8fa622d62a62983b7d16758a770fccfa11e05c61",
        "essentiality.csv": "9849df0052957731ec8d7431b5d1b864ba5250fcb3174672ceb221b00fd3b8de",
        "firms.csv": "f63214e9ae1c7a2dd221111bbdf848422324228d1e3e162b88471915f8620623",
        "interbank.csv": "427783929ca66b18cf69982717117ca8c11dd4ba9f98c444fac056decea378e8",
        "loans.csv": "91bbdfbb2e6d0ca7d35bae34dc552644705040313dd80f8d002a70d48d0bf61a",
        "supply.csv": "f84772fc409ce02ac777fb73da37662730169556fd20e7cb90e7f6c4fb9671b1",
    }),
    "m2-uniform-missing": (dict(m=2, weight_family="uniform", missing_financials_rate=0.2), 3, {
        "banks.csv": "e5d04be65497f00b5f3dbebc7525952b3f578219e36066dc1d37ca9934be1712",
        "firms.csv": "e298e40548652bc5521f55cb6bb30e876bb02a02b068b28852e9aa2972ce1dec",
        "interbank.csv": "8806095e142853575adfe858140dbd6376d09ba2f80fcb36e4b61a9984f97f0c",
        "loans.csv": "770c7f8d9b8ecf22ac99840dd40cabaee411de9969dfbde41b0b7d79d17a05ab",
        "supply.csv": "bc947f3ad9f167cb3c275ce87053e34651201c904e0336a81841a7264c187ec2",
    }),
    "m19-lognormal-both": (dict(m=19, weight_family="lognormal", essential_fraction=0.5,
                                 missing_financials_rate=0.2), 7, {
        "banks.csv": "d20b12bf808add8e7812924ce7f12a4c078dd469459b278253ffb90e59f26423",
        "essentiality.csv": "6ef04bcf7c63a0be5fdbcf56c413eb8d048801e601b503c04c6b95ed29fd1ad5",
        "firms.csv": "cf1e4fe3570d2f1255f1ad6c6cf32cc80079444b0bfd8a6b63d0e3029c900ec1",
        "interbank.csv": "fb66f4f07b1b8afd5153e18cb6edd015afb28e3605685ed39e140ec10a49de7c",
        "loans.csv": "e55c4af6355243ea40007f1b4071e477402a9f9adb39a0362f66e575d73b7053",
        "supply.csv": "e6830840b9eaa6a34575be6a54d5b396fc885496570f4b2de441c3a64314c381",
    }),
    "m19-uniform": (dict(m=19, weight_family="uniform"), 11, {
        "banks.csv": "a7e363c2e7843a99422b5a7df943bd8665c94b9f026c2dd036548b7c59135d14",
        "firms.csv": "2f861f750ae4eb209ac3dc0500f0fd984478da18d131846d645c5a72461e7d40",
        "interbank.csv": "b586805aba433f2ffdb4ad0e9ca1b3edc1f5efbe91b5df7fb3761b9ec653efe1",
        "loans.csv": "67a19a10b56cbc27f7657df8445ae47acd0af664014efbcff3dccbc406a0c5f3",
        "supply.csv": "a289ccdd73786b404f9e4dcdec7876e0683174446499f05eeecc227e0101aacf",
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_files_unchanged(tmp_path, case):
    kwargs, seed, golden = CASES[case]
    g = generate_synthetic_economy(SyntheticParams(n=N, **kwargs), seed=seed)
    write_economy(g, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("*.csv"))}
    assert got == golden
