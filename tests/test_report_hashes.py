"""Byte identity of canonical ``--json`` reports on commands that hunt for
roots.

The hunt, the group enumeration, the tower root filters and the
correspondence's stabilizers, orbits and primitive elements screen at a
degree-one place and verify every survivor exactly, so neither the prime
nor the absence of a place may change a report.  ``bench/run.py`` prints
the same digests for these jobs.
"""

import hashlib
from pathlib import Path

import pytest

from galoiskit import modscreen
from galoiskit.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]

SPLIT = (("split", "(x^5-2)*(x^2+1)"),
         "657a3c8867d89b15bfed85c53d46f585d12d7281585914261d99deb9feb93214")
CHAIN = (("chain-groups", "--chain", "bench/chains/sqrt2_then_sqrt_1_plus_r1.json"),
         "653b53499c24ecbd99d289971640bcf52906fc855ab1def3a04b8717a8d63063")
GROUP = (("group", "x^7-2"),
         "dea6f2e47e9d6a7fbc09b0667a7ed595753fcd3f617132f52db7d5c0c5ffb75d")
# lifts over a base field at every level of the chain
NORMALIZE = (("normalize", "--chain", "bench/chains/sqrt3_then_cbrt_1_plus_r1.json"),
             "ae0f7f33730e2ebe72b4bdf18030cd13599ccedb9ed58403a4ade979f01fe444")
# the fixed field's rows d*(M - I)
FIXED = (("fixed", "x^4+x+1", "--subgroup", "1"),
         "33e38f2d669d8c2c99fefe7569cd7e314fd26ecd91e75f4b76df9e338c491545")
# an orbit over the cosets of a stabilizer of order two
MINPOLY = (("minpoly", "x^4+x+1", "--element", "r1+2*r2"),
           "6142e824af9e7e54fcd7e3bbc3461fb0a0a58644030310cb497c1656b4ec932a")
# most of a tower build is arithmetic on field elements
GROUP9 = (("group", "x^9-2"),
          "fe0c538a75dd20056e6ac10e187424b212e229b2ae93b3032fd7c8ccb0d69fb4")
SPLIT10 = (("split", "x^10-2"),
           "ec0b2b9d722d73209613d7076acdcf9ce4a91d17abe493195d1396e6fe7d5a86")
# without a place every test is exact; the splits are left out there, where
# their exact hunts take seconds
CASES = [SPLIT + (True,), CHAIN + (True,), GROUP + (True,), NORMALIZE + (True,), FIXED + (True,),
         MINPOLY + (True,), GROUP9 + (True,), SPLIT10 + (True,),
         CHAIN + (False,), GROUP + (False,), FIXED + (False,), MINPOLY + (False,)]


@pytest.mark.parametrize("argv, digest, screened", CASES,
                         ids=[" ".join(a[:2]) + ("" if s else " no-place") for a, _, s in CASES])
def test_report_is_byte_identical(monkeypatch, capsys, argv, digest, screened):
    # the chain file's path is part of the report, so run where the
    # benchmark runs: at the repository root, with the relative path
    monkeypatch.chdir(ROOT)
    if not screened:
        monkeypatch.setattr(modscreen, "find", lambda *args, **kwargs: None)
    assert main(list(argv) + ["--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
