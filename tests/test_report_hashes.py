"""Byte identity of canonical ``--json`` reports on commands that hunt for
roots, and of whole subgroup lattices.

The hunt, the group enumeration, the tower root filters and the
correspondence's stabilizers, orbits and primitive elements screen at a
degree-one place and verify exactly every survivor they cannot prove from
what is already verified (a stabilizer holds the closure of its verified
fixers), so neither the prime nor the absence of a place may change a
report.  ``bench/run.py`` prints the same digests for these jobs.  A
lattice digest covers, per subgroup from ``permgroup.all_subgroups``, what
a correspondence session reports: its order, its fixed field's degree and
rendered minimal polynomial, and whether ``subgroup_fixing`` returns it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from galoiskit import modscreen, numfield
from galoiskit.cli import EXIT_OK, main
from galoiskit.galois import fixed_field, galois_group, subgroup_fixing
from galoiskit.parsing import parse_poly
from galoiskit.permgroup import all_subgroups
from galoiskit.poly import render_poly
from galoiskit.splitting import splitting_field

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
# both factor over a number field, so with a place they pull Trager factors
# back at the places of the splitting prime, and without one by Euclid
VERIFY = (("verify-tower", "--chain", "bench/chains/cbrt2_then_sqrt_r1.json"),
          "db2d65e3993fd1ca71fff3cbd5486595a78d576c18d3aa605680581638c430c4")
SOLVABLE_C5 = (("solvable", "x^5+x^4-4*x^3-3*x^2+3*x+1"),
               "87e6c171021971321486ab4dc439b90f69608273494f0d8d3fc7782f515b5889")
# the A5 field of degree 60: the largest primitive element any test flattens
SPLIT_A5 = (("split", "x^5+20*x+16"),
            "e6098089becbabbcc49fc3aaf743f63ec918d1f84306256bd0dc4be7386ceefc")
# without a place every test is exact; the splits are left out there, where
# their exact hunts take seconds
CASES = [SPLIT + (True,), CHAIN + (True,), GROUP + (True,), NORMALIZE + (True,), FIXED + (True,),
         MINPOLY + (True,), GROUP9 + (True,), SPLIT10 + (True,), VERIFY + (True,),
         SOLVABLE_C5 + (True,), SPLIT_A5 + (True,),
         CHAIN + (False,), GROUP + (False,), FIXED + (False,), MINPOLY + (False,), VERIFY + (False,),
         SOLVABLE_C5 + (False,)]


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


# the split's norms are all irreducible over Q, so it pulls nothing back
EXACT = [SPLIT + ({"_squarefree_norm"},), VERIFY + ({"_squarefree_norm", "poly_gcd"},),
         SOLVABLE_C5 + ({"_squarefree_norm", "poly_gcd"},)]


@pytest.mark.parametrize("argv, digest, routines", EXACT, ids=[" ".join(a[:2]) for a, _, _ in EXACT])
def test_exact_route_report_is_byte_identical(monkeypatch, capsys, argv, digest, routines):
    # with only the places' lift cap below every proven precision, each
    # factorization over a number field takes the exact route: the
    # power-relation norm and Euclid over the field
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(numfield, "MAX_LIFT_BITS", 0)
    exact = []
    for name in ("_squarefree_norm", "poly_gcd"):
        monkeypatch.setattr(numfield, name, lambda *a, _f=getattr(numfield, name), _n=name:
                            exact.append(_n) or _f(*a))
    assert main(list(argv) + ["--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert set(exact) == routines


# the last has the deepest generator chains: order 32 and 90 subgroups
LATTICES = [("x^7-2", "f3a94283edc21c7f01d23d03b5e21e0f06e847e6028cfa8a8176bc7fd4076e13"),
            ("x^4+x+1", "a1adc47dbd0f519626c518da023b4d20ea354bf4dfbfc84d1e4eaff0ced5ab75"),
            ("(x^4-2)*(x^4-3)", "4a4cc0b29e0dd6ad9be071926ce13894a4da2abf1b803001c9e78a502c6ebbf3")]


@pytest.mark.parametrize("screened", [True, False], ids=["place", "no-place"])
@pytest.mark.parametrize("poly, digest", LATTICES, ids=[p for p, _ in LATTICES])
def test_lattice_is_byte_identical(monkeypatch, poly, digest, screened):
    if not screened:
        monkeypatch.setattr(modscreen, "find", lambda *args, **kwargs: None)
    G = galois_group(splitting_field(parse_poly(poly)))
    assert (G.splitting.place is not None) == screened
    rows = []
    for H in all_subgroups(G.perm_group()):
        idx = tuple(sorted(map(G.index_of_perm, H.elements)))
        B = fixed_field(G, idx)
        rows.append([len(idx), B.degree, render_poly(B.min_poly), subgroup_fixing(G, B) == idx])
    assert hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest() == digest
