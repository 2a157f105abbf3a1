"""The benchmark's three workloads and the inputs they generate.

A job is one child process: either a ``galois-kit`` CLI command (``cli``)
or a library correspondence session (``session``, see ``child.py``).  Each
job id names its hand-written expectation in ``expected.json``.
"""

import math
import random

WORKLOADS = ("tower-build", "correspondence", "radicals")
SD_PRIMES = (2, 3, 5, 7, 11)

# (job id, field polynomial, number of roots, element draws) for the
# correspondence sessions; the draw count keeps the element work a minority
# of each session, so the seed moves it little.
SESSION_FIELDS = (
    ("session-x4px1", "x^4+x+1", 4, 3),
    ("session-x7m2", "x^7-2", 7, 2),
    ("session-x3m2-x3m3", "(x^3-2)*(x^3-3)", 6, 4),
    ("session-x5m2", "x^5-2", 5, 4),
    ("session-x4m2", "x^4-2", 4, 6),
)
ELEMENT_COEFFS = (-2, -1, 1, 2, 3)


def swinnerton_dyer(primes):
    """Integer coefficients, lowest degree first, of prod (x ± √p1 ± ... ± √pn).

    Start from x^2 - p1; for each further p write S(x + √p) = A + √p·B with
    A, B in Z[x] and replace S by A^2 - p·B^2, which doubles the degree.
    """
    s = [-primes[0], 0, 1]
    for p in primes[1:]:
        a = [0] * len(s)
        b = [0] * len(s)
        for k, c in enumerate(s):
            for j in range(k + 1):
                term = c * math.comb(k, j) * p ** (j // 2)
                (b if j % 2 else a)[k - j] += term
        a2, b2 = _mul(a, a), _mul(b, b)
        b2 += [0] * (len(a2) - len(b2))
        s = [u - p * v for u, v in zip(a2, b2)]
        while s and s[-1] == 0:
            s.pop()
    return s


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def render(coeffs):
    """Render integer coefficients (lowest degree first) as CLI input."""
    terms = [f"{c}*x^{k}" for k, c in reversed(list(enumerate(coeffs))) if c]
    return "+".join(terms).replace("+-", "-")


def draw_elements(rng, n_roots, count):
    """Elements a·ri + b·rj, then a·ri + b·rj + c·rk, alternately.

    The coefficients are distinct draws from ELEMENT_COEFFS, so most elements
    have a large orbit and the cost of a draw varies little with the seed.
    """
    out = []
    for i in range(count):
        k = 2 + i % 2
        roots = sorted(rng.sample(range(1, n_roots + 1), k))
        terms = zip(rng.sample(ELEMENT_COEFFS, k), roots)
        out.append("+".join(f"{c}*r{r}" for c, r in terms).replace("+-", "-"))
    return out


def _cli(job_id, *argv):
    return {"id": job_id, "kind": "cli", "argv": list(argv)}


def _chain(job_id, command, name):
    return _cli(job_id, command, "--chain", f"bench/chains/{name}.json")


def jobs(workload, seed):
    """The job list of a workload; only the session element draws use the seed."""
    if workload == "tower-build":
        return [
            _cli("factor-sd32", "factor", render(swinnerton_dyer(SD_PRIMES))),
            _cli("split-x5m2-x2p1", "split", "(x^5-2)*(x^2+1)"),
            _cli("group-x9m2", "group", "x^9-2"),
            _cli("group-x7m2", "group", "x^7-2"),
            _cli("split-x10m2", "split", "x^10-2"),
        ]
    if workload == "correspondence":
        rng = random.Random(seed)
        out = []
        for job_id, poly, n_roots, draws in SESSION_FIELDS:
            out.append({
                "id": job_id,
                "kind": "session",
                "argv": [poly] + draw_elements(rng, n_roots, draws),
            })
        out.append(_cli("minpoly-x4px1", "minpoly", "x^4+x+1", "--element", "r1+2*r2"))
        out.append(_cli("fixed-x4px1", "fixed", "x^4+x+1", "--subgroup", "1"))
        return out
    if workload == "radicals":
        return [
            _cli("solvable-s5", "solvable", "x^5-x-1"),
            _cli("solvable-d5", "solvable", "x^5-5*x+12"),
            _cli("solvable-c5", "solvable", "x^5+x^4-4*x^3-3*x^2+3*x+1"),
            _cli("group-s5-refused", "group", "x^5-x-1"),
            _chain("chain-groups-22", "chain-groups", "sqrt2_then_sqrt_1_plus_r1"),
            _chain("chain-groups-33", "chain-groups", "cbrt2_then_cbrt3"),
            _chain("verify-tower-32", "verify-tower", "cbrt2_then_sqrt_r1"),
            _chain("normalize-23", "normalize", "sqrt3_then_cbrt_1_plus_r1"),
            _cli("solvable-x6px1", "solvable", "x^6+x+1"),
        ]
    raise KeyError(workload)
