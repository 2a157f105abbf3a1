"""One benchmark job in its own process, optionally traced.

    python bench/child.py RECORD [--trace] cli ARG...
    python bench/child.py RECORD [--trace] session POLYNOMIAL ELEMENT...

``cli`` runs ``galois-kit ARG...`` in-process.  ``session`` builds the
splitting field of POLYNOMIAL and its group, runs fixed_field and
subgroup_fixing on every subgroup, and computes the minimal polynomial of
each ELEMENT (an expression in the roots r1, r2, ...) by both routes.  Either
prints its canonical JSON report on stdout.

On exit the job's own peak RSS is written to the JSON file RECORD; with
``--trace`` the layer wrappers of ``tracer.py`` are installed first and the
per-layer summary is written there too.  A traced job that receives SIGTERM
writes the chain of its open spans instead and exits with code 124.
"""

import json
import os
import resource
import signal
import sys

TIMEOUT_EXIT = 124


def session(poly_text, elements):
    # imported here, after any wrappers are installed, so the calls below are traced
    from galoiskit.checks import collect_checks
    from galoiskit.galois import fixed_field, galois_group, orbit_min_poly, subgroup_fixing
    from galoiskit.numfield import minimal_polynomial
    from galoiskit.parsing import evaluate_in_field, parse_poly
    from galoiskit.permgroup import all_subgroups
    from galoiskit.poly import render_poly
    from galoiskit.qfactor import is_irreducible_over_Q
    from galoiskit.splitting import splitting_field

    with collect_checks() as log:
        e = splitting_field(parse_poly(poly_text))
        g = galois_group(e)
        index = {a.root_permutation: i for i, a in enumerate(g.automorphisms)}
        subgroups = []
        for h in all_subgroups(g.perm_group()):
            idx = tuple(sorted(index[p] for p in h.elements))
            b = fixed_field(g, idx)
            subgroups.append({
                "order": len(idx),
                "fixed_degree": b.degree,
                "fixed_min_poly": render_poly(b.min_poly),
                "roundtrip": subgroup_fixing(g, b) == idx,
            })
        env = {f"r{i + 1}": r for i, r in enumerate(e.roots)}
        draws = []
        for text in elements:
            a = evaluate_in_field(text, e.field.ext, env)
            via_orbit = orbit_min_poly(g, a)
            draws.append({
                "element": text,
                "orbit_method": render_poly(via_orbit),
                "linear_algebra_method": render_poly(minimal_polynomial(a)),
                "irreducible": is_irreducible_over_Q(via_orbit),
            })
    result = {
        "degree": e.degree,
        "group_order": g.order,
        "subgroup_count": len(subgroups),
        "subgroups": subgroups,
        "draws": draws,
    }
    report = {
        "command": "session",
        "input": {"polynomial": poly_text, "elements": list(elements)},
        "result": result,
        "assertions": _aggregate(log),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _aggregate(log):
    """(name, passed, count) per check name, in first-seen order, as the CLI reports them.

    A copy of the CLI's private helper, so the benchmark does not depend on
    engine internals that later changes may rename.
    """
    agg = {}
    for name, ok, _ in log:
        entry = agg.setdefault(name, {"name": name, "passed": True, "count": 0})
        entry["count"] += 1
        entry["passed"] = entry["passed"] and ok
    return list(agg.values())


def run(kind, args):
    if kind == "cli":
        import galoiskit.cli
        return galoiskit.cli.main(args)
    if kind == "session":
        return session(args[0], args[1:])
    raise SystemExit(f"unknown job kind {kind!r}")


def peak_rss_kb(pid="self"):
    """Peak RSS in KB of a live process since its exec, or None where /proc cannot tell.

    ru_maxrss would also count the parent's memory copied at fork, so the
    kernel's VmHWM is read instead.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _own_peak_rss_kb():
    return peak_rss_kb() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    record_path, argv = argv[0], argv[1:]
    record = {}
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
        import galoiskit.cli  # noqa: F401  (loads every layer before wrapping)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

        def on_timeout(signum, frame):
            sys.stdout.flush()
            _write(record_path, {"open_spans": tracer.open_chain(),
                                 "peak_rss_kb": _own_peak_rss_kb()})
            os._exit(TIMEOUT_EXIT)

        signal.signal(signal.SIGTERM, on_timeout)
    try:
        return run(argv[0], argv[1:])
    finally:
        if traced:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            record["trace"] = tracer.summary()
        record["peak_rss_kb"] = _own_peak_rss_kb()
        _write(record_path, record)


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
