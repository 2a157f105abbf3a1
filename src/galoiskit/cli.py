"""Command-line front end: galois-kit.

Subcommands: factor, split, group, minpoly, fixed, chain-groups, normalize,
solvable, verify-tower.  Every command emits a human-readable report or,
with --json, a canonical JSON document (stable key order, deterministic
element ordering, no timing) that validates against REPORT_SCHEMA.

Exit codes: 0 success, 2 parse/input error, 3 degree-cap refusal,
4 engine failure (a failed internal assertion, an internal arithmetic error
or an engine limit such as an exhausted primitive-element search or a group
beyond the closure bound; never a user error).

Only the argument parser is loaded at start-up: each command imports the
layers it runs, so `factor` never loads the number-field layer and
`--version` loads no layer at all.
"""

import argparse
import json
import sys
import time

from . import __version__
from .checks import collect_checks
from .errors import (
    DEFAULT_DEGREE_CAP,
    ChainFormatError,
    DegreeCapError,
    EngineLimitError,
    GaloisKitError,
    ParseError,
    SoundnessError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGREE_CAP = 3
EXIT_SOUNDNESS = 4

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "input", "settings", "result", "assertions", "engine_version"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "input": {"type": "object"},
        "settings": {
            "type": "object",
            "required": ["degree_cap", "seed"],
            "properties": {
                "degree_cap": {"type": "integer"},
                "seed": {"type": "integer"},
                "primes": {"type": ["array", "null"], "items": {"type": "integer"}},
            },
        },
        "result": {"type": "object"},
        "assertions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "count"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "count": {"type": "integer"},
                },
            },
        },
        "engine_version": {"type": "string"},
    },
}


def _element_str(e):
    from .poly import render_poly

    return render_poly(e.rep_poly(), e.field.gen_name)


def _aggregate_checks(log):
    order = []
    agg = {}
    for name, ok, _ in log:
        if name not in agg:
            agg[name] = {"name": name, "passed": True, "count": 0}
            order.append(name)
        agg[name]["count"] += 1
        agg[name]["passed"] = agg[name]["passed"] and ok
    return [agg[n] for n in order]


def _load_chain_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ChainFormatError(f"cannot read chain file {path}: {e}")
    except json.JSONDecodeError as e:
        raise ChainFormatError(f"chain file {path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or "stages" not in doc or not isinstance(doc["stages"], list):
        raise ChainFormatError('chain file must be {"stages": [{"k": ..., "radicand": ...}, ...]}')
    description = []
    for i, stage in enumerate(doc["stages"], start=1):
        if not isinstance(stage, dict) or "k" not in stage or "radicand" not in stage:
            raise ChainFormatError(f'stage {i} must be an object with "k" and "radicand"')
        k = stage["k"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise ChainFormatError(f"stage {i}: k must be an integer")
        radicand = stage["radicand"]
        if not isinstance(radicand, (str, int)) or isinstance(radicand, bool):
            raise ChainFormatError(f"stage {i}: radicand must be a string or integer")
        description.append((k, str(radicand)))
    return description


# ---------------------------------------------------------------------------
# command bodies (each returns a result dict)


def _cmd_factor(args, settings):
    from .parsing import parse_poly
    from .poly import render_poly
    from .qfactor import factor_over_Q

    p = parse_poly(args.polynomial)
    fac = factor_over_Q(p)
    return {
        "polynomial": render_poly(p),
        "unit": str(fac.unit),
        "factors": [
            {"polynomial": render_poly(g), "degree": g.degree, "multiplicity": m}
            for g, m in fac.factors
        ],
        "irreducible": len(fac.factors) == 1 and fac.factors[0][1] == 1 and p.degree >= 1,
    }


def _split_result(e):
    from .poly import render_poly

    return {
        "degree": e.degree,
        "polynomial": render_poly(e.source),
        "squarefree_part": render_poly(e.squarefree_source),
        "tower_stages": [
            {"generator": name, "relative_degree": deg} for name, deg, _ in e.tower.stages
        ],
        "primitive_min_poly": render_poly(e.field.min_poly),
        "roots": [_element_str(r) for r in e.roots],
        "notes": list(e.notes),
    }


def _splitting_field(args, settings):
    from .parsing import parse_poly
    from .splitting import splitting_field

    return splitting_field(parse_poly(args.polynomial), degree_cap=settings["degree_cap"])


def _field_and_group(args, settings):
    e = _splitting_field(args, settings)
    # imported after the field is built, so a cap refusal never loads it
    from .galois import galois_group

    return e, galois_group(e)


def _cmd_split(args, settings):
    return _split_result(_splitting_field(args, settings))


def _group_data(g):
    from .galois import _subgroup_generators

    perms = [a.root_permutation for a in g.automorphisms]
    gens = _subgroup_generators(g, range(g.order))
    return {
        "order": g.order,
        "identity_index": g.identity_index,
        "generators": [perms[i].cycle_notation() for i in gens],
        "elements": [p.cycle_notation() for p in perms],
        "theta_images": [_element_str(a.theta_image) for a in g.automorphisms],
    }


def _cmd_group(args, settings):
    e, g = _field_and_group(args, settings)
    result = _split_result(e)
    result.update(_group_data(g))
    return result


def _cmd_minpoly(args, settings):
    e, g = _field_and_group(args, settings)
    # imported after the field is built, so a cap refusal never loads them
    from .galois import orbit_min_poly
    from .numfield import minimal_polynomial
    from .parsing import evaluate_in_field
    from .poly import render_poly
    from .qfactor import is_irreducible_over_Q

    env = {f"r{i + 1}": r for i, r in enumerate(e.roots)}
    elt = evaluate_in_field(args.element, e.field.ext, env)
    via_orbit = orbit_min_poly(g, elt)
    via_linear_algebra = minimal_polynomial(elt)
    return {
        "element": _element_str(elt),
        "root_names": {f"r{i + 1}": _element_str(r) for i, r in enumerate(e.roots)},
        "orbit_method": render_poly(via_orbit),
        "linear_algebra_method": render_poly(via_linear_algebra),
        "agree": via_orbit == via_linear_algebra,
        "degree": via_orbit.degree,
        "irreducible": is_irreducible_over_Q(via_orbit),
    }


def _cmd_fixed(args, settings):
    _, g = _field_and_group(args, settings)
    # imported after the field is built, so a cap refusal never loads them
    from .galois import fixed_field, subgroup_fixing
    from .poly import render_poly

    try:
        indices = [int(t) for t in args.subgroup.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError("subgroup must be a comma-separated list of element indices", 1)
    if any(i < 0 or i >= g.order for i in indices):
        raise ParseError(f"subgroup indices must lie in [0, {g.order - 1}]", 1)
    closed = g.subgroup_indices_closure(indices)
    b = fixed_field(g, closed)
    back = subgroup_fixing(g, b)
    return {
        "group_order": g.order,
        "requested_generators": indices,
        "subgroup": list(closed),
        "subgroup_order": len(closed),
        "fixed_field_degree": b.degree,
        "primitive_element": _element_str(b.primitive),
        "primitive_min_poly": render_poly(b.min_poly),
        "duality_roundtrip": list(back) == list(closed),
    }


def _cmd_solvable(args, settings):
    from .parsing import parse_poly
    from .radical import necessary_condition_verdict

    p = parse_poly(args.polynomial)
    verdict = necessary_condition_verdict(
        p, degree_cap=settings["degree_cap"], primes=settings["primes"])
    return verdict.to_dict()


def _chain_tower(args, settings):
    from .radical import normalize_chain, realize_chain

    description = _load_chain_file(args.chain)
    chain = realize_chain(description, degree_cap=settings["degree_cap"])
    tower = normalize_chain(chain, degree_cap=settings["degree_cap"])
    return description, chain, tower


def _tower_result(description, chain, tower):
    from .poly import render_poly

    return {
        "chain": [{"k": k, "radicand": text} for k, text in description],
        "chain_degree": chain.degree,
        "chain_stage_degrees": [s.degree for s in chain.stages],
        "lcm_N": tower.lcm_degree,
        "level_degrees": [lv.degree for lv in tower.levels],
        "stages": [
            {
                "k": s.k,
                "orbit_size": len(s.orbit),
                "orbit_min_poly": render_poly(s.orbit_poly),
                "kummer_poly": render_poly(s.kummer_poly),
                "level_degree": s.level.degree,
                "radical_image": _element_str(s.a_images[-1]),
            }
            for s in tower.stages
        ],
        "defining_polynomials": [
            render_poly(tower.defining_polynomial(i)) for i in range(len(tower.levels))
        ],
    }


def _cmd_normalize(args, settings):
    description, chain, tower = _chain_tower(args, settings)
    return _tower_result(description, chain, tower)


def _cmd_verify_tower(args, settings):
    from .radical import verify_nested_normal_radical

    description, chain, tower = _chain_tower(args, settings)
    report = verify_nested_normal_radical(tower)
    result = _tower_result(description, chain, tower)
    result["verification"] = report.to_dict()
    return result


def _cmd_chain_groups(args, settings):
    from .permgroup import solvable_via_abelian_chain
    from .radical import abelian_layer_embeddings, associated_group_chain

    description, chain, tower = _chain_tower(args, settings)
    groups = associated_group_chain(tower)
    certificate = None
    if groups[-1].is_trivial:
        certificate = solvable_via_abelian_chain(groups).to_dict()
    layers = abelian_layer_embeddings(tower)
    result = _tower_result(description, chain, tower)
    result["group_chain_orders"] = [g.order for g in groups]
    result["quotient_orders"] = [
        groups[i].order // groups[i + 1].order for i in range(len(groups) - 1)
    ]
    result["certificate"] = certificate
    result["abelian_layers"] = [
        {
            "layer": label,
            "group_order": order,
            "target": target,
            "embedded": emb is not None,
        }
        for label, order, target, emb in layers
    ]
    return result


_COMMANDS = {
    "factor": (_cmd_factor, "complete factorization over Q"),
    "split": (_cmd_split, "splitting field: degree, tower, roots"),
    "group": (_cmd_group, "Galois group of the splitting field"),
    "minpoly": (_cmd_minpoly, "minimal polynomial by the orbit formula and by linear algebra"),
    "fixed": (_cmd_fixed, "fixed field of a subgroup of the Galois group"),
    "chain-groups": (_cmd_chain_groups, "associated group chain of a normalized radical tower"),
    "normalize": (_cmd_normalize, "normalize a radical chain to a nested normal radical tower"),
    "solvable": (_cmd_solvable, "necessary condition for solvability by radicals"),
    "verify-tower": (_cmd_verify_tower, "re-verify the nested-normal-radical-tower conditions"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="galois-kit",
        description="Exact-arithmetic Galois theory engine over Q.",
    )
    parser.add_argument("--version", action="version", version=f"galois-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name in ("chain-groups", "normalize", "verify-tower"):
            sp.add_argument("--chain", required=True, metavar="FILE",
                            help='JSON chain file: {"stages": [{"k": 2, "radicand": "1 + r1"}]}')
        else:
            sp.add_argument("polynomial", help="polynomial in x, e.g. \"x^5 - x - 1\"")
        if name == "minpoly":
            sp.add_argument("--element", required=True,
                            help="expression in the canonical roots r1, r2, ...")
        if name == "fixed":
            sp.add_argument("--subgroup", required=True,
                            help="comma-separated automorphism indices generating the subgroup")
        if name == "solvable":
            sp.add_argument("--primes", default=None,
                            help="comma-separated primes for the cycle-type witness (degree >= 5)")
        sp.add_argument("--json", action="store_true", help="emit a canonical JSON report")
        sp.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP,
                        help=f"refuse constructions beyond this field degree (default {DEFAULT_DEGREE_CAP})")
        sp.add_argument("--seed", type=int, default=1,
                        help="recorded in the report; no result depends on it (default 1)")
    return parser


def _print_human(report, elapsed):
    out = []
    out.append(f"galois-kit {report['engine_version']} :: {report['command']}")
    for key, value in report["input"].items():
        out.append(f"  {key}: {value}")
    out.append("result:")
    out.append(json.dumps(report["result"], indent=2, sort_keys=True))
    failed = [a for a in report["assertions"] if not a["passed"]]
    out.append(
        f"assertions: {len(report['assertions'])} kinds checked"
        + (f", FAILED: {[a['name'] for a in failed]}" if failed else ", all passed")
    )
    out.append(f"elapsed: {elapsed:.3f}s")
    print("\n".join(out))


def main(argv=None) -> int:
    # reports print exact integers of any size, past CPython's default
    # limit on int-to-text conversion; the parser bounds the input itself
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    fn = _COMMANDS[args.command][0]
    primes = None
    if getattr(args, "primes", None) is not None:
        from .scalars import is_prime

        try:
            primes = [int(t) for t in args.primes.split(",") if t.strip()]
        except ValueError:
            print("error: --primes must be a comma-separated list of integers", file=sys.stderr)
            return EXIT_INPUT
        if not primes:
            print("error: --primes lists no prime", file=sys.stderr)
            return EXIT_INPUT
        for i, q in enumerate(primes):
            if not is_prime(q):
                print(f"error: --primes entry {q} is not a prime", file=sys.stderr)
                return EXIT_INPUT
            if q in primes[:i]:
                print(f"error: --primes entry {q} is repeated", file=sys.stderr)
                return EXIT_INPUT
    if args.degree_cap < 1:
        print(f"error: --degree-cap {args.degree_cap} is below 1", file=sys.stderr)
        return EXIT_INPUT
    settings = {
        "degree_cap": args.degree_cap,
        "seed": args.seed,
        "primes": primes,
    }
    if args.command in ("chain-groups", "normalize", "verify-tower"):
        input_echo = {"chain_file": args.chain}
    else:
        input_echo = {"polynomial": args.polynomial}
    if getattr(args, "element", None):
        input_echo["element"] = args.element
    if getattr(args, "subgroup", None):
        input_echo["subgroup"] = args.subgroup
    started = time.monotonic()
    try:
        with collect_checks() as log:
            result = fn(args, settings)
        assertions = _aggregate_checks(log)
    except DegreeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGREE_CAP
    except SoundnessError as e:
        print(f"internal soundness failure: {e}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except EngineLimitError as e:
        print(f"engine limit reached: {e}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except (ValueError, ZeroDivisionError, GaloisKitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as e:
        print(f"internal arithmetic failure: {e}", file=sys.stderr)
        return EXIT_SOUNDNESS
    elapsed = time.monotonic() - started
    report = {
        "command": args.command,
        "input": input_echo,
        "settings": settings,
        "result": result,
        "assertions": assertions,
        "engine_version": __version__,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_human(report, elapsed)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
