"""Command-line front end.

Subcommands mirror the library: `classify`, `family`, `index`, `chow-certify`,
`basin`, `closed-orbit`, `replacements`, `divisor`, and the pinned golden
suite `paper-check`.  Output is a human-readable table by default and JSON
with --json; every rational is printed exactly as p/q in lowest terms.  Bad
input -- an unreadable, non-UTF-8 or malformed `--in` file, a document of the
wrong shape, a slice or listing over the engine's size budgets, or a curve
with more generic replacements than `basins.REPLACEMENT_BUDGET` -- is one
`error:` line on stderr and exit code 2.

Start-up is most of a command's time, so each subcommand imports the modules
it uses when it runs.  At load time this module needs only the package root;
the parser spells out the family and certificate names it offers.  `classify`
adds `graphs` alone, and only `chow-certify` and `paper-check` load `chow`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import GitcurvesError, __version__, fmt

if TYPE_CHECKING:
    from .families import Configuration, OneParamSubgroup
    from .graphs import CurveGraph

USAGE_ERROR = 2

#: the families the parser offers, `tuple(families.FAMILIES)`; spelled out so
#: that parsing does not load `families`
FAMILY_NAMES = ("open-rosary", "closed-rosary", "broken-bead")

#: the certificates `chow-certify` offers, `chow.CASES`; spelled out so that
#: parsing does not load `chow`
CASE_NAMES = ("non-ordinary-cusp", "higher-tacnode", "multiple-component",
              "genus-one-tacnode-tail")


class CliError(Exception):
    pass


def _read_json(path: str):
    """The JSON document in the file at `path`; a read or parse failure is a CliError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise CliError(f"{path}: JSON nested too deeply") from exc


def _read_graph(path: str) -> CurveGraph:
    from .graphs import CurveGraph, CurveGraphError

    doc = _read_json(path)
    try:
        return CurveGraph.from_dict(doc)
    except CurveGraphError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _family_values(args) -> list[int]:
    """The family's parameters, given in full and accepted by its `_maps` check."""
    from .families import FAMILIES

    _build, names, check = FAMILIES[args.family]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise CliError(f"{args.family} needs {' and '.join('--' + n for n in names)}")
    check(*values)
    return values


def _build_family(args) -> Configuration:
    from .families import FAMILIES

    return FAMILIES[args.family][0](*_family_values(args))


def _resolve_config(args) -> Configuration:
    from .families import FamilyError, configuration_from_dict

    if getattr(args, "infile", None):
        doc = _read_json(args.infile)
        try:
            return configuration_from_dict(doc)
        except FamilyError as exc:
            raise CliError(f"cannot load configuration: {exc}") from exc
    if getattr(args, "family", None):
        return _build_family(args)
    raise CliError("provide --family or --in")


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _table(rows: list[tuple], header: tuple) -> str:
    cols = [header] + [tuple(str(c) for c in r) for r in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(header))]
    lines = []
    for k, row in enumerate(cols):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    from .graphs import (
        arithmetic_genus,
        classify,
        find_elliptic_bridges,
        find_elliptic_tails,
        find_rosaries,
    )

    g = _read_graph(args.infile)
    flags = classify(g)
    witnesses = {
        "elliptic_tails": [sorted(t) for t in find_elliptic_tails(g)],
        "elliptic_bridges": [sorted(b) for b in find_elliptic_bridges(g)],
        "rosaries": [
            {"closed": r.closed, "beads": list(r.beads), "length": r.length}
            for r in find_rosaries(g)
        ],
    }
    payload = {
        "genus": arithmetic_genus(g),
        "flags": flags.as_dict(),
        "witnesses": witnesses,
    }
    rows = [(k, fmt(v)) for k, v in flags.as_dict().items()]
    human = (
        f"arithmetic genus: {payload['genus']}\n"
        + _table(rows, ("notion", "holds"))
        + "\n"
        + f"tails: {witnesses['elliptic_tails']}  bridges: {witnesses['elliptic_bridges']}"
    )
    _emit(args, payload, human)
    return 0


def cmd_family(args) -> int:
    cfg = _build_family(args)
    doc = cfg.to_dict()
    _emit(
        args,
        doc,
        json.dumps(doc, sort_keys=True, indent=2),
    )
    return 0


def _parse_weights(text: str, expected_len: int) -> OneParamSubgroup:
    from .families import OneParamSubgroup

    try:
        weights = tuple(int(w) for w in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --weights {text!r}") from exc
    if len(weights) != expected_len:
        raise CliError(f"--weights needs {expected_len} entries, got {len(weights)}")
    return OneParamSubgroup(weights)


def _parse_degrees(text: str) -> list[int]:
    try:
        return [int(m) for m in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --m {text!r}") from exc


def _parse_degree(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CliError(f"bad --m {text!r}") from exc


def cmd_index(args) -> int:
    from .engine import check_family_budget, check_slice_budget, index_suite
    from .families import canonical_1ps
    from .monomials import monomial_str

    if args.family and not args.infile:
        # refuse an over-budget degree before the build, as the built family would
        values = _family_values(args)
        for m in _parse_degrees(args.m) if args.m else [2, 3]:
            if m < 2 and not args.weights:
                break  # `hilbert_index` refuses this degree first
            if m >= 2:
                check_family_budget(args.family, values, m)
    cfg = _resolve_config(args)
    degrees = _parse_degrees(args.m) if args.m else [2, 3]
    if args.weights:
        for m in degrees:  # before the genus builds the graph's record
            if m >= 2:
                check_slice_budget(cfg.parametrization, m)
        rho = _parse_weights(args.weights, cfg.num_coordinates)
    else:
        rho = canonical_1ps(cfg)
    suite = index_suite(cfg, rho, degrees)
    payload = {
        "family": cfg.family,
        "params": dict(cfg.params),
        "genus": cfg.genus,
        "weights": list(rho.weights),
        "chow_sign": suite.chow_sign,
        "reports": [
            {
                "m": r.m,
                "weight_sum": fmt(r.weight_sum),
                "average": fmt(r.average),
                "mu": fmt(r.mu),
                "standard_count": r.standard_count,
                "expected_count": r.expected_count,
                "count_matches_hilbert": r.count_matches_hilbert,
            }
            for r in suite.reports
        ],
    }
    rows = [
        (r.m, fmt(r.weight_sum), fmt(r.average), fmt(r.mu), r.standard_count)
        for r in suite.reports
    ]
    human = _table(rows, ("m", "weight_sum", "average", "mu", "standard"))
    if suite.chow_sign is not None:
        human += f"\nchow sign: {suite.chow_sign:+d}" if suite.chow_sign else "\nchow sign: 0"
    if args.monomials:
        lines = []
        for r in suite.reports:
            lines.append(
                f"degree {r.m} initial: "
                + " ".join(monomial_str(mo) for mo in r.slice.initial_monomials())
            )
            lines.append(
                f"degree {r.m} standard: "
                + " ".join(monomial_str(mo) for mo in r.slice.standard_monomials())
            )
        human += "\n" + "\n".join(lines)
        payload["monomials"] = lines
    _emit(args, payload, human)
    return 0


def cmd_chow_certify(args) -> int:
    from .chow import certify_unstable

    cert = certify_unstable(args.case, args.g)
    payload = {
        "case": cert.case,
        "lower_bound": fmt(cert.lower_bound),
        "threshold": fmt(cert.threshold),
        "verdict": cert.verdict,
    }
    human = (
        f"case: {cert.case}\nmultiplicity bound: {fmt(cert.lower_bound)}\n"
        f"threshold: {fmt(cert.threshold)}\nverdict: {cert.verdict}"
    )
    _emit(args, payload, human)
    return 0


def cmd_basin(args) -> int:
    from .basins import SMOOTHABLE, basin_membership
    from .families import OneParamSubgroup, torus_generators

    cfg = _resolve_config(args)
    gens = torus_generators(cfg)
    if not gens:
        raise CliError("configuration has a finite automorphism group")
    if args.exponents:
        try:
            exps = [int(e) for e in args.exponents.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --exponents {args.exponents!r}") from exc
        if len(exps) != len(gens):
            raise CliError(f"--exponents needs {len(gens)} entries, got {len(exps)}")
    else:
        exps = [1] * len(gens)
    weights = [0] * cfg.num_coordinates
    for e, gen in zip(exps, gens):
        for i, w in enumerate(gen.weights):
            weights[i] += e * w
    rho = OneParamSubgroup(tuple(weights))
    report = basin_membership(cfg, rho)
    smoothable = sum(1 for _i, _k, s in report.classifications if s == SMOOTHABLE)
    payload = {
        "family": cfg.family,
        "params": dict(cfg.params),
        "exponents": exps,
        "classifications": [
            {"intersection": i, "kind": k, "status": s}
            for i, k, s in report.classifications
        ],
        "generic_member": report.generic.to_dict(),
        "partial_smoothings": 2**smoothable,
    }
    rows = [(i, k, s) for i, k, s in report.classifications]
    human = (
        _table(rows, ("singularity", "kind", "status"))
        + "\ngeneric member: "
        + report.generic.to_json()
    )
    _emit(args, payload, human)
    return 0


def cmd_closed_orbit(args) -> int:
    from .basins import (
        c_closed_orbit_rep,
        h_closed_orbit_rep,
        is_c_closed_orbit,
        is_h_closed_orbit,
    )
    from .graphs import arithmetic_genus

    g = _read_graph(args.infile)
    if args.mode == "c":
        rep = c_closed_orbit_rep(g)
        closed = is_c_closed_orbit(rep)
    elif args.mode == "h":
        rep = h_closed_orbit_rep(g)
        closed = is_h_closed_orbit(rep)
    else:
        raise CliError("--mode must be c or h")
    payload = {
        "mode": args.mode,
        "input_genus": arithmetic_genus(g),
        "representative": rep.to_dict(),
        "closed_orbit": closed,
    }
    _emit(args, payload, rep.to_json())
    return 0


def cmd_replacements(args) -> int:
    from .basins import enumerate_c_replacements

    g = _read_graph(args.infile)
    reps = enumerate_c_replacements(g)
    payload = {
        "count": len(reps),
        "configurations": [r.to_dict() for r in reps],
    }
    human = f"{len(reps)} generic configurations\n" + "\n".join(
        r.to_json() for r in reps
    )
    _emit(args, payload, human)
    return 0


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}") from exc


def cmd_divisor(args) -> int:
    from .divisors import (
        canonical_alpha_class,
        epsilon_of_m,
        lambda_n,
        moriwaki_decomposition,
        viehweg_class,
    )

    cls = None  # a divisor class, rendered below
    if args.what == "lambda-n":
        if args.n is None or args.g is None:
            raise CliError("divisor lambda-n needs --n and --g")
        cls = lambda_n(args.n, args.g)
    elif args.what == "viehweg":
        if args.n is None or args.m is None or args.g is None:
            raise CliError("divisor viehweg needs --n, --m and --g")
        cls = viehweg_class(args.n, _parse_degree(args.m), args.g)
    elif args.what == "epsilon":
        if args.m is None:
            raise CliError("divisor epsilon needs --m")
        val = epsilon_of_m(_parse_degree(args.m))
        payload = {"epsilon": fmt(val)}
        human = fmt(val)
    elif args.what == "k-alpha":
        if args.alpha is None or args.g is None:
            raise CliError("divisor k-alpha needs --alpha and --g")
        cls = canonical_alpha_class(_parse_rational(args.alpha), args.g)
    elif args.what == "moriwaki":
        if args.g is None:
            raise CliError("divisor moriwaki needs --g")
        cs = moriwaki_decomposition(args.g)
        payload = {"coefficients": [fmt(c) for c in cs], "all_positive": all(c > 0 for c in cs)}
        human = " ".join(fmt(c) for c in cs)
    else:
        raise CliError(f"unknown divisor computation {args.what!r}")
    if cls is not None:
        payload = {"lambda": fmt(cls.lam), "delta": fmt(cls.delta_total)}
        human = f"{fmt(cls.lam)}*lambda {fmt(cls.delta_total)}*delta"
    _emit(args, payload, human)
    return 0


def run_paper_check(only: Optional[str] = None) -> dict:
    """The golden suite's manifest (`paperchecks.run_paper_check`)."""
    from . import paperchecks

    return paperchecks.run_paper_check(only)


def cmd_paper_check(args) -> int:
    from .paperchecks import manifest_json

    manifest = run_paper_check(only=args.only)
    if args.only and not manifest["items"]:
        print(f"error: no checks match prefix {args.only!r}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        sys.stdout.write(manifest_json(manifest))
    else:
        for item in manifest["items"]:
            status = "pass" if item["pass"] else "FAIL"
            print(f"[{status}] {item['id']}: {item['description']}")
            if not item["pass"]:
                print(f"       expected: {item['expected']}")
                print(f"       actual:   {item['actual']}")
        print(
            f"{manifest['checks'] - manifest['failures']}/{manifest['checks']} checks passed"
        )
    return 0 if manifest["passed"] else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gitcurves",
        description="exact GIT stability computations for bicanonical curves",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("classify", help="stability flags of a curve graph")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    add_json(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("family", help="build one of the rosary configurations")
    sp.add_argument("family", choices=FAMILY_NAMES)
    sp.add_argument("--g", type=int)
    sp.add_argument("--r", type=int)
    add_json(sp)
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("index", help="Hilbert-Mumford indices of a configuration")
    sp.add_argument("--family", choices=FAMILY_NAMES)
    sp.add_argument("--in", dest="infile", metavar="FILE")
    sp.add_argument("--g", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--m", default="2,3", help="comma-separated degrees; the chow sign, of "
                    "mu3 - 2*mu2, assumes a 2-regular initial ideal (Bayer-Stillman): for "
                    "generic weights the exact index often departs from it from m = 4 or 5 on")
    sp.add_argument("--weights", help="comma-separated integer weight vector")
    sp.add_argument("--monomials", action="store_true", help="list initial/standard monomials")
    add_json(sp)
    sp.set_defaults(func=cmd_index)

    sp = sub.add_parser("chow-certify", help="Chow instability certificates")
    sp.add_argument("--case", choices=CASE_NAMES, required=True)
    sp.add_argument("--g", type=int)
    add_json(sp)
    sp.set_defaults(func=cmd_chow_certify)

    sp = sub.add_parser("basin", help="basin-of-attraction analysis of a configuration")
    sp.add_argument("--family", choices=FAMILY_NAMES)
    sp.add_argument("--in", dest="infile", metavar="FILE")
    sp.add_argument("--g", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--exponents", help="comma-separated exponents, one per torus generator")
    add_json(sp)
    sp.set_defaults(func=cmd_basin)

    sp = sub.add_parser("closed-orbit", help="closed-orbit representative of a curve")
    sp.add_argument("--mode", choices=["c", "h"], required=True)
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    add_json(sp)
    sp.set_defaults(func=cmd_closed_orbit)

    sp = sub.add_parser("replacements", help="generic c-semistable replacements")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    add_json(sp)
    sp.set_defaults(func=cmd_replacements)

    sp = sub.add_parser("divisor", help="divisor-class computations")
    sp.add_argument(
        "what", choices=["lambda-n", "viehweg", "epsilon", "k-alpha", "moriwaki"]
    )
    sp.add_argument("--n", type=int)
    sp.add_argument("--m")
    sp.add_argument("--g", type=int)
    sp.add_argument("--alpha")
    add_json(sp)
    sp.set_defaults(func=cmd_divisor)

    sp = sub.add_parser("paper-check", help="run the pinned golden suite")
    sp.add_argument("--only", help="restrict to check ids with this prefix")
    add_json(sp)
    sp.set_defaults(func=cmd_paper_check)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GitcurvesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit stays silent (the SIGPIPE note of the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
