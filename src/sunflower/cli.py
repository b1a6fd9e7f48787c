"""Command line interface: detect | bounds | reduce | search | conjecture | cnf.

Each command handler returns its output: a JSON-able payload, or raw text for
`bounds --format table` and `cnf export` without `--out`.  `main` alone writes
stdout (argparse's help and usage text aside).

Exit codes: 0 success, 1 domain errors (a sunflower found where freeness was
required, violated preconditions, oversize instances), 2 usage errors.  All
machine-readable output is JSON with sorted keys and no incidental noise:
identical arguments (seed and thread count included) print identical bytes.
Wall-clock timings never enter the JSON.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from pathlib import Path

import sunflower as sf

from .errors import InputHasSunflower, SunflowerError, UsageError
from .model import dump_json, parse_set_family, parse_vector_family


class _Parser(argparse.ArgumentParser):
    """Pins the help layout; add_subparsers builds every subparser from this class."""

    def __init__(self, *args, **kwargs):
        kwargs["formatter_class"] = partial(argparse.HelpFormatter, width=96, max_help_position=28)
        super().__init__(*args, **kwargs)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", metavar="FILE", help="read the family from FILE")
    p.add_argument(
        "--inline",
        metavar="TEXT",
        help="family given inline; ';' separates lines",
    )


def _read_text(args) -> str:
    if args.inline is not None and args.infile is not None:
        raise UsageError("--in and --inline are mutually exclusive")
    if args.inline is not None:
        return args.inline.replace(";", "\n") + "\n"
    if args.infile is not None:
        try:
            return Path(args.infile).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.infile}: {exc}") from exc
    raise UsageError("provide --in FILE or --inline TEXT")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _parse_moduli(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad moduli list {text!r}") from exc


def _parse_range(text: str) -> list[int]:
    lo_text, dots, hi_text = text.partition("..")
    try:  # a single value N is the range N..N
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}") from exc
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------- detect


def _cmd_detect_sets(args) -> dict:
    family = parse_set_family(_read_text(args), allow_empty=args.allow_empty)
    if args.t == 3:
        witness, detector = sf.find_sunflower_sets_fast(family), "fast"
    else:
        witness, detector = sf.find_sunflower_sets(family, args.t), "naive"
    return {
        "found": witness is not None,
        "t": args.t,
        "detector": detector,
        "witness": None if witness is None else witness.to_json_dict(family),
    }


def _cmd_detect_vectors(args) -> dict:
    family = parse_vector_family(_read_text(args), _parse_moduli(args.moduli))
    witness = sf.find_sunflower_vectors(family)
    return {
        "found": witness is not None,
        "witness": None if witness is None else witness.to_json_dict(),
    }


def _cmd_detect_ap(args) -> dict:
    family = parse_vector_family(_read_text(args), _parse_moduli(args.moduli))
    triple = sf.find_ap_triple(family)
    payload: dict = {"found": triple is not None, "witness": None}
    if triple is not None:
        i, j, l = triple
        vecs = [family.members[i], family.members[j], family.members[l]]
        payload["witness"] = {
            "members": [i, j, l],
            "vectors": [list(v) for v in vecs],
            "is_sunflower": sf.is_sunflower_vectors(*vecs),
        }
    return payload


# ---------------------------------------------------------------- bounds


def _bounds_table(reports) -> str:
    rows = [("name", "value", "exactness", "radius", "flags")]
    for r in reports:
        d = r.to_json_dict()
        value = d["value"]
        rows.append(
            (
                d["name"],
                value if isinstance(value, str) else repr(value),
                d["exactness"],
                repr(d["radius"]) if "radius" in d else "-",
                ",".join(d.get("flags", ())) or "-",
            )
        )
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows) + "\n"


def _cmd_bounds(args) -> list | str:
    moduli = _parse_moduli(args.moduli) if args.moduli else None
    reports = sf.compare_bounds(moduli=moduli, k=args.k, M=args.big_m)
    if args.format == "table":
        return _bounds_table(reports)
    return [r.to_json_dict() for r in reports]


def _cmd_bounds_j(args) -> dict:
    return sf.j_constant(args.q).to_json_dict()


# ---------------------------------------------------------------- reduce


def _cmd_reduce_pipeline(args) -> dict:
    if args.seed is None and args.rounds is not None:
        raise UsageError("--rounds needs --seed")
    family = parse_set_family(_read_text(args))
    rounds = {} if args.rounds is None else {"rounds": args.rounds}
    return sf.pipeline(family, seed=args.seed, **rounds).to_json_dict()


# ---------------------------------------------------------------- search


def _budget_flags(p: argparse.ArgumentParser) -> None:
    """Budget flags, left unset unless given so the library's defaults apply."""
    unset = argparse.SUPPRESS
    p.add_argument("--budget-nodes", dest="max_nodes", type=int, default=unset,
                   metavar="BUDGET_NODES")
    p.add_argument("--time-limit", type=float, default=unset, metavar="SECONDS")


def _budgets(args) -> dict:
    """The budget flags given, under the library's keywords."""
    given = vars(args)
    return {k: given[k] for k in ("max_nodes", "time_limit") if k in given}


def _cnf_parser(subs, name: str, help_text: str, handler) -> argparse.ArgumentParser:
    p = subs.add_parser(name, help=help_text)
    p.add_argument("--moduli")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--size", type=int, required=True, help="target family size")
    p.set_defaults(handler=handler)
    return p


def _cmd_search_vectors(args) -> dict:
    result = sf.max_sunflower_free_vectors(_parse_moduli(args.moduli), **_budgets(args))
    return result.to_json_dict()


def _cmd_search_uniform(args) -> dict:
    result = sf.max_sunflower_free_uniform(args.k, args.m, **_budgets(args))
    return result.to_json_dict()


def _cnf_instance(args) -> sf.search.Instance:
    has_moduli = args.moduli is not None
    has_uniform = args.k is not None or args.m is not None
    if has_moduli and has_uniform:
        raise UsageError("give either --moduli or --k/--m, not both")
    if has_moduli:
        return sf.VectorInstance(sf.as_modulus_vector(_parse_moduli(args.moduli)))
    if args.k is None or args.m is None:
        raise UsageError("give --moduli or both --k and --m")
    return sf.UniformInstance(args.k, args.m)


def _cmd_cnf_export(args) -> dict | str:
    cnf = sf.export_cnf(_cnf_instance(args), args.size)
    text = cnf.to_dimacs()
    if not args.out:
        return text
    _write_text(args.out, text)
    return {
        "written": args.out,
        "num_vars": cnf.num_vars,
        "num_clauses": len(cnf.clauses),
        "size": args.size,
    }


def _cmd_cnf_check(args) -> dict:
    cnf = sf.export_cnf(_cnf_instance(args), args.size)
    return {
        "satisfiable": sf.cnf_satisfiable(cnf),
        "num_vars": cnf.num_vars,
        "num_clauses": len(cnf.clauses),
        "size": args.size,
    }


# ---------------------------------------------------------------- conjecture


def _cmd_conjecture_scan(args) -> list:
    reports = sf.conjecture_scan(_parse_range(args.k), _parse_range(args.m), **_budgets(args))
    if args.csv:
        _write_text(args.csv, sf.scan_to_csv(reports))
    return [r.to_json_dict() for r in reports]


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="sunflower",
        description="Sunflower-free set systems: detection, bounds, reductions, exact search.",
    )
    subs = root.add_subparsers(dest="command", required=True, metavar="COMMAND")

    detect = subs.add_parser("detect", help="find sunflowers and progression triples")
    dsubs = detect.add_subparsers(dest="detect_cmd", required=True, metavar="WHAT")

    d_sets = dsubs.add_parser("sets", help="t-petal sunflowers in a set family")
    _add_input_flags(d_sets)
    d_sets.add_argument("--t", type=int, default=3, help="number of petals (default 3)")
    d_sets.add_argument("--allow-empty", action="store_true",
                        help="accept blank lines as empty members")
    d_sets.set_defaults(handler=_cmd_detect_sets)

    d_vec = dsubs.add_parser("vectors", help="3-sunflowers in a vector family")
    _add_input_flags(d_vec)
    d_vec.add_argument("--moduli", required=True, help="comma-separated moduli, e.g. 3,3")
    d_vec.set_defaults(handler=_cmd_detect_vectors)

    d_ap = dsubs.add_parser("ap", help="coordinatewise arithmetic-progression triples")
    _add_input_flags(d_ap)
    d_ap.add_argument("--moduli", required=True, help="comma-separated moduli")
    d_ap.set_defaults(handler=_cmd_detect_ap)

    bounds_p = subs.add_parser("bounds", help="evaluate and compare size bounds")
    bounds_p.add_argument("--moduli", help="vector-family context, e.g. 3,3,4")
    bounds_p.add_argument("--k", type=int, help="uniformity for the (k, M) context")
    bounds_p.add_argument("--M", dest="big_m", type=int, help="ground size for the (k, M) context")
    bounds_p.add_argument("--format", choices=("json", "table"), default="json")
    bounds_p.set_defaults(handler=_cmd_bounds)
    bsubs = bounds_p.add_subparsers(dest="bounds_cmd", metavar="[j]")
    b_j = bsubs.add_parser("j", help="minimize the J objective")
    b_j.add_argument("--q", type=int, required=True, help="the base q, from 2 to 2^53")
    b_j.set_defaults(handler=_cmd_bounds_j)

    reduce_p = subs.add_parser("reduce", help="structural reductions")
    rsubs = reduce_p.add_subparsers(dest="reduce_cmd", required=True, metavar="WHAT")
    r_pipe = rsubs.add_parser("pipeline", help="partition, strip, group, and rank a family")
    _add_input_flags(r_pipe)
    r_pipe.add_argument("--seed", type=int, help="seeded random partition")
    r_pipe.add_argument("--rounds", type=int, help="seeded rounds to try")
    r_pipe.set_defaults(handler=_cmd_reduce_pipeline)

    search_p = subs.add_parser("search", help="exact maximum sunflower-free families")
    ssubs = search_p.add_subparsers(dest="search_cmd", required=True, metavar="WHAT")

    s_vec = ssubs.add_parser("vectors", help="maximum family over given moduli")
    s_vec.add_argument("--moduli", required=True)
    _budget_flags(s_vec)
    s_vec.add_argument("--threads", type=int)
    s_vec.set_defaults(handler=_cmd_search_vectors)

    s_uni = ssubs.add_parser("uniform", help="maximum family of k-subsets of [m]")
    s_uni.add_argument("--k", type=int, required=True)
    s_uni.add_argument("--m", type=int, required=True)
    _budget_flags(s_uni)
    s_uni.set_defaults(handler=_cmd_search_uniform)

    cnf_p = subs.add_parser("cnf", help="CNF export and the naive checker")
    csubs = cnf_p.add_subparsers(dest="cnf_cmd", required=True, metavar="WHAT")
    c_export = _cnf_parser(csubs, "export", "export a DIMACS encoding", _cmd_cnf_export)
    c_export.add_argument("--out", metavar="FILE", help="write DIMACS to FILE")
    _cnf_parser(csubs, "check", "decide satisfiability with the naive checker", _cmd_cnf_check)

    conj_p = subs.add_parser("conjecture", help="probe the union-size and cover conjectures")
    cjsubs = conj_p.add_subparsers(dest="conjecture_cmd", required=True, metavar="WHAT")
    c_scan = cjsubs.add_parser("scan", help="tabulate extremal unions over a (k, m) grid")
    c_scan.add_argument("--k", required=True, help="k range, e.g. 1..3 or 2")
    c_scan.add_argument("--m", required=True, help="m range, e.g. 4..9")
    c_scan.add_argument("--csv", metavar="FILE", help="also write CSV to FILE")
    _budget_flags(c_scan)
    c_scan.add_argument("--threads", type=int)
    c_scan.set_defaults(handler=_cmd_conjecture_scan)

    return root


_shared_parser = cache(build_parser)  # parsing leaves the tree unchanged, so calls share one


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise UsageError("thread count must be at least 1")  # the library ignores it
        out, code = args.handler(args), 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SunflowerError as exc:
        out, code = {"error": type(exc).__name__, "message": str(exc)}, 1
        if isinstance(exc, InputHasSunflower):
            out["witness"] = exc.witness.to_json_dict(exc.family)
    sys.stdout.write(out if isinstance(out, str) else dump_json(out))
    return code


def entry() -> None:
    raise SystemExit(main())
