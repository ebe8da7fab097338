"""Command-line front end: ``qdt <subcommand> [flags]``.

Subcommands
-----------
kac        Kac polynomial of one dimension vector (census + interpolation).
census     Full finite-field census report for one dimension vector.
series     Normalized stack series of a quiver to a truncation order.
hn         Semistable stack count via the Harder-Narasimhan recursion.
wallcross  Wall-crossing factorization check (total vs slope-ordered product).
nakajima   Framed quiver-variety weight polynomials (--dim is the framing).
hilb3      Refined series for Hilbert schemes of points in 3-space.
charstack  Genus-one character stack series.
check      Run the bundled acceptance suite.

Exit codes: 0 success, 1 check failure, 2 usage/input error, 3 budget cap
exhaustion.  Reports are deterministic (sorted JSON keys, no timestamps) so
identical invocations produce byte-identical output; on any error nothing is
written to ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product

from .acceptance import run_all
from .census import (
    CapExceeded,
    CensusError,
    DEFAULT_END_BUDGET,
    DEFAULT_POINT_BUDGET,
    census_report,
    kac_polynomial,
    stack_count,
)
from .dtseries import (
    DTSeriesError,
    build_kac_table,
    char_stack_series,
    hilb3_series,
    hn_semistable_series,
    nakajima_series,
    stack_series_from_kac,
    wallcross_check,
)
from .exactalg import ExactAlgError
from .quiver import (
    QuiverError,
    load_constraint,
    load_quiver,
    load_stability,
)

__all__ = ["main", "dispatch"]

_RELATIONS = ("none", "preprojective")


def _workers_default() -> int:
    env = os.environ.get("QDT_WORKERS", "").strip()
    if env:
        try:
            w = int(env)
            if w >= 1:
                return w
        except ValueError:
            pass
    return 1


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "quiver" in names:
        p.add_argument("--quiver", required=True, help="path to a quiver JSON file")
    if "stability" in names:
        p.add_argument("--stability", required=True, help="path to a stability JSON file")
    if "constraint" in names:
        p.add_argument("--constraint", help="path to a Serre-constraint JSON file")
    if "dim" in names:
        p.add_argument(
            "--dim",
            required=True,
            help="dimension vector, comma-separated in vertex declaration order",
        )
    if "p" in names:
        p.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    if "primes" in names:
        p.add_argument(
            "--primes",
            help="comma-separated interpolation primes (strictly increasing; "
            "last one is the reserved consistency check)",
        )
    if "order" in names:
        p.add_argument("--order", type=int, required=True, help="series truncation order")
    if "relations" in names:
        p.add_argument(
            "--relations",
            choices=_RELATIONS,
            default="none",
            help="path-algebra relations imposed on the census",
        )
    p.add_argument("--point-budget", type=int, default=DEFAULT_POINT_BUDGET)
    p.add_argument("--end-budget", type=int, default=DEFAULT_END_BUDGET)
    p.add_argument("--workers", type=int, default=_workers_default())
    p.add_argument("--out", help="write the report here (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdt",
        description="Exact quiver census and Donaldson-Thomas series toolkit",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("kac", help="Kac polynomial of one dimension vector")
    _add_common(p, "quiver", "constraint", "dim", "primes")

    p = sub.add_parser("census", help="finite-field census report")
    _add_common(p, "quiver", "constraint", "dim", "p", "relations")

    p = sub.add_parser("series", help="normalized stack series")
    _add_common(p, "quiver", "constraint", "order", "primes")
    p.add_argument(
        "--kac-factor",
        choices=("q/(q-1)", "1/(q-1)"),
        default="q/(q-1)",
        help="per-entry normalization factor inside the plethystic exponential",
    )

    p = sub.add_parser("hn", help="semistable stack count via HN recursion")
    _add_common(p, "quiver", "stability", "constraint", "dim", "p", "relations")

    p = sub.add_parser("wallcross", help="wall-crossing factorization check")
    _add_common(p, "quiver", "stability", "constraint", "p", "order")
    p.add_argument("--relations", choices=_RELATIONS, default="preprojective")

    p = sub.add_parser("nakajima", help="quiver-variety weight polynomials")
    _add_common(p, "quiver", "order")
    p.add_argument(
        "--dim",
        required=True,
        help="framing vector, comma-separated in vertex declaration order",
    )

    p = sub.add_parser("hilb3", help="Hilbert-scheme-of-3-space series")
    _add_common(p, "order")
    p.add_argument("--at-q", type=int, help="evaluate every coefficient at this integer q")

    p = sub.add_parser("charstack", help="genus-one character stack series")
    _add_common(p, "order")

    p = sub.add_parser("check", help="run the acceptance suite")
    _add_common(p)
    return ap


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _flatten(prefix: str, node, rows: list[tuple[str, str]]) -> None:
    if isinstance(node, dict):
        for k in sorted(node):
            _flatten(f"{prefix}.{k}" if prefix else str(k), node[k], rows)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(node, bool):
        rows.append((prefix, "true" if node else "false"))
    elif node is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(node)))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("key", "value"))
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _emit(report: dict, args) -> None:
    text = _render(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_dim(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise QuiverError(f"--dim {text!r} is malformed: {exc}") from exc


def _dim_of(q, text: str):
    try:
        return q.dim(_parse_dim(text))
    except QuiverError as exc:
        raise QuiverError(f"--dim {text!r}: {exc}") from exc


def _parse_primes(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise QuiverError(f"malformed prime list {text!r}: {exc}") from exc


def _poly_json(poly) -> dict[str, str]:
    return {str(e): str(c) for e, c in sorted(poly.q_dict().items())}


def _load_inputs(args):
    q = load_quiver(args.quiver) if getattr(args, "quiver", None) else None
    z = (
        load_stability(args.stability, q)
        if getattr(args, "stability", None)
        else None
    )
    s = load_constraint(args.constraint) if getattr(args, "constraint", None) else None
    return q, z, s


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns (report dict, exit code))
# ---------------------------------------------------------------------------

def _run_kac(args):
    q, _, s = _load_inputs(args)
    d = _dim_of(q, args.dim)
    poly = kac_polynomial(
        q,
        d,
        s,
        _parse_primes(args.primes),
        point_budget=args.point_budget,
        end_budget=args.end_budget,
        workers=args.workers,
    )
    return {
        "op": "kac",
        "dim": args.dim,
        "constraint": s.describe() if s is not None else "trivial",
        "kac": _poly_json(poly),
    }, 0


def _run_census(args):
    q, _, s = _load_inputs(args)
    d = _dim_of(q, args.dim)
    rep = census_report(
        q,
        d,
        args.p,
        args.relations,
        s,
        point_budget=args.point_budget,
        end_budget=args.end_budget,
        workers=args.workers,
    )
    out = rep.to_json_dict()
    out["op"] = "census"
    return out, 0


def _run_series(args):
    q, _, s = _load_inputs(args)
    box = product(range(args.order + 1), repeat=len(q.vertices))
    dims = [k for k in box if 0 < sum(k) <= args.order]
    table = build_kac_table(
        q,
        dims,
        s,
        nodes=_parse_primes(args.primes),
        point_budget=args.point_budget,
        end_budget=args.end_budget,
        workers=args.workers,
    )
    g = stack_series_from_kac(table, args.order, kac_factor=args.kac_factor)
    return {
        "op": "series",
        "order": str(args.order),
        "kac_factor": args.kac_factor,
        "variables": list(g.variables),
        "series": g.to_json_list(),
    }, 0


def _run_hn(args):
    q, z, s = _load_inputs(args)
    d = _dim_of(q, args.dim)
    totals = {
        k: stack_count(
            q,
            q.dim(k),
            args.p,
            args.relations,
            s,
            point_budget=args.point_budget,
            workers=args.workers,
        )
        for k in product(*(range(n + 1) for n in d.values))
        if any(k)
    }
    sst = hn_semistable_series(totals, q, z, d, args.p)
    return {
        "op": "hn",
        "dim": args.dim,
        "p": str(args.p),
        "relations": args.relations,
        "semistable_stack_count": str(sst),
        "totals": {",".join(str(x) for x in k): str(v) for k, v in totals.items()},
    }, 0


def _run_wallcross(args):
    q, z, s = _load_inputs(args)
    rep = wallcross_check(
        q,
        z,
        args.p,
        args.order,
        args.relations,
        s,
        point_budget=args.point_budget,
        workers=args.workers,
    )
    out = rep.to_json_dict()
    out["op"] = "wallcross"
    return out, 0 if rep.passed else 1


def _run_nakajima(args):
    q, _, _ = _load_inputs(args)
    f = _dim_of(q, args.dim)
    weights = nakajima_series(
        q,
        f,
        args.order,
        point_budget=args.point_budget,
        end_budget=args.end_budget,
        workers=args.workers,
    )
    return {
        "op": "nakajima",
        "framing": args.dim,
        "order": str(args.order),
        "weights": {
            ",".join(str(x) for x in k): _poly_json(v) for k, v in sorted(weights.items())
        },
    }, 0


def _run_hilb3(args):
    g = hilb3_series(args.order)
    coeffs = {}
    for n in range(args.order + 1):
        poly = g.coeff((n,)).as_laurent()
        if args.at_q is not None:
            coeffs[str(n)] = str(poly.eval_q(Fraction(args.at_q)))
        else:
            coeffs[str(n)] = _poly_json(poly)
    out = {"op": "hilb3", "order": str(args.order), "coefficients": coeffs}
    if args.at_q is not None:
        out["at_q"] = str(args.at_q)
    return out, 0


def _run_charstack(args):
    g = char_stack_series(args.order)
    return {
        "op": "charstack",
        "order": str(args.order),
        "series": g.to_json_list(),
    }, 0


def _run_check(args):
    results = run_all(workers=args.workers)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    passed = all(r.passed for r in results)
    sys.stdout.write(
        f"{sum(r.passed for r in results)}/{len(results)} criteria passed\n"
    )
    report = {
        "op": "check",
        "passed": passed,
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    return report, 0 if passed else 1


_HANDLERS = {
    "kac": _run_kac,
    "census": _run_census,
    "series": _run_series,
    "hn": _run_hn,
    "wallcross": _run_wallcross,
    "nakajima": _run_nakajima,
    "hilb3": _run_hilb3,
    "charstack": _run_charstack,
    "check": _run_check,
}


def dispatch(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        report, code = handler(args)
    except CapExceeded as exc:
        sys.stderr.write(f"qdt {args.subcommand}: budget exhausted: {exc}\n")
        return 3
    except CensusError as exc:
        sys.stderr.write(f"qdt {args.subcommand}: consistency check failed: {exc}\n")
        return 1
    except (QuiverError, ExactAlgError, DTSeriesError) as exc:
        sys.stderr.write(f"qdt {args.subcommand}: invalid input: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"qdt {args.subcommand}: cannot read {exc.filename}\n")
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        sys.stderr.write(f"qdt {args.subcommand}: malformed input: {exc}\n")
        return 2
    # reports are only written once the computation fully succeeded
    _emit(report, args)
    return code


def main(argv: list[str] | None = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
