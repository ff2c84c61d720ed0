"""Command-line front end: bounds, enumeration, net conversion, and
theorem verification.

Every subcommand validates its inputs before doing work, writes files
atomically, and exits 0 on success, 1 on a refuted claim, and 2 on
inapplicable parameters, input errors or an exhausted search budget.
Running out of budget is never reported as a refutation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import divisibility_bound, plotkin_bound, plotkin_recursion_bound
from .codes import CodeParams, emit_code, parse_code
from .errors import (
    BudgetError,
    CodeboundsError,
    ParseError,
    ScaleError,
    StructureError,
)
from .fileio import atomic_write_text, write_class_files
from .nets import (
    code_to_net,
    emit_net,
    gh_expand,
    gram_check,
    net_to_code,
    parse_gh,
    parse_net,
    verify_net_axioms,
)
from .pipelines import PIPELINES, run_pipeline, write_certificate
from .search import EnumerationTask, enumerate_codes

__all__ = ["main", "build_parser"]

BUDGET_ENV = "CODEBOUNDS_BUDGET"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _default_threads() -> int:
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebounds",
        description="Upper bounds on A_q(n,d), exhaustive classification of "
        "small optimal codes, symmetric net conversions, and certified "
        "theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form upper bounds on A_q(n,d)")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument(
        "--method",
        choices=("plotkin", "recursion", "divisibility", "best"),
        default="best",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser(
        "enumerate", help="classify (n,d)_q codes of a given size up to equivalence"
    )
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("size", type=int)
    p.add_argument("--out", help="directory for one code file per class plus an index")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"search node budget; ${BUDGET_ENV} supplies a default",
    )
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("net", help="symmetric net checks and conversions")
    p.add_argument("action", choices=("check", "to-code", "from-code", "gh-expand"))
    p.add_argument("path")
    p.add_argument("--out", help="output file (defaults to the input with a new suffix)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("verify", help="run a certified theorem verification")
    p.add_argument("theorem_id", metavar="theorem", help=f"one of: {', '.join(sorted(PIPELINES))}")
    p.add_argument("--out", default=".", help="directory for the certificate files")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_bound(args) -> int:
    try:
        CodeParams(args.q, args.n, args.d)
    except ValueError as exc:
        return _fail(str(exc))
    q, n, d = args.q, args.n, args.d
    bounds: dict[str, int | None] = {}
    detail = None
    if args.method in ("plotkin", "best"):
        bounds["plotkin"] = plotkin_bound(q, n, d)
    if args.method in ("recursion", "best"):
        bounds["recursion"] = plotkin_recursion_bound(q, n, d)
    if args.method in ("divisibility", "best"):
        cert = divisibility_bound(q, n, d)
        bounds["divisibility"] = cert.bound
        detail = cert
    applicable = {k: v for k, v in bounds.items() if v is not None}
    best = min(applicable.values()) if applicable else None
    if args.json:
        payload = {"q": q, "n": n, "d": d, "method": args.method, "bounds": bounds, "best": best}
        if detail is not None:
            payload["divisibility"] = {
                "applicable": detail.applicable,
                "reason": detail.reason,
                "m": detail.m,
                "phi": [list(row) for row in detail.phi_table],
                "r": detail.r,
                "bound": detail.bound,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, value in bounds.items():
            print(f"{name}: {'inapplicable' if value is None else value}")
        if detail is not None and detail.applicable:
            phi = " ".join(f"({r},{v})" for r, v in detail.phi_table)
            print(f"  m={detail.m} r={detail.r} phi: {phi}")
        elif detail is not None:
            print(f"  reason: {detail.reason}")
        if args.method == "best":
            print(f"best: {'inapplicable' if best is None else best}")
    return 0 if best is not None else 2


def cmd_enumerate(args) -> int:
    try:
        CodeParams(args.q, args.n, args.d)
    except ValueError as exc:
        return _fail(str(exc))
    if args.size < 1:
        return _fail(f"target size must be positive, got {args.size}")
    budget = args.budget
    if budget is None and os.environ.get(BUDGET_ENV):
        try:
            budget = int(os.environ[BUDGET_ENV])
        except ValueError:
            return _fail(f"${BUDGET_ENV} must be an integer")
    task = EnumerationTask(args.q, args.n, args.d, args.size, node_budget=budget)
    try:
        codes = enumerate_codes(task, workers=max(1, args.threads))
    except ScaleError as exc:
        return _fail(f"refused: {exc}; pass --budget to force the search")
    except BudgetError as exc:
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            partial = exc.partial or ()
            for i, code in enumerate(partial):
                atomic_write_text(out / f"class_{i:03d}.code", emit_code(code))
            atomic_write_text(
                out / "PARTIAL",
                f"budget exhausted after {exc.nodes} nodes; "
                f"{len(partial)} classes found so far; no index written\n",
            )
        return _fail(f"budget exhausted: {exc}")
    if args.out:
        write_class_files(
            args.out,
            codes,
            {"q": args.q, "n": args.n, "d": args.d, "target_size": args.size},
        )
    if args.json:
        print(json.dumps({"classes": len(codes), "out": args.out}))
    else:
        print(f"classes: {len(codes)}")
    return 0


def _derived_out(path: str, suffix: str) -> Path:
    return Path(path).with_suffix(suffix)


def _net_report_lines(report, gram_ok: bool) -> list[str]:
    return [
        f"mu: {report.mu}",
        f"q: {report.q}",
        f"sizes_ok: {report.sizes_ok}",
        f"point_classes (s1): {report.s1}",
        f"cross_class_intersections (s2): {report.s2}",
        f"point_class_intersections (s3): {report.s3}",
        f"weak_axiom (s'): {report.s_prime} (agrees: {report.s_prime_agrees})",
        f"gram_ok: {gram_ok}",
        f"net: {report.ok and gram_ok}",
    ]


def cmd_net(args) -> int:
    text = Path(args.path).read_text()
    try:
        if args.action == "check":
            net = parse_net(text)
            report = verify_net_axioms(net)
            gram_ok = gram_check(net)
            if args.json:
                print(
                    json.dumps(
                        {
                            "mu": report.mu,
                            "q": report.q,
                            "sizes_ok": report.sizes_ok,
                            "s1": report.s1,
                            "s2": report.s2,
                            "s3": report.s3,
                            "s_prime": report.s_prime,
                            "s_prime_agrees": report.s_prime_agrees,
                            "gram_ok": gram_ok,
                            "net": report.ok and gram_ok,
                        },
                        indent=2,
                        sort_keys=True,
                    )
                )
            else:
                print("\n".join(_net_report_lines(report, gram_ok)))
            return 0 if report.ok and gram_ok else 2
        if args.action == "to-code":
            code = net_to_code(parse_net(text))
            out = Path(args.out) if args.out else _derived_out(args.path, ".code")
            atomic_write_text(out, emit_code(code))
            summary = {
                "q": code.params.q,
                "n": code.params.n,
                "d": code.params.d,
                "size": code.size,
                "out": str(out),
            }
        elif args.action == "from-code":
            net = code_to_net(parse_code(text))
            out = Path(args.out) if args.out else _derived_out(args.path, ".net")
            atomic_write_text(out, emit_net(net))
            summary = {"mu": net.mu, "q": net.q, "points": net.order, "out": str(out)}
        else:
            net = gh_expand(parse_gh(text))
            out = Path(args.out) if args.out else _derived_out(args.path, ".net")
            atomic_write_text(out, emit_net(net))
            summary = {"mu": net.mu, "q": net.q, "points": net.order, "out": str(out)}
    except ParseError as exc:
        return _fail(f"[{exc.kind}] {exc}")
    except (StructureError, CodeboundsError) as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(" ".join(f"{k}={v}" for k, v in summary.items()))
    return 0


def cmd_verify(args) -> int:
    try:
        cert = run_pipeline(args.theorem_id, workers=max(1, args.threads))
    except KeyError as exc:
        return _fail(exc.args[0])
    except (BudgetError, ScaleError, MemoryError) as exc:
        return _fail(f"{args.theorem_id}: no verdict, resources exhausted: {exc}")
    write_certificate(cert, args.out)
    sys.stdout.write(cert.to_json() if args.json else cert.to_text())
    return cert.exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # an unreadable input or unwritable output is an input error, never
    # a refutation
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
