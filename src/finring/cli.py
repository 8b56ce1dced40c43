"""Command-line front end: ring DSL, classification, suites, search.

Exit codes: 0 success, 1 theorem violation found, 2 parse/usage error,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from . import deciders, fastpath, harness
from .constructions import (
    formal_matrix,
    generalized_matrix,
    group_ring,
    matrix_ring,
    trivial_extension,
    upper_triangular,
)
from .errors import CapExceededError, ParseError
from .groups import cyclic, dihedral, group_product, quaternion8, symmetric
from .kernel import ARITH_CAP, CLASSIFY_CAP, Ring, direct_product, freeze, make_zmod


# -- abstract syntax -------------------------------------------------------


@dataclass(frozen=True)
class ZExpr:
    n: int


@dataclass(frozen=True)
class MatExpr:
    k: int
    inner: object


@dataclass(frozen=True)
class TriExpr:
    k: int
    inner: object


@dataclass(frozen=True)
class GrExpr:
    inner: object
    group: object


@dataclass(frozen=True)
class TrivExpr:
    inner: object


@dataclass(frozen=True)
class KsExpr:
    inner: object
    s: int


@dataclass(frozen=True)
class FmExpr:
    k: int
    inner: object
    s: int


@dataclass(frozen=True)
class ProdExpr:
    left: object
    right: object


@dataclass(frozen=True)
class CExpr:
    m: int


@dataclass(frozen=True)
class DExpr:
    m: int


@dataclass(frozen=True)
class SExpr:
    k: int


@dataclass(frozen=True)
class Q8Expr:
    pass


@dataclass(frozen=True)
class GProdExpr:
    left: object
    right: object


# -- tokenizer / recursive-descent parser ----------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([(),]))")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:]
                stripped = rest.lstrip()
                if not stripped:
                    break
                raise ParseError(
                    f"unexpected character {stripped[0]!r}",
                    pos + (len(rest) - len(stripped)),
                )
            if m.group(1):
                self.tokens.append(("INT", int(m.group(1)), m.start(1)))
            elif m.group(2):
                self.tokens.append(("NAME", m.group(2), m.start(2)))
            else:
                self.tokens.append((m.group(3), m.group(3), m.start(3)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("EOF", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, expected=None):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"unexpected {tok[0] if tok[1] is None else tok[1]!r}",
                tok[2], expected or (kind,),
            )
        return tok

    def parse_int(self):
        return self.expect("INT", ("integer",))[1]

    def parse_ring(self):
        node = self.parse_ring_primary()
        while self.peek()[:2] == ("NAME", "x"):
            self.next()
            node = ProdExpr(node, self.parse_ring_primary())
        return node

    def parse_ring_primary(self):
        kind, value, pos = self.peek()
        if kind == "(":
            self.next()
            node = self.parse_ring()
            self.expect(")", (")",))
            return node
        if kind != "NAME":
            raise ParseError("expected a ring expression", pos,
                             ("Z", "M", "U", "GR", "Triv", "Ks", "FM", "("))
        self.next()
        if value == "Z":
            self.expect("(", ("(",))
            n = self.parse_int()
            self.expect(")", (")",))
            if n == 0:
                raise ParseError("Z(0) is invalid; n must be >= 1", pos)
            return ZExpr(n)
        if value in ("M", "U"):
            self.expect("(", ("(",))
            k = self.parse_int()
            self.expect(",", (",",))
            inner = self.parse_ring()
            self.expect(")", (")",))
            if k < 1:
                raise ParseError("matrix size must be >= 1", pos)
            return (MatExpr if value == "M" else TriExpr)(k, inner)
        if value == "GR":
            self.expect("(", ("(",))
            inner = self.parse_ring()
            self.expect(",", (",",))
            grp = self.parse_group()
            self.expect(")", (")",))
            return GrExpr(inner, grp)
        if value == "Triv":
            self.expect("(", ("(",))
            inner = self.parse_ring()
            self.expect(")", (")",))
            return TrivExpr(inner)
        if value == "Ks":
            self.expect("(", ("(",))
            inner = self.parse_ring()
            self.expect(",", (",",))
            s = self.parse_int()
            self.expect(")", (")",))
            return KsExpr(inner, s)
        if value == "FM":
            self.expect("(", ("(",))
            k = self.parse_int()
            self.expect(",", (",",))
            inner = self.parse_ring()
            self.expect(",", (",",))
            s = self.parse_int()
            self.expect(")", (")",))
            if k < 2:
                raise ParseError("FM needs k >= 2", pos)
            return FmExpr(k, inner, s)
        raise ParseError(f"unknown ring constructor {value!r}", pos,
                         ("Z", "M", "U", "GR", "Triv", "Ks", "FM"))

    def parse_group(self):
        node = self.parse_group_primary()
        while self.peek()[:2] == ("NAME", "x"):
            self.next()
            node = GProdExpr(node, self.parse_group_primary())
        return node

    def parse_group_primary(self):
        kind, value, pos = self.peek()
        if kind == "(":
            self.next()
            node = self.parse_group()
            self.expect(")", (")",))
            return node
        if kind != "NAME":
            raise ParseError("expected a group expression", pos, ("C", "D", "S", "Q8", "("))
        self.next()
        if value == "Q8":
            return Q8Expr()
        if value in ("C", "D", "S"):
            self.expect("(", ("(",))
            m = self.parse_int()
            self.expect(")", (")",))
            if m < 1:
                raise ParseError(f"{value}({m}) is invalid; argument must be >= 1", pos)
            if value == "S" and m > 4:
                raise ParseError("S(k) supports k <= 4 only", pos)
            return {"C": CExpr, "D": DExpr, "S": SExpr}[value](m)
        raise ParseError(f"unknown group constructor {value!r}", pos, ("C", "D", "S", "Q8"))


def parse(text: str):
    """Parse a ring-DSL expression into its abstract syntax."""
    p = _Parser(text)
    node = p.parse_ring()
    tok = p.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
    return node


def unparse(expr) -> str:
    if isinstance(expr, ZExpr):
        return f"Z({expr.n})"
    if isinstance(expr, MatExpr):
        return f"M({expr.k}, {unparse(expr.inner)})"
    if isinstance(expr, TriExpr):
        return f"U({expr.k}, {unparse(expr.inner)})"
    if isinstance(expr, GrExpr):
        return f"GR({unparse(expr.inner)}, {unparse(expr.group)})"
    if isinstance(expr, TrivExpr):
        return f"Triv({unparse(expr.inner)})"
    if isinstance(expr, KsExpr):
        return f"Ks({unparse(expr.inner)}, {expr.s})"
    if isinstance(expr, FmExpr):
        return f"FM({expr.k}, {unparse(expr.inner)}, {expr.s})"
    if isinstance(expr, ProdExpr):
        return f"({unparse(expr.left)}) x ({unparse(expr.right)})"
    if isinstance(expr, CExpr):
        return f"C({expr.m})"
    if isinstance(expr, DExpr):
        return f"D({expr.m})"
    if isinstance(expr, SExpr):
        return f"S({expr.k})"
    if isinstance(expr, Q8Expr):
        return "Q8"
    if isinstance(expr, GProdExpr):
        return f"({unparse(expr.left)}) x ({unparse(expr.right)})"
    raise TypeError(f"not an expression: {expr!r}")


def _int_in_ring(R: Ring, s: int) -> int:
    """The image of the integer s in R (s copies of one)."""
    if s < 0:
        return R.neg(_int_in_ring(R, -s))
    acc, base, k = 0, R.one, s
    while k:
        if k & 1:
            acc = R.add(acc, base)
        base = R.add(base, base)
        k >>= 1
    return acc


def elaborate_group(expr):
    if isinstance(expr, CExpr):
        return cyclic(expr.m)
    if isinstance(expr, DExpr):
        return dihedral(expr.m)
    if isinstance(expr, SExpr):
        return symmetric(expr.k)
    if isinstance(expr, Q8Expr):
        return quaternion8()
    if isinstance(expr, GProdExpr):
        return group_product(elaborate_group(expr.left), elaborate_group(expr.right))
    raise TypeError(f"not a group expression: {expr!r}")


def elaborate(expr, cap: int = ARITH_CAP) -> Ring:
    """Build the ring denoted by a parsed expression."""
    if isinstance(expr, ZExpr):
        return make_zmod(expr.n, cap=cap)
    if isinstance(expr, MatExpr):
        return matrix_ring(elaborate(expr.inner, cap), expr.k, cap=cap)
    if isinstance(expr, TriExpr):
        return upper_triangular(elaborate(expr.inner, cap), expr.k, cap=cap)
    if isinstance(expr, GrExpr):
        return group_ring(elaborate(expr.inner, cap), elaborate_group(expr.group), cap=cap)
    if isinstance(expr, TrivExpr):
        return trivial_extension(elaborate(expr.inner, cap), cap=cap)
    if isinstance(expr, KsExpr):
        base = elaborate(expr.inner, cap)
        return generalized_matrix(base, _int_in_ring(base, expr.s), cap=cap)
    if isinstance(expr, FmExpr):
        base = elaborate(expr.inner, cap)
        return formal_matrix(base, expr.k, _int_in_ring(base, expr.s), cap=cap)
    if isinstance(expr, ProdExpr):
        return direct_product(elaborate(expr.left, cap), elaborate(expr.right, cap), cap=cap)
    raise TypeError(f"not a ring expression: {expr!r}")


# -- fast-path reporting ---------------------------------------------------


def fast_verdicts(expr, flags):
    """Closed-form verdicts and agreement, where a Z_n base applies."""
    out = []
    if isinstance(expr, ZExpr):
        fast = fastpath.zn_unit_regular(expr.n)
        out.append(("unit_regular (squarefree test)", fast, fast == flags["unit_regular"]))
    elif isinstance(expr, GrExpr) and isinstance(expr.inner, ZExpr):
        G = elaborate_group(expr.group)
        fast = fastpath.zng_unit_regular(expr.inner.n, G)
        out.append(("unit_regular (coprimality test)", fast, fast == flags["unit_regular"]))
        fast_r = fastpath.connell_regular_zn(expr.inner.n, G)
        out.append(("regular (Connell test)", fast_r, fast_r == flags["regular"]))
    return out


# -- commands --------------------------------------------------------------


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_classify(args) -> int:
    expr = parse(args.expr)
    R = elaborate(expr, cap=args.cap)
    start = time.perf_counter()
    freeze(R, cap=args.cap)
    report = deciders.classify(R, cap=args.cap)
    elapsed = time.perf_counter() - start
    fast = fast_verdicts(expr, report.flags) if args.fast else []
    if args.json:
        payload = report.to_json()
        payload["timing"] = elapsed
        if args.fast:
            payload["fast"] = [
                {"check": name, "verdict": verdict, "agrees": agrees}
                for name, verdict, agrees in fast
            ]
        _emit(payload)
    else:
        print(f"{R.label}  (order {R.order})")
        for name in deciders.RING_FLAGS:
            line = f"  {name}: {report.flags[name]}"
            w = report.witnesses.get(name)
            if w is not None:
                line += f"  [witness {w['element']}]"
            print(line)
        print(f"  |J| = {report.jacobson_size}, |Nil| = {report.nil_size}")
        for name, verdict, agrees in fast:
            status = "agrees" if agrees else "DISAGREES"
            print(f"  fast {name}: {verdict}  [{status} with brute force]")
    if any(not agrees for _, _, agrees in fast):
        return 1
    return 0


def cmd_verify(args) -> int:
    suite = harness.ALL_SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite {args.suite!r}; known: {', '.join(sorted(harness.ALL_SUITES))}",
              file=sys.stderr)
        return 2
    if args.suite == "lemma-4-4":
        report = suite(n_max=args.n_max)
    else:
        report = suite(cap=args.cap)
    if args.json:
        _emit(report.to_json())
    else:
        print(f"suite {report.suite} [{report.kind}]: "
              f"{report.passed}/{report.attempted} passed "
              f"({report.wall_time:.2f}s)")
        for f in report.failures:
            print(f"  FAIL {f['case']}: expected {f['expected']}, got {f['got']}"
                  + (f", witness {f['witness']}" if f.get("witness") else ""))
        for s in report.skipped:
            print(f"  skip {s}")
    return 0 if report.ok else 1


def cmd_search(args) -> int:
    config = harness.SearchConfig(seed=args.seed, count=args.count, order_cap=args.cap,
                                  only=args.only)
    report = harness.falsify(config)
    if args.json:
        _emit(report.to_json(include_timing=False))
    else:
        print(f"search seed={args.seed} count={args.count}: "
              f"{report.passed}/{report.attempted} clean")
        for f in report.failures:
            print(f"  FAIL {f['case']}: {f['expected']} -> {f['got']}"
                  f" (replay: finring search --seed {f['seed']} --cap {args.cap}"
                  f" --only {f['index']})")
    return 0 if report.ok else 1


def cmd_radicals(args) -> int:
    R = elaborate(parse(args.expr), cap=args.cap)
    freeze(R, cap=args.cap)
    jac = sorted(R.caches.jacobson)
    nil = sorted(R.caches.nilpotents)
    if args.json:
        _emit({
            "label": R.label,
            "jacobson": [R.format_element(x) for x in jac],
            "nil": [R.format_element(x) for x in nil],
        })
    else:
        print(f"{R.label}  (order {R.order})")
        print("  J(R)   = {" + ", ".join(R.format_element(x) for x in jac) + "}")
        print("  Nil(R) = {" + ", ".join(R.format_element(x) for x in nil) + "}")
    return 0


def cmd_info(args) -> int:
    R = elaborate(parse(args.expr), cap=args.cap)
    freeze(R, cap=args.cap)
    census = {
        "label": R.label,
        "order": R.order,
        "units": len(R.caches.units),
        "idempotents": len(R.caches.idempotents),
        "nilpotents": len(R.caches.nilpotents),
        "jacobson": len(R.caches.jacobson),
    }
    if args.json:
        _emit(census)
    else:
        print(f"{R.label}  (order {R.order})")
        for key in ("units", "idempotents", "nilpotents", "jacobson"):
            print(f"  {key}: {census[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finring",
        description="Finite-ring classification and theorem verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p, default=CLASSIFY_CAP):
        p.add_argument("--cap", type=int, default=default, help="order cap")

    p = sub.add_parser("classify", help="classify a ring expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fast", action="store_true",
                   help="also report number-theoretic fast-path verdicts")
    add_cap(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run a theorem suite")
    p.add_argument("suite")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--json", action="store_true")
    add_cap(p, default=harness.DEFAULT_RING_CAP)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="randomized counterexample search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=256, help="order cap per instance")
    p.add_argument("--only", type=int, default=None, metavar="INDEX",
                   help="check only the instance of this index (replays a failure)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("radicals", help="print J(R) and Nil(R)")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    add_cap(p)
    p.set_defaults(fn=cmd_radicals)

    p = sub.add_parser("info", help="print the structural census")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    add_cap(p)
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
