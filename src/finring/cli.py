"""Command-line front end: ring DSL, classification, suites, search.

The ring DSL is defined once, by the constructor tables RINGS and GROUPS.
Each row gives a keyword, its syntax-tree node class (generated from the
row, and a module attribute under its name: ZExpr, MatExpr, ..., Q8Expr),
the kinds of its arguments, the check run on them once parsed, and the
builder of the ring or group.  `parse`, `unparse`, `elaborate` and
`elaborate_group` read those rows; the infix product ``x`` of each sort
(ProdExpr, GProdExpr) is the one rule outside them.

Exit codes: 0 success, 1 theorem violation found, 2 parse/usage error,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, make_dataclass
from typing import Callable, Optional

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


# -- the constructor tables ------------------------------------------------


def _node(name: str, fields) -> type:
    """A frozen dataclass syntax-tree node; nodes of different classes
    compare unequal even with equal fields."""
    return make_dataclass(name, fields, frozen=True, namespace={"__module__": __name__})


@dataclass(frozen=True)
class Constructor:
    """One DSL keyword.  fields are (name, kind) in positional order, kind
    "int", "ring" or "group"; check takes the parsed fields and returns an
    error message or None; build takes the elaborated fields, and for a
    ring also cap=."""

    keyword: str
    node: type
    fields: tuple
    build: Callable
    check: Callable

    @staticmethod
    def row(keyword: str, name: str, fields: str, build: Callable,
            check: Callable = lambda *args: None) -> "Constructor":
        """fields is "name:kind ...", e.g. "k:int inner:ring"."""
        pairs = tuple(tuple(field.split(":")) for field in fields.split())
        node = _node(name, [(f, int if kind == "int" else object) for f, kind in pairs])
        return Constructor(keyword, node, pairs, build, check)


def _int_in_ring(R: Ring, s: int) -> int:
    """The image of the integer s in R (s copies of one).

    The additive order of one divides |R| (Lagrange), so |R| copies of one
    are 0 and s counts modulo |R|, negative s included.
    """
    acc, base, k = 0, R.one, s % R.order
    while k:
        if k & 1:
            acc = R.add(acc, base)
        base = R.add(base, base)
        k >>= 1
    return acc


def _matrix_size(k, inner) -> Optional[str]:
    return "matrix size must be >= 1" if k < 1 else None


def _group_size(keyword: str, most: Optional[int] = None) -> Callable:
    return lambda m: (f"{keyword}({m}) is invalid; argument must be >= 1" if m < 1 else
                      f"{keyword}(k) supports k <= {most} only" if most and m > most else None)


RINGS = {row.keyword: row for row in [
    Constructor.row("Z", "ZExpr", "n:int", lambda n, cap: make_zmod(n, cap=cap),
                    lambda n: "Z(0) is invalid; n must be >= 1" if n < 1 else None),
    Constructor.row("M", "MatExpr", "k:int inner:ring",
                    lambda k, R, cap: matrix_ring(R, k, cap=cap), _matrix_size),
    Constructor.row("U", "TriExpr", "k:int inner:ring",
                    lambda k, R, cap: upper_triangular(R, k, cap=cap), _matrix_size),
    Constructor.row("GR", "GrExpr", "inner:ring group:group", group_ring),
    Constructor.row("Triv", "TrivExpr", "inner:ring", trivial_extension),
    Constructor.row("Ks", "KsExpr", "inner:ring s:int",
                    lambda R, s, cap: generalized_matrix(R, _int_in_ring(R, s), cap=cap)),
    Constructor.row("FM", "FmExpr", "k:int inner:ring s:int",
                    lambda k, R, s, cap: formal_matrix(R, k, _int_in_ring(R, s), cap=cap),
                    lambda k, inner, s: "FM needs k >= 2" if k < 2 else None),
]}
GROUPS = {row.keyword: row for row in [
    Constructor.row("C", "CExpr", "m:int", cyclic, _group_size("C")),
    Constructor.row("D", "DExpr", "m:int", dihedral, _group_size("D")),
    Constructor.row("S", "SExpr", "k:int", symmetric, _group_size("S", 4)),
    Constructor.row("Q8", "Q8Expr", "", quaternion8),
]}
ProdExpr = _node("ProdExpr", ["left", "right"])
GProdExpr = _node("GProdExpr", ["left", "right"])
_SORTS = {"ring": (RINGS, ProdExpr), "group": (GROUPS, GProdExpr)}
# node class -> (sort, row); the node classes are module attributes by name.
_ROWS = {row.node: (sort, row) for sort, (table, _) in _SORTS.items() for row in table.values()}
globals().update({node.__name__: node for node in _ROWS})


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
                try:
                    value = int(m.group(1))
                except ValueError:      # past Python's integer-string digit limit
                    raise ParseError(f"integer of {len(m.group(1))} digits is too long",
                                     m.start(1)) from None
                self.tokens.append(("INT", value, m.start(1)))
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

    def parse_sort(self, sort: str):
        """A ring or group expression: primaries joined by the product x."""
        product = _SORTS[sort][1]
        node = self.parse_primary(sort)
        while self.peek()[:2] == ("NAME", "x"):
            self.next()
            node = product(node, self.parse_primary(sort))
        return node

    def parse_primary(self, sort: str):
        """A parenthesized expression, or a keyword with its arguments in
        parentheses (none for a row without fields), checked after the
        closing parenthesis."""
        table = _SORTS[sort][0]
        kind, value, pos = self.peek()
        if kind == "(":
            self.next()
            node = self.parse_sort(sort)
            self.expect(")")
            return node
        if kind != "NAME":
            raise ParseError(f"expected a {sort} expression", pos, (*table, "("))
        self.next()
        row = table.get(value)
        if row is None:
            raise ParseError(f"unknown {sort} constructor {value!r}", pos, tuple(table))
        args = []
        if row.fields:
            self.expect("(")
            for i, (_, arg_kind) in enumerate(row.fields):
                if i:
                    self.expect(",")
                args.append(self.expect("INT", ("integer",))[1] if arg_kind == "int"
                            else self.parse_sort(arg_kind))
            self.expect(")")
        message = row.check(*args)
        if message:
            raise ParseError(message, pos)
        return row.node(*args)


def parse(text: str):
    """Parse a ring-DSL expression into its abstract syntax."""
    p = _Parser(text)
    node = p.parse_sort("ring")
    tok = p.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
    return node


def _row(expr, sort: Optional[str]) -> Constructor:
    """The table row of expr's node class, which must be of the given sort
    (any, for None)."""
    found = _ROWS.get(type(expr))
    if found is None or sort not in (None, found[0]):
        what = f"a {sort} expression" if sort else "an expression"
        raise TypeError(f"not {what}: {expr!r}")
    return found[1]


def unparse(expr) -> str:
    if type(expr) in (ProdExpr, GProdExpr):
        return f"({unparse(expr.left)}) x ({unparse(expr.right)})"
    row = _row(expr, None)
    if not row.fields:
        return row.keyword
    args = (str(getattr(expr, name)) if kind == "int" else unparse(getattr(expr, name))
            for name, kind in row.fields)
    return f"{row.keyword}({', '.join(args)})"


def _elaborated(expr, row: Constructor, cap: int) -> list:
    """The fields of expr, with its rings and groups built."""
    build = {"int": lambda v: v, "ring": lambda v: elaborate(v, cap), "group": elaborate_group}
    return [build[kind](getattr(expr, name)) for name, kind in row.fields]


def elaborate_group(expr):
    if type(expr) is GProdExpr:
        return group_product(elaborate_group(expr.left), elaborate_group(expr.right))
    row = _row(expr, "group")
    return row.build(*_elaborated(expr, row, ARITH_CAP))


def elaborate(expr, cap: int = ARITH_CAP) -> Ring:
    """Build the ring denoted by a parsed expression."""
    if type(expr) is ProdExpr:
        return direct_product(elaborate(expr.left, cap), elaborate(expr.right, cap), cap=cap)
    row = _row(expr, "ring")
    return row.build(*_elaborated(expr, row, cap), cap=cap)


# -- fast-path reporting ---------------------------------------------------


def fast_verdicts(expr, flags):
    """Closed-form verdicts and agreement, where a Z_n base applies."""
    if isinstance(expr, ZExpr):
        forms = fastpath.closed_forms(expr.n)
    elif isinstance(expr, GrExpr) and isinstance(expr.inner, ZExpr):
        forms = fastpath.closed_forms(expr.inner.n, elaborate_group(expr.group))
    else:
        return []
    return [(f"{flag} ({test} test)", verdict, verdict == flags[flag])
            for _, flag, test, verdict in forms]


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
        if R._blocks is not None:       # frozen as its p-primary blocks
            print("  blocks: " + ", ".join(f"{p}-part (order {B.order})"
                                           for p, B, _ in R._blocks))
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
