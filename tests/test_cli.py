"""DSL parser and command-line behavior."""

import json
import random

import pytest

from finring import ParseError
from finring.cli import (
    CExpr,
    DExpr,
    FmExpr,
    GProdExpr,
    GrExpr,
    KsExpr,
    MatExpr,
    ProdExpr,
    Q8Expr,
    SExpr,
    TriExpr,
    TrivExpr,
    ZExpr,
    _int_in_ring,
    elaborate,
    elaborate_group,
    main,
    parse,
    unparse,
)


class TestParse:
    def test_group_ring(self):
        assert parse("GR(Z(2), C(3))") == GrExpr(ZExpr(2), CExpr(3))

    def test_ks(self):
        assert parse("Ks(Z(4), 2)") == KsExpr(ZExpr(4), 2)

    def test_whitespace_insensitive(self):
        assert parse(" M( 2 ,Z(2) ) ") == MatExpr(2, ZExpr(2))

    def test_product(self):
        assert parse("Z(2) x Z(3) x Z(5)") == ProdExpr(
            ProdExpr(ZExpr(2), ZExpr(3)), ZExpr(5)
        )

    def test_nested(self):
        assert parse("FM(3, Triv(Z(2)), 0)") == FmExpr(3, TrivExpr(ZExpr(2)), 0)

    def test_group_atoms(self):
        expr = parse("GR(Z(2), C(2) x Q8)")
        assert expr.group == GProdExpr(CExpr(2), Q8Expr())
        assert parse("GR(Z(2), D(4))").group == DExpr(4)
        assert parse("GR(Z(2), S(3))").group == SExpr(3)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as err:
            parse("M(2, Z(2)")
        assert ")" in err.value.expected

    def test_z_zero(self):
        with pytest.raises(ParseError):
            parse("Z(0)")

    def test_symmetric_bound(self):
        with pytest.raises(ParseError):
            parse("GR(Z(2), S(5))")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("Z(2) Z(3)")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("W(3)")

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("M(2, ?)")
        assert err.value.position == 5


def _random_group(rng, depth):
    if depth > 0 and rng.random() < 0.3:
        return GProdExpr(_random_group(rng, depth - 1), _random_group(rng, depth - 1))
    return rng.choice(
        [CExpr(rng.randint(1, 8)), DExpr(rng.randint(1, 4)), SExpr(rng.randint(1, 4)), Q8Expr()]
    )


def _random_ring(rng, depth):
    if depth == 0:
        return ZExpr(rng.randint(1, 12))
    choice = rng.randrange(8)
    if choice == 0:
        return ZExpr(rng.randint(1, 12))
    if choice == 1:
        return MatExpr(rng.randint(1, 3), _random_ring(rng, depth - 1))
    if choice == 2:
        return TriExpr(rng.randint(1, 3), _random_ring(rng, depth - 1))
    if choice == 3:
        return GrExpr(_random_ring(rng, depth - 1), _random_group(rng, 1))
    if choice == 4:
        return TrivExpr(_random_ring(rng, depth - 1))
    if choice == 5:
        return KsExpr(_random_ring(rng, depth - 1), rng.randint(0, 6))
    if choice == 6:
        return FmExpr(rng.randint(2, 3), _random_ring(rng, depth - 1), rng.randint(0, 6))
    return ProdExpr(_random_ring(rng, depth - 1), _random_ring(rng, depth - 1))


def test_unparse_roundtrip_on_random_trees():
    rng = random.Random(0)
    for _ in range(1000):
        expr = _random_ring(rng, rng.randint(0, 3))
        assert parse(unparse(expr)) == expr


class TestElaborate:
    def test_group_ring(self):
        R = elaborate(parse("GR(Z(2), C(3))"))
        assert R.order == 8 and R.kind == "group_ring"

    def test_s_reduced_into_base(self):
        R = elaborate(parse("Ks(Z(4), 6)"))
        assert R.meta["s"] == 2

    def test_product(self):
        assert elaborate(parse("Z(2) x Z(3)")).order == 6

    @pytest.mark.parametrize("expr", ["Z(1)", "Z(4)", "Z(6)", "M(2, Z(2))", "GR(Z(3), C(2))"])
    def test_int_in_ring_is_s_copies_of_one(self, expr):
        R = elaborate(parse(expr))
        copies = [0]
        for _ in range(40):
            copies.append(R.add(copies[-1], R.one))
        for s in range(-40, 41):
            assert _int_in_ring(R, s) == (copies[s] if s >= 0 else R.neg(copies[-s])), s


class TestCommands:
    def test_classify_ok(self, capsys):
        assert main(["classify", "Z(6)"]) == 0
        out = capsys.readouterr().out
        assert "unit_regular: True" in out

    def test_classify_json_schema(self, capsys):
        assert main(["classify", "GR(Z(2), C(2))", "--json", "--fast"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"label", "order", "flags", "witnesses", "radicals", "timing"}
        assert payload["flags"]["regular"] is False
        assert payload["flags"]["strongly_unit_nil_clean"] is True
        assert all(entry["agrees"] for entry in payload["fast"])

    @pytest.mark.parametrize("expr, fast", [
        ("Z(6)", [("unit_regular (squarefree test)", True)]),
        ("Z(12)", [("unit_regular (squarefree test)", False)]),
        ("GR(Z(2), C(3))", [("unit_regular (coprimality test)", True),
                            ("regular (Connell test)", True)]),
        ("GR(Z(3), C(3))", [("unit_regular (coprimality test)", False),
                            ("regular (Connell test)", False)]),
    ])
    def test_classify_fast_reports_each_closed_form(self, expr, fast, capsys):
        assert main(["classify", expr, "--json", "--fast"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fast"] == [{"check": check, "verdict": verdict, "agrees": True}
                                   for check, verdict in fast]

    def test_classify_parse_error(self):
        assert main(["classify", "Z(0)"]) == 2
        assert main(["classify", "M(2, Z(2)"]) == 2

    def test_classify_cap(self):
        assert main(["classify", "M(2, Z(10))"]) == 3

    def test_cap_on_an_order_too_long_to_print(self, capsys):
        # 2^22500 has 6773 decimal digits, more than int -> str allows.
        assert main(["info", "M(150, Z(2))"]) == 3
        assert capsys.readouterr().err == (
            "cap exceeded: M(150, Z(2)) has order 2^22500 > cap 4096\n")

    def test_integer_too_long_to_parse(self, capsys):
        # Python refuses int() on more than 4300 digits; the tokenizer reports
        # it as a parse error at the literal.
        assert main(["info", f"Z({'9' * 5000})"]) == 2
        assert capsys.readouterr().err == (
            "parse error: integer of 5000 digits is too long at column 3\n")

    @pytest.mark.parametrize("expr", ["FM(2, Z(1), 0)", "FM(3, Z(1), 0)"])
    def test_classify_over_the_zero_ring(self, capsys, expr):
        # Z(1) has no additive generators, so the FM gate checks no triple.
        assert main(["classify", expr, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 1

    def test_usage_error(self):
        assert main(["no-such-command"]) == 2

    def test_verify_lemma(self, capsys):
        assert main(["verify", "lemma-4-4", "--n-max", "20"]) == 0
        assert "20/20" in capsys.readouterr().out

    def test_verify_unknown_suite(self):
        assert main(["verify", "nope"]) == 2

    def test_verify_json(self, capsys):
        assert main(["verify", "lemma-4-4", "--n-max", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "lemma-4-4" and payload["failures"] == []

    def test_search_clean(self, capsys):
        assert main(["search", "--seed", "0", "--count", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] == payload["attempted"]
        assert "wall_time" not in payload

    def test_radicals(self, capsys):
        assert main(["radicals", "Z(4)"]) == 0
        out = capsys.readouterr().out
        assert "J(R)   = {0, 2}" in out

    def test_info(self, capsys):
        assert main(["info", "M(2, Z(2))", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["units"] == 6 and payload["order"] == 16

    def test_info_names_the_blocks(self, capsys):
        # A ring above TABLE_LIMIT whose order has two prime factors is
        # frozen as its p-primary blocks; the text census names them, and
        # the JSON census stays the same keys.
        assert main(["info", "Triv(Z(33))"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "  blocks: 3-part (order 9), 11-part (order 121)"
        assert main(["info", "Triv(Z(33))", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "label", "order", "units", "idempotents", "nilpotents", "jacobson"}
        assert main(["info", "M(2, Z(2))"]) == 0
        assert "blocks" not in capsys.readouterr().out


# Every ParseError branch of the grammar: (text, str(error), position, expected).
_RINGS = ("Z", "M", "U", "GR", "Triv", "Ks", "FM")
_GROUPS = ("C", "D", "S", "Q8")
_RING_OR_PAREN = _RINGS + ("(",)
_GROUP_OR_PAREN = _GROUPS + ("(",)
_RINGS_SORTED = " (expected FM or GR or Ks or M or Triv or U or Z)"
_GROUPS_SORTED = " (expected C or D or Q8 or S)"
_RING_START = " (expected ( or FM or GR or Ks or M or Triv or U or Z)"
_GROUP_START = " (expected ( or C or D or Q8 or S)"
_PARSE_ERRORS = [
    ('Z 2)', 'unexpected 2 at column 3 (expected ()', 2, ('(',)),
    ('Z(2', "unexpected 'EOF' at column 4 (expected ))", 3, (')',)),
    ('Z(2,', "unexpected ',' at column 4 (expected ))", 3, (')',)),
    ('M 2, Z(2))', 'unexpected 2 at column 3 (expected ()', 2, ('(',)),
    ('M(2 Z(2))', "unexpected 'Z' at column 5 (expected ,)", 4, (',',)),
    ('M(2, Z(2)', "unexpected 'EOF' at column 10 (expected ))", 9, (')',)),
    ('U 2, Z(2))', 'unexpected 2 at column 3 (expected ()', 2, ('(',)),
    ('U(2 Z(2))', "unexpected 'Z' at column 5 (expected ,)", 4, (',',)),
    ('U(2, Z(2)', "unexpected 'EOF' at column 10 (expected ))", 9, (')',)),
    ('GR Z(2), C(2))', "unexpected 'Z' at column 4 (expected ()", 3, ('(',)),
    ('GR(Z(2) C(2))', "unexpected 'C' at column 9 (expected ,)", 8, (',',)),
    ('GR(Z(2), C(2)', "unexpected 'EOF' at column 14 (expected ))", 13, (')',)),
    ('Triv Z(2))', "unexpected 'Z' at column 6 (expected ()", 5, ('(',)),
    ('Triv(Z(2), 1)', "unexpected ',' at column 10 (expected ))", 9, (')',)),
    ('Triv(Z(2)', "unexpected 'EOF' at column 10 (expected ))", 9, (')',)),
    ('Ks Z(2), 1)', "unexpected 'Z' at column 4 (expected ()", 3, ('(',)),
    ('Ks(Z(2) 1)', 'unexpected 1 at column 9 (expected ,)', 8, (',',)),
    ('Ks(Z(2), 1', "unexpected 'EOF' at column 11 (expected ))", 10, (')',)),
    ('FM 2, Z(2), 0)', 'unexpected 2 at column 4 (expected ()', 3, ('(',)),
    ('FM(2 Z(2), 0)', "unexpected 'Z' at column 6 (expected ,)", 5, (',',)),
    ('FM(2, Z(2) 0)', 'unexpected 0 at column 12 (expected ,)', 11, (',',)),
    ('FM(2, Z(2), 0', "unexpected 'EOF' at column 14 (expected ))", 13, (')',)),
    ('GR(Z(2), C 2))', 'unexpected 2 at column 12 (expected ()', 11, ('(',)),
    ('GR(Z(2), C(2, C(3))', "unexpected ',' at column 13 (expected ))", 12, (')',)),
    ('GR(Z(2), D 2))', 'unexpected 2 at column 12 (expected ()', 11, ('(',)),
    ('GR(Z(2), D(2, C(3))', "unexpected ',' at column 13 (expected ))", 12, (')',)),
    ('GR(Z(2), S 2))', 'unexpected 2 at column 12 (expected ()', 11, ('(',)),
    ('GR(Z(2), S(2, C(3))', "unexpected ',' at column 13 (expected ))", 12, (')',)),
    ('GR(Z(2), Q8())', "unexpected '(' at column 12 (expected ))", 11, (')',)),
    ('(Z(2)', "unexpected 'EOF' at column 6 (expected ))", 5, (')',)),
    ('GR(Z(2), (C(2))', "unexpected 'EOF' at column 16 (expected ))", 15, (')',)),
    ('(Z(2) x Z(3)', "unexpected 'EOF' at column 13 (expected ))", 12, (')',)),
    ('Z(x)', "unexpected 'x' at column 3 (expected integer)", 2, ('integer',)),
    ('M(Z(2), 2)', "unexpected 'Z' at column 3 (expected integer)", 2, ('integer',)),
    ('Ks(Z(2), Z(2))', "unexpected 'Z' at column 10 (expected integer)", 9, ('integer',)),
    ('FM(2, Z(2), )', "unexpected ')' at column 13 (expected integer)", 12, ('integer',)),
    ('GR(Z(2), C())', "unexpected ')' at column 12 (expected integer)", 11, ('integer',)),
    ('Z(0)', 'Z(0) is invalid; n must be >= 1 at column 1', 0, ()),
    ('M(0, Z(2))', 'matrix size must be >= 1 at column 1', 0, ()),
    ('U(0, Z(2))', 'matrix size must be >= 1 at column 1', 0, ()),
    ('FM(1, Z(2), 0)', 'FM needs k >= 2 at column 1', 0, ()),
    ('FM(0, Z(2), 0)', 'FM needs k >= 2 at column 1', 0, ()),
    ('GR(Z(2), C(0))', 'C(0) is invalid; argument must be >= 1 at column 10', 9, ()),
    ('GR(Z(2), D(0))', 'D(0) is invalid; argument must be >= 1 at column 10', 9, ()),
    ('GR(Z(2), S(0))', 'S(0) is invalid; argument must be >= 1 at column 10', 9, ()),
    ('GR(Z(2), S(5))', 'S(k) supports k <= 4 only at column 10', 9, ()),
    ('M(0, Z(0))', 'Z(0) is invalid; n must be >= 1 at column 6', 5, ()),
    ('M(2, Z(0)', 'Z(0) is invalid; n must be >= 1 at column 6', 5, ()),
    ('GR(Z(2), S(5)', 'S(k) supports k <= 4 only at column 10', 9, ()),
    ('W(3)', "unknown ring constructor 'W' at column 1" + _RINGS_SORTED, 0, _RINGS),
    ('z(3)', "unknown ring constructor 'z' at column 1" + _RINGS_SORTED, 0, _RINGS),
    ('GR(Z(2), W(3))', "unknown group constructor 'W' at column 10" + _GROUPS_SORTED, 9, _GROUPS),
    ('GR(Z(2), Z(3))', "unknown group constructor 'Z' at column 10" + _GROUPS_SORTED, 9, _GROUPS),
    ('GR(C(2), Z(2))', "unknown ring constructor 'C' at column 4" + _RINGS_SORTED, 3, _RINGS),
    ('x', "unknown ring constructor 'x' at column 1" + _RINGS_SORTED, 0, _RINGS),
    ('', 'expected a ring expression at column 1' + _RING_START, 0, _RING_OR_PAREN),
    ('3', 'expected a ring expression at column 1' + _RING_START, 0, _RING_OR_PAREN),
    ('M(2, 3)', 'expected a ring expression at column 6' + _RING_START, 5, _RING_OR_PAREN),
    ('M(2, )', 'expected a ring expression at column 6' + _RING_START, 5, _RING_OR_PAREN),
    ('Z(2) x', 'expected a ring expression at column 7' + _RING_START, 6, _RING_OR_PAREN),
    ('Z(2) x 3', 'expected a ring expression at column 8' + _RING_START, 7, _RING_OR_PAREN),
    ('GR(Z(2), 3)', 'expected a group expression at column 10' + _GROUP_START, 9, _GROUP_OR_PAREN),
    ('GR(Z(2), )', 'expected a group expression at column 10' + _GROUP_START, 9, _GROUP_OR_PAREN),
    ('GR(Z(2), C(2) x)', 'expected a group expression at column 16' + _GROUP_START, 15,
     _GROUP_OR_PAREN),
    ('(', 'expected a ring expression at column 2' + _RING_START, 1, _RING_OR_PAREN),
    ('Z(2) Z(3)', "trailing input 'Z' at column 6 (expected end of input)", 5, ('end of input',)),
    ('Z(2))', "trailing input ')' at column 5 (expected end of input)", 4, ('end of input',)),
    ('Z(2) 3', 'trailing input 3 at column 6 (expected end of input)', 5, ('end of input',)),
    ('Z(2),', "trailing input ',' at column 5 (expected end of input)", 4, ('end of input',)),
    ('GR(Z(2), C(2)) C(2)', "trailing input 'C' at column 16 (expected end of input)", 15,
     ('end of input',)),
    ('M(2, ?)', "unexpected character '?' at column 6", 5, ()),
    ('Z(-1)', "unexpected character '-' at column 3", 2, ()),
    ('Z(2) ;', "unexpected character ';' at column 6", 5, ()),
    ('  #', "unexpected character '#' at column 3", 2, ()),
    ('Z(2)x Z(3) +', "unexpected character '+' at column 12", 11, ()),
    ('Z_2', "unexpected character '_' at column 2", 1, ()),
]


@pytest.mark.parametrize("text, message, position, expected", _PARSE_ERRORS)
def test_parse_error_pinned(text, message, position, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.position, err.value.expected) == (
        message, position, expected)


def test_nodes_of_different_constructors_differ():
    # Equal fields, different keywords: an M/U or C/D swap must not compare equal.
    assert MatExpr(2, ZExpr(2)) != TriExpr(2, ZExpr(2))
    assert CExpr(2) != DExpr(2)
    assert ProdExpr(CExpr(2), CExpr(3)) != GProdExpr(CExpr(2), CExpr(3))


@pytest.mark.parametrize("fn, arg, message", [
    (unparse, 5, "not an expression: 5"),
    (elaborate, CExpr(2), "not a ring expression: CExpr"),
    (elaborate, GProdExpr(CExpr(2), Q8Expr()), "not a ring expression: GProdExpr"),
    (elaborate_group, ZExpr(2), "not a group expression: ZExpr"),
    (elaborate_group, ProdExpr(ZExpr(2), ZExpr(3)), "not a group expression: ProdExpr"),
])
def test_non_expressions_raise_type_error(fn, arg, message):
    with pytest.raises(TypeError, match=message):
        fn(arg)
