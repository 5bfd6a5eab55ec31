import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from substrukt.syntax import (Bin, Const, Language, LanguageError,
                              FormulaSyntaxError, Neg, Var, ZERO, ONE,
                              PRESET_NAMES, _RESERVED, _tokenize,
                              apply_subst, format_formula, fus, join, limp,
                              lneg, meet, mirror_formula, parse_formula, rimp,
                              rneg, same_formula, subformulas, var)
from substrukt.corpus import random_formula

p, q, r = var("p"), var("q"), var("r")


def formulas(lang=Language.preset("full")):
    ops = sorted(lang.connectives - {"zero", "one"})
    leaves = st.sampled_from([p, q, r, ZERO, ONE])

    def extend(children):
        branches = []
        for op in ops:
            if op in ("rneg", "lneg"):
                branches.append(st.builds(lambda c, o=op: Neg(o, c), children))
            else:
                branches.append(st.builds(
                    lambda l_, r_, o=op: Bin(o, l_, r_), children, children))
        return st.one_of(branches)
    return st.recursive(leaves, extend, max_leaves=12)


def test_grammar_base_cases():
    assert parse_formula("p \\/ q") == join(p, q)
    assert parse_formula("rn(p * q)") == rneg(fus(p, q))
    assert parse_formula("ln(p)") == lneg(p)
    assert parse_formula("0") == ZERO
    assert parse_formula("1") == ONE


def test_implication_orientation():
    # a \ b has denominator a; a / b has numerator a, denominator b
    assert parse_formula("p \\ q") == rimp(p, q)
    assert parse_formula("p / q") == limp(q, p)
    assert format_formula(rimp(p, q)) == "p \\ q"
    assert format_formula(limp(p, q)) == "q / p"


def test_precedence_stack():
    # rn/ln > * > /\ > \/ > implications
    assert parse_formula("p * q /\\ r") == meet(fus(p, q), r)
    assert parse_formula("p /\\ q \\/ r") == join(meet(p, q), r)
    assert parse_formula("p \\/ q \\ r") == rimp(join(p, q), r)
    assert parse_formula("p * q * r") == fus(fus(p, q), r)


def test_implications_non_associative():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p \\ q \\ r")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p \\ q / r")
    parse_formula("p \\ (q / r)")
    parse_formula("(p \\ q) / r")


def test_connective_not_in_language():
    core = Language.preset("core")
    with pytest.raises(LanguageError, match="rimp not in language"):
        parse_formula("p \\ q", core)
    with pytest.raises(LanguageError, match="meet not in language"):
        parse_formula("p /\\ q", core)
    with pytest.raises(LanguageError, match="rneg not in language"):
        parse_formula("rn(p)", core)


def test_syntax_error_has_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p \\/ )")
    assert err.value.position == 5


def test_language_presets():
    with pytest.raises(ValueError):
        Language(frozenset({"join", "fus", "zero", "one", "rimp"}))
    with pytest.raises(ValueError):
        Language(frozenset({"join", "fus"}))
    assert "meet" in Language.preset("core-meet")
    assert "rneg" not in Language.preset("core-meet")


def test_mirror_table():
    assert mirror_formula(rimp(p, q)) == limp(p, q)
    assert mirror_formula(fus(p, rneg(q))) == fus(lneg(q), p)
    assert mirror_formula(join(p, q)) == join(p, q)
    assert mirror_formula(meet(rneg(p), q)) == meet(lneg(p), q)


def test_subformulas():
    assert subformulas(p) == {p}
    assert subformulas(fus(p, q)) == {p, q, fus(p, q)}
    assert subformulas(rneg(p)) == {p, rneg(p)}


def test_apply_subst():
    assert apply_subst({"p": q}, p) == q
    assert apply_subst({}, fus(p, q)) == fus(p, q)
    assert apply_subst({"p": ZERO}, join(p, ONE)) == join(ZERO, ONE)


@given(formulas())
def test_mirror_involution(f):
    assert mirror_formula(mirror_formula(f)) == f


@given(formulas())
def test_parse_print_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas(), formulas(), formulas())
@settings(max_examples=50)
def test_mirror_commutes_with_substitution(f, s1, s2):
    subst = {"p": s1, "q": s2}
    mirrored_subst = {k: mirror_formula(v) for k, v in subst.items()}
    assert mirror_formula(apply_subst(subst, f)) == \
        apply_subst(mirrored_subst, mirror_formula(f))


# ---------------------------------------------------------------------------
# format_formula against the recursive renderer it replaced
# ---------------------------------------------------------------------------

_PREC = {"rimp": 0, "limp": 0, "join": 1, "meet": 2, "fus": 3}
_OP_TEXT = {"join": "\\/", "meet": "/\\", "fus": "*"}


def _recursive_format(f, min_prec=0, primes=False):
    """The recursive renderer, the oracle of format_formula: f, in
    parentheses when its precedence falls below min_prec."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return "0" if f.which == "zero" else "1"
    if isinstance(f, Neg):
        if primes:
            inner = _recursive_format(f.child, 99, primes)
            return f"{inner}'" if f.op == "rneg" else f"'{inner}"
        name = "rn" if f.op == "rneg" else "ln"
        return f"{name}({_recursive_format(f.child, 0, primes)})"
    prec = _PREC[f.op]
    if f.op == "rimp":  # non-associative: both children need strictly higher
        body = (f"{_recursive_format(f.left, prec + 1, primes)} \\ "
                f"{_recursive_format(f.right, prec + 1, primes)}")
    elif f.op == "limp":
        body = (f"{_recursive_format(f.right, prec + 1, primes)} / "
                f"{_recursive_format(f.left, prec + 1, primes)}")
    else:
        # left-associative: equal precedence allowed on the left only
        left = _recursive_format(f.left, prec, primes)
        right = _recursive_format(f.right, prec + 1, primes)
        body = f"{left} {_OP_TEXT[f.op]} {right}"
    return f"({body})" if prec < min_prec else body


@pytest.mark.parametrize("preset", ["core", "full"])
def test_format_formula_agrees_with_the_recursive_renderer(preset):
    rng = random.Random(20261021)
    lang = Language.preset(preset)
    for _ in range(1500):
        f = random_formula(rng, rng.randint(0, 6), lang=lang)
        for primes in (False, True):
            assert format_formula(f, primes) == _recursive_format(f, 0, primes)


def _nest(f, times, step):
    for _ in range(times):
        f = step(f)
    return f


DEEP = 3000


@pytest.mark.parametrize("op, text", [(fus, " * "), (join, " \\/ ")],
                         ids=["fus", "join"])
def test_format_formula_prints_deep_associative_chains(op, text):
    left = _nest(p, DEEP, lambda f: op(f, q))
    assert format_formula(left) == "p" + text.join([""] + ["q"] * DEEP)
    right = _nest(p, DEEP, lambda f: op(q, f))
    assert format_formula(right) == (f"q{text}(" * (DEEP - 1) + f"q{text}p"
                                     + ")" * (DEEP - 1))


def test_format_formula_prints_deep_implication_chains():
    left = _nest(p, DEEP, lambda f: rimp(f, q))
    assert format_formula(left) == ("(" * (DEEP - 1) + "p \\ q"
                                     + ") \\ q" * (DEEP - 1))
    right = _nest(p, DEEP, lambda f: rimp(q, f))
    assert format_formula(right) == ("q \\ (" * (DEEP - 1) + "q \\ p"
                                     + ")" * (DEEP - 1))


def test_format_formula_prints_deep_negations_with_primes():
    assert format_formula(_nest(p, DEEP, rneg), primes=True) == "p" + "'" * DEEP
    assert format_formula(_nest(p, DEEP, lneg), primes=True) == "'" * DEEP + "p"


# ---------------------------------------------------------------------------
# parse_formula against the recursive-descent parser it replaced
# ---------------------------------------------------------------------------

class _Parser:
    """The recursive-descent parser, the oracle of parse_formula."""

    def __init__(self, tokens, lang):
        self.tokens = tokens
        self.lang = lang
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what}, found {tok[1] or 'end of input'}", tok[2])
        return tok

    def require(self, connective, pos):
        if connective not in self.lang:
            raise LanguageError(f"{connective} not in language (at position {pos})")

    def formula(self):
        left = self.disj()
        kind, _, pos = self.peek()
        if kind in ("rimp", "limp"):
            self.advance()
            self.require("rimp" if kind == "rimp" else "limp", pos)
            right = self.disj()
            nxt = self.peek()
            if nxt[0] in ("rimp", "limp"):
                raise FormulaSyntaxError("implications are non-associative; parenthesize", nxt[2])
            if kind == "rimp":
                return rimp(left, right)
            return limp(right, left)
        return left

    def disj(self):
        node = self.conj()
        while self.peek()[0] == "or":
            _, _, pos = self.advance()
            self.require("join", pos)
            node = join(node, self.conj())
        return node

    def conj(self):
        node = self.prod()
        while self.peek()[0] == "and":
            _, _, pos = self.advance()
            self.require("meet", pos)
            node = meet(node, self.prod())
        return node

    def prod(self):
        node = self.atom()
        while self.peek()[0] == "star":
            _, _, pos = self.advance()
            self.require("fus", pos)
            node = fus(node, self.atom())
        return node

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "zero":
            return ZERO
        if kind == "one":
            return ONE
        if kind == "lpar":
            node = self.formula()
            self.expect("rpar", "')'")
            return node
        if kind == "ident":
            if text in _RESERVED:
                op = _RESERVED[text]
                self.expect("lpar", f"'(' after {text}")
                self.require(op, pos)
                child = self.formula()
                self.expect("rpar", "')'")
                return Neg(op, child)
            return Var(text)
        raise FormulaSyntaxError(f"expected a formula, found {text or 'end of input'}", pos)


def _recursive_parse(text, lang):
    parser = _Parser(_tokenize(text), lang)
    node = parser.formula()
    tok = parser.peek()
    if tok[0] != "eof":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


def _outcome(parse, text, lang):
    """The formula parsed, or the class, message and position of the error."""
    try:
        return parse(text, lang)
    except (FormulaSyntaxError, LanguageError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


_EDITS = ["(", ")", "rn(", "ln(", " \\ ", " / ", " \\/ ", " /\\ ", " * ", "p",
          "q", "0", "1", "rn", " ", "$"]


def _mutated(rng, text):
    """text with one to three random insertions, deletions or replacements."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4 or not text:
            text = text[:i] + rng.choice(_EDITS) + text[i:]
        elif edit < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_EDITS) + text[i + 1:]
    return text


@pytest.mark.parametrize("preset", ["core", "full"])
def test_parse_formula_agrees_with_the_recursive_parser(preset):
    rng = random.Random(20261019)
    lang = Language.preset(preset)
    presets = [Language.preset(name) for name in PRESET_NAMES]
    for _ in range(1500):
        text = format_formula(random_formula(rng, rng.randint(0, 6),
                                             lang=lang))
        assert parse_formula(text, lang) == _recursive_parse(text, lang)
        text, under = _mutated(rng, text), rng.choice(presets)
        assert _outcome(parse_formula, text, under) == \
            _outcome(_recursive_parse, text, under), (text, under)


def test_parse_formula_reads_deep_nesting():
    assert parse_formula("(" * DEEP + "p" + ")" * DEEP) == p
    for text, want in (
            ("rn(" * DEEP + "p" + ")" * DEEP, _nest(p, DEEP, rneg)),
            ("(" * (DEEP - 1) + "p \\ q" + ") \\ q" * (DEEP - 1),
             _nest(p, DEEP, lambda f: rimp(f, q))),
            ("q * (" * (DEEP - 1) + "q * p" + ")" * (DEEP - 1),
             _nest(p, DEEP, lambda f: fus(q, f)))):
        assert same_formula(parse_formula(text), want)
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("ln(" * DEEP + "p" + ")" * (DEEP - 1))
    assert err.value.position == 4 * DEEP
