"""Formula ASTs, propositional languages, substitution and the mirror transform.

Connective names: join (``\\/``), meet (``/\\``), fus (``*``), rimp (``\\``),
limp (``/``), rneg (``rn``), lneg (``ln``), zero (``0``), one (``1``).

Orientation convention (fixed throughout): ``rimp(a, b)`` is the right
implication a\\b and ``limp(a, b)`` is the left implication b/a, i.e. the
denominator comes first in both constructors.  ``rneg(a)`` abbreviates a\\0,
``lneg(a)`` abbreviates 0/a.

Concrete grammar (precedence, loosest to tightest: implications, \\/, /\\, *;
the implications are non-associative, the rest associate to the left)::

    formula := disj (("\\" | "/") disj)?
    disj    := conj ("\\/" conj)*
    conj    := prod ("/\\" prod)*
    prod    := atom ("*" atom)*
    atom    := var | "0" | "1" | "rn(" formula ")" | "ln(" formula ")"
             | "(" formula ")"

Variables match ``[a-z][a-z0-9_]*``; ``rn`` and ``ln`` are reserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

BINARY_CONNECTIVES = ("join", "meet", "fus", "rimp", "limp")
UNARY_CONNECTIVES = ("rneg", "lneg")
CONSTANTS = ("zero", "one")
ALL_CONNECTIVES = frozenset(BINARY_CONNECTIVES + UNARY_CONNECTIVES + CONSTANTS)
CORE_CONNECTIVES = frozenset({"join", "fus", "zero", "one"})


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula/sequent text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LanguageError(ValueError):
    """Raised when a formula uses a connective outside the ambient language."""


@dataclass(frozen=True)
class Language:
    """A sublanguage of the full connective set, always containing the core."""

    connectives: frozenset

    def __post_init__(self):
        bad = self.connectives - ALL_CONNECTIVES
        if bad:
            raise ValueError(f"unknown connectives: {sorted(bad)}")
        if not CORE_CONNECTIVES <= self.connectives:
            missing = CORE_CONNECTIVES - self.connectives
            raise ValueError(f"language must contain the core; missing {sorted(missing)}")
        if ("rimp" in self.connectives) != ("limp" in self.connectives):
            raise ValueError("rimp and limp must be both present or both absent")

    def __contains__(self, connective):
        return connective in self.connectives

    @staticmethod
    def of(*connectives):
        return Language(frozenset(connectives) | CORE_CONNECTIVES)

    @staticmethod
    def preset(name):
        try:
            return _PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown language preset {name!r}; "
                             f"choose from {sorted(_PRESETS)}") from None


_PRESETS = {
    "core": Language.of(),
    "core-meet": Language.of("meet"),
    "core-neg": Language.of("rneg", "lneg"),
    "core-meet-neg": Language.of("meet", "rneg", "lneg"),
    "full": Language(ALL_CONNECTIVES),
}

FULL = _PRESETS["full"]
CORE = _PRESETS["core"]

PRESET_NAMES = tuple(_PRESETS)


class Formula:
    """Base class; concrete nodes are Var, Const, Bin, Neg (all frozen)."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    which: str  # "zero" | "one"


@dataclass(frozen=True)
class Bin(Formula):
    op: str  # join | meet | fus | rimp | limp
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Neg(Formula):
    op: str  # rneg | lneg
    child: Formula


ZERO = Const("zero")
ONE = Const("one")


def var(name):
    return Var(name)


def join(left, right):
    return Bin("join", left, right)


def meet(left, right):
    return Bin("meet", left, right)


def fus(left, right):
    return Bin("fus", left, right)


def rimp(denominator, numerator):
    """The right implication denominator \\ numerator."""
    return Bin("rimp", denominator, numerator)


def limp(denominator, numerator):
    """The left implication numerator / denominator."""
    return Bin("limp", denominator, numerator)


def rneg(child):
    return Neg("rneg", child)


def lneg(child):
    return Neg("lneg", child)


def connectives_of(f) -> frozenset:
    """All connective names (including constants) occurring in f."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            out.add(node.which)
        elif isinstance(node, Bin):
            out.add(node.op)
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Neg):
            out.add(node.op)
            stack.append(node.child)
    return frozenset(out)


def variables_of(f) -> frozenset:
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Neg):
            stack.append(node.child)
    return frozenset(out)


def subformulas(f) -> frozenset:
    """All subtrees of f, including f itself."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in out:
            continue
        out.add(node)
        if isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Neg):
            stack.append(node.child)
    return frozenset(out)


def check_language(f, lang: Language):
    bad = connectives_of(f) - lang.connectives
    if bad:
        raise LanguageError(f"{sorted(bad)[0]} not in language")


_MIRROR_NEG = {"rneg": "lneg", "lneg": "rneg"}
# each binary connective's mirror, and whether its arguments swap; a\b is
# rimp(a, b) and its mirror b/a is limp(a, b), denominator first in both
_MIRROR_BIN = {"join": ("join", False), "meet": ("meet", False),
               "fus": ("fus", True), "rimp": ("limp", False),
               "limp": ("rimp", False)}


def mirror_formula(f) -> Formula:
    """The mirror image: fusion reversed, the two implications and the two
    negations swapped, variables and constants fixed.  The walk keeps an
    explicit stack, so formula depth is not bounded by the interpreter's
    recursion limit."""
    out = []
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, (Var, Const)):
            out.append(node)
        elif not ready:
            stack.append((node, True))
            if isinstance(node, Neg):
                stack.append((node.child, False))
            else:
                stack += ((node.right, False), (node.left, False))
        elif isinstance(node, Neg):
            out.append(Neg(_MIRROR_NEG[node.op], out.pop()))
        else:
            op, swap = _MIRROR_BIN[node.op]
            right = out.pop()
            left = out.pop()
            out.append(Bin(op, right, left) if swap else Bin(op, left, right))
    return out[0]


def same_formula(a, b) -> bool:
    """Whether two formulas are equal, by a walk on an explicit stack, so
    that formula depth is not bounded by the interpreter's recursion limit;
    a pair of identical objects is equal without being walked."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Bin):
            if x.op != y.op:
                return False
            stack += ((x.left, y.left), (x.right, y.right))
        elif isinstance(x, Neg):
            if x.op != y.op:
                return False
            stack.append((x.child, y.child))
        elif x != y:
            return False
    return True


def apply_subst(subst: Mapping[str, Formula], f) -> Formula:
    """Homomorphic replacement of variables; identity outside the domain."""
    if isinstance(f, Var):
        return subst.get(f.name, f)
    if isinstance(f, Const):
        return f
    if isinstance(f, Neg):
        return Neg(f.op, apply_subst(subst, f.child))
    return Bin(f.op, apply_subst(subst, f.left), apply_subst(subst, f.right))


def match_formula(pattern, target, binding=None):
    """One-sided matching: extend `binding` so that pattern[binding] == target.

    Variables of `pattern` act as metavariables.  Returns the extended binding
    dict, or None when there is no match.
    """
    if binding is None:
        binding = {}
    if isinstance(pattern, Var):
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = target
            return binding
        return binding if seen == target else None
    if isinstance(pattern, Const):
        return binding if pattern == target else None
    if isinstance(pattern, Neg):
        if isinstance(target, Neg) and target.op == pattern.op:
            return match_formula(pattern.child, target.child, binding)
        return None
    if isinstance(target, Bin) and target.op == pattern.op:
        binding = match_formula(pattern.left, target.left, binding)
        if binding is None:
            return None
        return match_formula(pattern.right, target.right, binding)
    return None


def formula_key(f):
    """Deterministic total order key, used to canonicalize multisets."""
    if isinstance(f, Var):
        return (0, f.name)
    if isinstance(f, Const):
        return (1, f.which)
    if isinstance(f, Neg):
        return (2, f.op, formula_key(f.child))
    return (3, f.op, formula_key(f.left), formula_key(f.right))


class SubformulaTable:
    """The distinct subformulas of some root formulas, numbered 0..n-1 in
    `formula_key` order.

    ``op[i]`` is the connective of formula i (``"var"`` for a variable,
    ``"zero"``/``"one"`` for a constant), ``left[i]`` and ``right[i]`` the
    numbers of its children (a negation's child is in ``left``; -1 where
    there is none), and ``formulas[i]`` the formula itself, for decoding.
    ``roots`` numbers the given roots in order.  Numbers sort exactly as
    their formulas sort under `formula_key`, so a sorted tuple of numbers
    is a sorted antecedent.

    The table is built in one iterative post-order pass.  Nodes are interned
    by (connective, child numbers), and each node's sort key is built from
    its children's keys, so that no formula is hashed, compared or keyed
    recursively; equal subformulas that are distinct objects get one number.
    A sort key is `formula_key` flattened in preorder, (tag, op, left's key
    items..., right's key items...): the tag fixes the arity, so no key is
    a proper prefix of another, and flat keys compare as the nested ones do,
    without recursing in the comparison.
    """

    __slots__ = ("op", "left", "right", "formulas", "roots")

    def __init__(self, roots):
        intern = {}
        keys, nodes, found = [], [], []
        for root in roots:
            todo = [(root, False)]
            done = []
            while todo:
                f, ready = todo.pop()
                cls = type(f)
                if cls is Bin:
                    if not ready:
                        todo += ((f, True), (f.right, False), (f.left, False))
                        continue
                    r = done.pop()
                    l = done.pop()
                    op = f.op
                    name = (op, l, r)
                elif cls is Neg:
                    if not ready:
                        todo += ((f, True), (f.child, False))
                        continue
                    op, l, r = f.op, done.pop(), -1
                    name = (op, l)
                elif cls is Var:
                    op, l, r = "var", -1, -1
                    name = ("var", f.name)
                elif cls is Const:
                    op, l, r = f.which, -1, -1
                    name = op
                else:
                    raise TypeError(f"not a formula: {f!r}")
                k = intern.get(name)
                if k is None:
                    k = intern[name] = len(keys)
                    if r >= 0:
                        keys.append((3, op) + keys[l] + keys[r])
                    elif l >= 0:
                        keys.append((2, op) + keys[l])
                    else:
                        keys.append(formula_key(f))
                    nodes.append((f, op, l, r))
                done.append(k)
            found.append(done.pop())
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank = [0] * len(order) + [-1]   # rank[-1] is -1: no child
        for i, k in enumerate(order):
            rank[k] = i
        # tuple([...]), not tuple(genexpr): a tuple built from a generator
        # is allocated at a guessed size and resized, and freed it lands on
        # the free list of its final size, which only a full collection
        # empties
        self.formulas = tuple([nodes[k][0] for k in order])
        self.op = tuple([nodes[k][1] for k in order])
        self.left = tuple([rank[nodes[k][2]] for k in order])
        self.right = tuple([rank[nodes[k][3]] for k in order])
        self.roots = tuple([rank[k] for k in found])

    def __len__(self):
        return len(self.formulas)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<or>\\/)
  | (?P<and>/\\)
  | (?P<rimp>\\)
  | (?P<limp>/)
  | (?P<star>\*)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<zero>0)
  | (?P<one>1)
  | (?P<ident>[a-z][a-z0-9_]*)
""", re.VERBOSE)

_RESERVED = {"rn": "rneg", "ln": "lneg"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# binary operator tokens: (connective, precedence)
_BINARY = {"rimp": ("rimp", 0), "limp": ("limp", 0), "or": ("join", 1),
           "and": ("meet", 2), "star": ("fus", 3)}


def _language_error(connective, pos):
    return LanguageError(f"{connective} not in language (at position {pos})")


def parse_formula(text, lang=FULL) -> Formula:
    """Parse a formula by precedence on explicit stacks, so nesting depth is
    not bounded by the interpreter's recursion limit.  Each open "(",
    "rn(" or "ln(" is a frame: the negation it closes with (or None), and
    the operands and operators read in it, in increasing precedence; an
    operator is applied when one of no higher precedence follows, so the
    binary connectives associate to the left."""
    tokens = _tokenize(text)
    connectives = lang.connectives
    frames = []
    neg, operands, operators = None, [], []
    i = 0
    while True:
        # an operand, after the frames it opens
        kind, word, pos = tokens[i]
        i += 1
        while kind == "lpar" or kind == "ident" and word in _RESERVED:
            op = None
            if kind == "ident":
                op = _RESERVED[word]
                kind, found, at = tokens[i]
                i += 1
                if kind != "lpar":
                    raise FormulaSyntaxError(
                        f"expected '(' after {word}, found "
                        f"{found or 'end of input'}", at)
                if op not in connectives:
                    raise _language_error(op, pos)
            frames.append((neg, operands, operators))
            neg, operands, operators = op, [], []
            kind, word, pos = tokens[i]
            i += 1
        if kind == "ident":
            node = Var(word)
        elif kind == "zero":
            node = ZERO
        elif kind == "one":
            node = ONE
        else:
            raise FormulaSyntaxError(
                f"expected a formula, found {word or 'end of input'}", pos)
        # the operators and closing parentheses after it
        while True:
            kind, word, pos = tokens[i]
            i += 1
            binary = _BINARY.get(kind)
            if binary is None:
                prec = -1
            else:
                connective, prec = binary
                if prec == 0 and operators and operators[0][1] == 0:
                    raise FormulaSyntaxError(
                        "implications are non-associative; parenthesize", pos)
                if connective not in connectives:
                    raise _language_error(connective, pos)
            while operators and operators[-1][1] >= prec:
                connective = operators.pop()[0]
                left = operands.pop()
                # the text x / y is the left implication with denominator y
                node = (Bin(connective, node, left) if connective == "limp"
                        else Bin(connective, left, node))
            if binary is not None:
                operands.append(node)
                operators.append(binary)
                break
            if not frames:
                if kind != "eof":
                    raise FormulaSyntaxError(f"trailing input {word!r}", pos)
                return node
            if kind != "rpar":
                raise FormulaSyntaxError(
                    f"expected ')', found {word or 'end of input'}", pos)
            if neg is not None:
                node = Neg(neg, node)
            neg, operands, operators = frames.pop()


_PREC = {"rimp": 0, "limp": 0, "join": 1, "meet": 2, "fus": 3}
_OP_TEXT = {"join": " \\/ ", "meet": " /\\ ", "fus": " * "}


def format_formula(f, primes=False) -> str:
    """Render f; the default form round-trips through parse_formula.  A
    subformula is parenthesized when its precedence falls below what its
    place needs.  The walk is iterative, so a formula of any depth renders.

    With primes=True the negations render postfix/prefix (x', 'x) for
    display; that form is not parseable.
    """
    out = []
    # the texts still to close, and (separator, operand printed second, its
    # minimum precedence) of each binary formula whose first one is rendering
    stack = []
    min_prec = 0
    while True:
        # render f: descend along first operands, deferring the rest
        cls = f.__class__
        if cls is Bin:
            op = f.op
            prec = _PREC[op]
            if prec < min_prec:
                out.append("(")
                stack.append(")")
            # the implications are non-associative: both operands need
            # strictly higher precedence; the rest associate to the left
            if op == "rimp":
                stack.append((" \\ ", f.right, prec + 1))
                f, min_prec = f.left, prec + 1
            elif op == "limp":
                stack.append((" / ", f.left, prec + 1))
                f, min_prec = f.right, prec + 1
            else:
                stack.append((_OP_TEXT[op], f.right, prec + 1))
                f, min_prec = f.left, prec
            continue
        if cls is Neg:
            if not primes:
                out.append("rn(" if f.op == "rneg" else "ln(")
                stack.append(")")
            elif f.op == "rneg":
                stack.append("'")
            else:
                out.append("'")
            f, min_prec = f.child, 99 if primes else 0
            continue
        out.append(f.name if cls is Var else "0" if f.which == "zero" else "1")
        # a leaf is done: close what it ends, up to the next deferred operand
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
            else:
                sep, f, min_prec = item
                out.append(sep)
                break
        else:
            return "".join(out)
