"""Formula ASTs, propositional languages, substitution and the mirror transform.

`numbered` lists the distinct subformulas of some formulas once, children
before parents, on an explicit stack.  The folds over subformulas are
loops over that list: `subformulas`, `variables_of`, `mirror_formula`,
`apply_subst`, `SubformulaTable`, and `algebra.compile_terms`.  A node
carries its connectives as a bit mask, made from its children's when it
is built, so `connectives_of` and `check_language` walk nothing.
`format_formula`, `formula_key` and `match_formula` keep their own walks.

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
import threading
import weakref
from dataclasses import dataclass, field
from typing import Mapping

BINARY_CONNECTIVES = ("join", "meet", "fus", "rimp", "limp")
UNARY_CONNECTIVES = ("rneg", "lneg")
CONSTANTS = ("zero", "one")
ALL_CONNECTIVES = frozenset(BINARY_CONNECTIVES + UNARY_CONNECTIVES + CONSTANTS)
CORE_CONNECTIVES = frozenset({"join", "fus", "zero", "one"})
# bit i of a connective mask is the i-th name in alphabetical order, so
# the lowest bit set names the first connective of a set in sorted order
_NAMES = tuple(sorted(ALL_CONNECTIVES))
_BIT = {name: 1 << i for i, name in enumerate(_NAMES)}


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula/sequent text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LanguageError(ValueError):
    """Raised when a formula uses a connective outside the ambient language."""


@dataclass(frozen=True)
class Language:
    """A sublanguage of the full connective set, always containing the core.
    ``mask`` is its connectives as a bit mask, as a formula's `mask` is."""

    connectives: frozenset
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = self.connectives - ALL_CONNECTIVES
        if bad:
            raise ValueError(f"unknown connectives: {sorted(bad)}")
        if not CORE_CONNECTIVES <= self.connectives:
            missing = CORE_CONNECTIVES - self.connectives
            raise ValueError(f"language must contain the core; missing {sorted(missing)}")
        if ("rimp" in self.connectives) != ("limp" in self.connectives):
            raise ValueError("rimp and limp must be both present or both absent")
        object.__setattr__(self, "mask",
                           sum([_BIT[c] for c in self.connectives]))

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
    """Base class of the formula nodes Var, Const, Bin and Neg.

    Nodes are hash-consed: a constructor looks its class and fields up in
    one weak-valued table, children by identity, and returns the node
    already built for them, so equal formulas are one object, and `==` and
    `hash` are those of identity and never walk a formula.  Nodes are
    immutable; the table drops a node when nothing else holds it.

    A node also carries ``mask``, the connectives occurring in it (its
    constants included) as a bit mask, made once from its children's when
    the node is built.  It is derived, so it is neither part of the key
    nor a field: `repr`, pickling and copying list only the fields.
    """

    __slots__ = ("__weakref__", "mask")

    def __new__(cls, *fields):
        key = (cls,) + fields
        node = _NODES.get(key)
        if node is None:
            with _BUILDING:   # one node per key, also across threads
                node = _NODES.get(key)
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(cls.__slots__, fields,
                                           strict=True):
                        object.__setattr__(node, name, value)
                    mask = 0 if cls is Var else _BIT[fields[0]]
                    for child in fields[1:]:
                        mask |= child.mask
                    object.__setattr__(node, "mask", mask)
                    _NODES[key] = node
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, name)
                                  for name in self.__slots__])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{type(self).__name__}({fields})"


_NODES = weakref.WeakValueDictionary()
_BUILDING = threading.Lock()


class Var(Formula):
    __slots__ = ("name",)


class Const(Formula):
    __slots__ = ("which",)  # "zero" | "one"


class Bin(Formula):
    __slots__ = ("op", "left", "right")  # join | meet | fus | rimp | limp


class Neg(Formula):
    __slots__ = ("op", "child")  # rneg | lneg


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
    """All connective names (including constants) occurring in f, read
    from its mask."""
    return frozenset([name for name in _NAMES if f.mask & _BIT[name]])


def numbered(roots):
    """(nodes, positions): the distinct formula objects of the roots (equal
    formulas are one object, so these are their distinct subformulas), each
    listed once, children before parents, left child first.  ``nodes[i]``
    is (formula, connective, left, right): the connective is ``"var"`` for
    a variable and ``"zero"``/``"one"`` for a constant; left and right are
    the positions of the children in the list (a negation's child is
    left), -1 where there is none.  ``positions`` gives each root's
    position.  One pass on an explicit stack, so formula depth is not
    bounded by the interpreter's recursion limit; the folds over a
    formula's subformulas are loops over this list."""
    number = {}
    nodes = []
    for root in roots:
        todo = [(root, False)]
        while todo:
            f, ready = todo.pop()
            if f in number:
                continue
            cls = type(f)
            if cls is Bin:
                if not ready:
                    todo += ((f, True), (f.right, False), (f.left, False))
                    continue
                node = (f, f.op, number[f.left], number[f.right])
            elif cls is Neg:
                if not ready:
                    todo += ((f, True), (f.child, False))
                    continue
                node = (f, f.op, number[f.child], -1)
            elif cls is Var:
                node = (f, "var", -1, -1)
            elif cls is Const:
                node = (f, f.which, -1, -1)
            else:
                raise TypeError(f"not a formula: {f!r}")
            number[f] = len(nodes)
            nodes.append(node)
    return nodes, [number[f] for f in roots]


def variables_of(f) -> frozenset:
    return frozenset([node.name for node, op, _, _ in numbered((f,))[0]
                      if op == "var"])


def subformulas(f) -> frozenset:
    """All subtrees of f, including f itself."""
    return frozenset([node[0] for node in numbered((f,))[0]])


def check_language(f, lang: Language):
    """Raise LanguageError naming the first connective of f, in sorted
    order, outside lang: one AND of the two masks."""
    bad = f.mask & ~lang.mask
    if bad:
        raise LanguageError(f"{_NAMES[(bad & -bad).bit_length() - 1]} "
                            "not in language")


_MIRROR_NEG = {"rneg": "lneg", "lneg": "rneg"}
# each binary connective's mirror, and whether its arguments swap; a\b is
# rimp(a, b) and its mirror b/a is limp(a, b), denominator first in both
_MIRROR_BIN = {"join": ("join", False), "meet": ("meet", False),
               "fus": ("fus", True), "rimp": ("limp", False),
               "limp": ("rimp", False)}


def mirror_formula(f) -> Formula:
    """The mirror image: fusion reversed, the two implications and the two
    negations swapped, variables and constants fixed.  Each distinct
    subformula is mirrored once, in the order of `numbered`."""
    out = []
    for node, op, left, right in numbered((f,))[0]:
        if right >= 0:
            op, swap = _MIRROR_BIN[op]
            node = (Bin(op, out[right], out[left]) if swap
                    else Bin(op, out[left], out[right]))
        elif left >= 0:
            node = Neg(_MIRROR_NEG[op], out[left])
        out.append(node)
    return out[-1]


def apply_subst(subst: Mapping[str, Formula], f) -> Formula:
    """Homomorphic replacement of variables; identity outside the domain.
    Each distinct subformula is replaced once, in the order of
    `numbered`."""
    out = []
    for node, op, left, right in numbered((f,))[0]:
        if op == "var":
            node = subst.get(node.name, node)
        elif right >= 0:
            node = Bin(op, out[left], out[right])
        elif left >= 0:
            node = Neg(op, out[left])
        out.append(node)
    return out[-1]


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
    is a sorted antecedent.  ``post`` lists the numbers in the order of
    `numbered`, children before parents, so a fold over the table is one
    loop over it.

    The table is built from `numbered`'s list.  Each node's sort key is
    built from its children's keys, so that no formula is compared or
    keyed recursively.  A sort key is `formula_key` flattened in preorder,
    (tag, op, left's key items..., right's key items...): the tag fixes
    the arity, so no key is a proper prefix of another, and flat keys
    compare as the nested ones do, without recursing in the comparison.
    """

    __slots__ = ("op", "left", "right", "formulas", "roots", "post")

    def __init__(self, roots):
        nodes, positions = numbered(roots)
        keys = []
        for f, op, l, r in nodes:
            if r >= 0:
                keys.append((3, op) + keys[l] + keys[r])
            elif l >= 0:
                keys.append((2, op) + keys[l])
            else:
                keys.append(formula_key(f))
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
        self.roots = tuple([rank[k] for k in positions])
        self.post = tuple(rank[:-1])

    def __len__(self):
        return len(self.formulas)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

# One C-level scan finds the tokens: the longest identifier, the two-character
# operators before the one-character ones, whitespace skipped, and any other
# character as a token of its own, an unexpected one
_TOKEN_RE = re.compile(r"\\/|/\\|[\\/*()01]|[a-z][a-z0-9_]*|\S")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_TOKEN_START = _LETTERS | frozenset("\\/*()01")

_RESERVED = {"rn": "rneg", "ln": "lneg"}

# binary operator tokens: (connective, precedence)
_BINARY = {"\\": ("rimp", 0), "/": ("limp", 0), "\\/": ("join", 1),
           "/\\": ("meet", 2), "*": ("fus", 3)}


def _error(text, tokens, i, message, error=FormulaSyntaxError):
    """The error to raise at token i of text: `message` at the token's
    position, unless the text has an unexpected character, which is
    reported first, as if the whole text were scanned before the parse.
    Positions are found here only, by a second scan."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    starts.append(len(text))
    for word, start in zip(tokens, starts):
        if word and word[0] not in _TOKEN_START:
            return FormulaSyntaxError(f"unexpected character {word!r}", start)
    if error is LanguageError:
        return LanguageError(f"{message} (at position {starts[i]})")
    return FormulaSyntaxError(message, starts[i])


def parse_formula(text, lang=FULL) -> Formula:
    """Parse a formula by precedence on explicit stacks, so nesting depth is
    not bounded by the interpreter's recursion limit.  Each open "(",
    "rn(" or "ln(" is a frame: the negation it closes with (or None), and
    the operands and operators read in it, in increasing precedence; an
    operator is applied when one of no higher precedence follows, so the
    binary connectives associate to the left.  The tokens are the texts
    `_TOKEN_RE` finds, then "" for the end of input."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    connectives = lang.connectives
    frames = []
    neg, operands, operators = None, [], []
    i = 0
    while True:
        # an operand, after the frames it opens
        word = tokens[i]
        i += 1
        while word == "(" or word in _RESERVED:
            op = None
            if word != "(":
                op = _RESERVED[word]
                if tokens[i] != "(":
                    raise _error(text, tokens, i,
                                 f"expected '(' after {word}, found "
                                 f"{tokens[i] or 'end of input'}")
                if op not in connectives:
                    raise _error(text, tokens, i - 1,
                                 f"{op} not in language", LanguageError)
                i += 1
            frames.append((neg, operands, operators))
            neg, operands, operators = op, [], []
            word = tokens[i]
            i += 1
        if word[:1] in _LETTERS:
            node = Var(word)
        elif word == "0":
            node = ZERO
        elif word == "1":
            node = ONE
        else:
            raise _error(text, tokens, i - 1, "expected a formula, found "
                         f"{word or 'end of input'}")
        # the operators and closing parentheses after it
        while True:
            word = tokens[i]
            i += 1
            binary = _BINARY.get(word)
            if binary is None:
                prec = -1
            else:
                connective, prec = binary
                if prec == 0 and operators and operators[0][1] == 0:
                    raise _error(text, tokens, i - 1, "implications are "
                                 "non-associative; parenthesize")
                if connective not in connectives:
                    raise _error(text, tokens, i - 1,
                                 f"{connective} not in language",
                                 LanguageError)
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
                if word:
                    raise _error(text, tokens, i - 1,
                                 f"trailing input {word!r}")
                return node
            if word != ")":
                raise _error(text, tokens, i - 1, "expected ')', found "
                             f"{word or 'end of input'}")
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
