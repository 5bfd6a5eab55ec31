"""Rule schemata of the full Lambek calculus and its structural extensions,
proof trees, proof checking, and backward rule-instance enumeration.

Each `RuleId` member declares the facts about its rule once: its label,
arity, what puts it in a calculus, whether it is invertible, the layout of
its data and its mirror partner.  `rules_of`, `check_proof`,
`decode_data`, `mirror_proof`, the sexp reader and the search read them
there.

A ProofTree node stores enough instance data (position indices, side
formulas) to recompute its conclusion from its premises deterministically;
`derive_conclusion` is the single source of truth for what each rule does.
Backward, `table_instances_backward` states each rule's premises once, on
sequence and multiset goals alike, in the order the search tries the
rules; `rule_instances_backward` and the data inference of
`parse_proof_sexp` read it too.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .syntax import (Language, FULL, ZERO, ONE, format_formula, fus, join,
                     limp, lneg, meet, mirror_formula, rimp, rneg)
from .sequents import (Sequent, check_sequent_language, decode_sequent,
                       encode_sequents, fuse, mirror_sequent, parse_sequent)

SIGMA_LETTERS = ("e", "wl", "wr", "c")


def parse_sigma(text) -> frozenset:
    """Parse a comma list of structural-rule codes; `w` expands to wl,wr."""
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "w":
            out.update(("wl", "wr"))
        elif part in SIGMA_LETTERS:
            out.add(part)
        else:
            raise ValueError(f"unknown structural code {part!r}")
    return frozenset(out)


def format_sigma(sigma) -> str:
    return ",".join(s for s in SIGMA_LETTERS if s in sigma) or "(none)"


# The kinds of a rule's data slots; see RuleId.
POS = "pos"
PAIR = "pair"
RIGHT_POS = "right-pos"
SIDE = "side"


class RuleId(enum.Enum):
    """A rule of FL_sigma[Psi], or the Hypothesis leaf, with the facts about
    it declared once, in its member's row:

    - `label`, the member's value: its name in printed proofs;
    - `arity`, its number of premises;
    - `source`, what puts it in FL_sigma[Psi]: a connective of Psi, a code
      of sigma, or None for the rules of every calculus.  Hypothesis, which
      closes a branch with a declared hypothesis, is in no calculus, and
      `rules_of` leaves it out;
    - `invertible`: one of the nine rules that cut admissibility makes
      invertible in every sigma but {c}, which a committing search applies
      first and alone;
    - `layout`, one kind per slot of a node's data: POS, a position in the
      conclusion's antecedent (of the principal, inserted or contracted
      formula); PAIR, the first position of an adjacent pair in the
      conclusion's antecedent; RIGHT_POS, a position in the second
      premise's antecedent; SIDE, a side formula (a table number in table
      instances, see `decode_data`);
    - `mirror`, the partner rule that the mirror image of an instance is an
      instance of; a rule without one given is its own partner.

    `derive_conclusion` states what each rule does."""

    #            label         arity source  invertible layout       mirror
    AXIOM      = "axiom",      0,    None,   False, ()
    CUT        = "cut",        2,    None,   False, (RIGHT_POS,)
    OR_L       = "or-l",       2,    "join", True,  (POS,)
    OR_R1      = "or-r1",      1,    "join", False, (SIDE,)
    OR_R2      = "or-r2",      1,    "join", False, (SIDE,)
    AND_L1     = "and-l1",     1,    "meet", False, (POS, SIDE)
    AND_L2     = "and-l2",     1,    "meet", False, (POS, SIDE)
    AND_R      = "and-r",      2,    "meet", True,  ()
    FUS_L      = "fus-l",      1,    "fus",  True,  (POS,)
    FUS_R      = "fus-r",      2,    "fus",  False, ()
    RIMP_L     = "rimp-l",     2,    "rimp", False, (RIGHT_POS,), "LIMP_L"
    RIMP_R     = "rimp-r",     1,    "rimp", True,  (),           "LIMP_R"
    LIMP_L     = "limp-l",     2,    "limp", False, (RIGHT_POS,), "RIMP_L"
    LIMP_R     = "limp-r",     1,    "limp", True,  (),           "RIMP_R"
    RNEG_L     = "rneg-l",     1,    "rneg", False, (),           "LNEG_L"
    RNEG_R     = "rneg-r",     1,    "rneg", True,  (),           "LNEG_R"
    LNEG_L     = "lneg-l",     1,    "lneg", False, (),           "RNEG_L"
    LNEG_R     = "lneg-r",     1,    "lneg", True,  (),           "RNEG_R"
    ONE_L      = "one-l",      1,    "one",  True,  (POS,)
    ONE_R      = "one-r",      0,    "one",  False, ()
    ZERO_L     = "zero-l",     0,    "zero", False, ()
    ZERO_R     = "zero-r",     1,    "zero", True,  ()
    EXCH_L     = "exch-l",     1,    "e",    False, (PAIR,)
    WEAK_L     = "weak-l",     1,    "wl",   False, (POS, SIDE)
    WEAK_R     = "weak-r",     1,    "wr",   False, (SIDE,)
    CONTR_L    = "contr-l",    1,    "c",    False, (POS,)
    HYPOTHESIS = "hypothesis", 0,    None,   False, ()

    def __new__(cls, label, arity, source, invertible, layout, mirror=None):
        rule = object.__new__(cls)
        rule._value_ = rule.label = label
        rule.arity, rule.source, rule.invertible = arity, source, invertible
        rule.layout, rule.mirror = layout, mirror
        return rule

    # Members are singletons compared by identity; Enum's own hash hashes
    # the member's name at Python level, on every set and dict lookup.
    __hash__ = object.__hash__


for _rule in RuleId:
    _rule.mirror = RuleId[_rule.mirror] if _rule.mirror else _rule

# Each member bound once to a module name of its own: the per-node code
# reads a global, as on CPython 3.11 an attribute of an Enum class is a
# slow lookup (about 140 ns against 28 ns)
(AXIOM, CUT, OR_L, OR_R1, OR_R2, AND_L1, AND_L2, AND_R, FUS_L, FUS_R, RIMP_L,
 RIMP_R, LIMP_L, LIMP_R, RNEG_L, RNEG_R, LNEG_L, LNEG_R, ONE_L, ONE_R, ZERO_L,
 ZERO_R, EXCH_L, WEAK_L, WEAK_R, CONTR_L, HYPOTHESIS) = RuleId

# (source, rule) for the rules of the calculi: iterating a tuple is cheaper
# than iterating the Enum class, and rules_of runs on every search and check
_SOURCES = tuple((rule.source, rule) for rule in RuleId
                 if rule is not HYPOTHESIS)


@dataclass(frozen=True)
class CalculusId:
    """FL_sigma[Psi]: a structural-rule set over a sublanguage."""

    sigma: frozenset
    lang: Language

    def __post_init__(self):
        bad = self.sigma - frozenset(SIGMA_LETTERS)
        if bad:
            raise ValueError(f"unknown structural codes: {sorted(bad)}")

    def __str__(self):
        return f"FL[{format_sigma(self.sigma)}]"


def calculus(sigma="", lang=FULL) -> CalculusId:
    if isinstance(sigma, str):
        sigma = parse_sigma(sigma)
    return CalculusId(frozenset(sigma), lang)


def rules_of(cal: CalculusId) -> frozenset:
    """All rules of FL_sigma[Psi]; (=>0) is kept even when wr subsumes it."""
    lang, sigma = cal.lang.connectives, cal.sigma
    return frozenset([rule for source, rule in _SOURCES if source is None
                      or source in lang or source in sigma])


def postorder(root, children, combine, key=id, done=None):
    """The value of `root`, where a node's value is `combine(node, the
    values of children(node), in order)`.  Nodes are combined on an
    explicit stack, children before parents, once per `key(node)`: a node
    shared by several parents is combined once, and a structure of any
    depth is walked.  `done` maps keys to values already combined; it is
    filled in place, so a caller can keep it between calls."""
    if done is None:
        done = {}
    root_key = key(root)
    stack = [(root, root_key, None)]
    while stack:
        node, k, kids = stack[-1]
        if k in done:
            stack.pop()
            continue
        if kids is None:
            kids = [(child, key(child)) for child in children(node)]
            pending = [(child, ck, None) for child, ck in kids
                       if ck not in done]
            if pending:
                stack[-1] = node, k, kids
                stack += pending
                continue
        stack.pop()
        done[k] = combine(node, tuple([done[ck] for _, ck in kids]))
    return done[root_key]


_premises = attrgetter("premises")


@dataclass(frozen=True, eq=False)
class ProofTree:
    """A proof node.  Equality and `height` walk the tree without
    recursion, so a proof of any height can be compared and measured; a
    subtree shared by several premises is visited once per pair or level.
    The hash reads the root node only."""
    conclusion: Sequent
    rule: RuleId
    premises: tuple = ()
    data: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, ProofTree):
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if (a.rule is not b.rule or a.conclusion != b.conclusion
                    or a.data != b.data
                    or len(a.premises) != len(b.premises)):
                return False
            stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self):
        return hash((self.conclusion, self.rule, self.data))

    def height(self):
        # one level at a time, each level's distinct node objects once
        h, level = 1, self.premises
        while level:
            h += 1
            below = {}
            for node in level:
                for p in node.premises:
                    below[id(p)] = p
            level = list(below.values())
        return h


class InstanceError(ValueError):
    """A (rule, data, premises) triple does not form a rule instance."""


def _need(cond, message):
    if not cond:
        raise InstanceError(message)


def derive_conclusion(rule: RuleId, data: tuple, premises: tuple) -> Sequent:
    """Recompute the conclusion a rule instance produces from its premises.

    Raises InstanceError when the premises do not fit the schema.  Leaf rules
    (Axiom, =>1, 0=>, Hypothesis) are validated by `check_leaf` instead.
    """
    arity = rule.arity
    _need(len(premises) == arity, f"{rule.label} takes {arity} premises")
    if arity >= 1:
        a, d = premises[0].antecedent, premises[0].succedent
    if rule is OR_L:
        (i,) = data
        a2, d2 = premises[1].antecedent, premises[1].succedent
        _need(d == d2 and len(a) == len(a2), "or-l premises must share context")
        _need(0 <= i < len(a), "or-l position out of range")
        _need(a[:i] == a2[:i] and a[i + 1:] == a2[i + 1:], "or-l contexts differ")
        return Sequent(a[:i] + (join(a[i], a2[i]),) + a[i + 1:], d)
    if rule is OR_R1:
        (side,) = data
        _need(d is not None, "or-r1 needs a succedent")
        return Sequent(a, join(d, side))
    if rule is OR_R2:
        (side,) = data
        _need(d is not None, "or-r2 needs a succedent")
        return Sequent(a, join(side, d))
    if rule is AND_L1:
        i, side = data
        _need(0 <= i < len(a), "and-l1 position out of range")
        return Sequent(a[:i] + (meet(a[i], side),) + a[i + 1:], d)
    if rule is AND_L2:
        i, side = data
        _need(0 <= i < len(a), "and-l2 position out of range")
        return Sequent(a[:i] + (meet(side, a[i]),) + a[i + 1:], d)
    if rule is AND_R:
        a2, d2 = premises[1].antecedent, premises[1].succedent
        _need(a == a2, "and-r premises must share the antecedent")
        _need(d is not None and d2 is not None, "and-r needs succedents")
        return Sequent(a, meet(d, d2))
    if rule is FUS_L:
        (i,) = data
        _need(0 <= i <= len(a) - 2, "fus-l needs two adjacent formulas")
        return Sequent(a[:i] + (fus(a[i], a[i + 1]),) + a[i + 2:], d)
    if rule is FUS_R:
        a2, d2 = premises[1].antecedent, premises[1].succedent
        _need(d is not None and d2 is not None, "fus-r needs succedents")
        return Sequent(a + a2, fus(d, d2))
    if rule is RIMP_L:
        (j,) = data
        a2, d2 = premises[1].antecedent, premises[1].succedent
        _need(d is not None, "rimp-l first premise needs a succedent")
        _need(0 <= j < len(a2), "rimp-l position out of range")
        return Sequent(a2[:j] + a + (rimp(d, a2[j]),) + a2[j + 1:], d2)
    if rule is LIMP_L:
        (j,) = data
        a2, d2 = premises[1].antecedent, premises[1].succedent
        _need(d is not None, "limp-l first premise needs a succedent")
        _need(0 <= j < len(a2), "limp-l position out of range")
        return Sequent(a2[:j] + (limp(d, a2[j]),) + a + a2[j + 1:], d2)
    if rule is RIMP_R:
        _need(len(a) >= 1 and d is not None, "rimp-r needs a leading formula")
        return Sequent(a[1:], rimp(a[0], d))
    if rule is LIMP_R:
        _need(len(a) >= 1 and d is not None, "limp-r needs a trailing formula")
        return Sequent(a[:-1], limp(a[-1], d))
    if rule is RNEG_L:
        _need(d is not None, "rneg-l premise needs a succedent")
        return Sequent(a + (rneg(d),), None)
    if rule is RNEG_R:
        _need(len(a) >= 1 and d is None, "rneg-r needs an empty succedent")
        return Sequent(a[1:], rneg(a[0]))
    if rule is LNEG_L:
        _need(d is not None, "lneg-l premise needs a succedent")
        return Sequent((lneg(d),) + a, None)
    if rule is LNEG_R:
        _need(len(a) >= 1 and d is None, "lneg-r needs an empty succedent")
        return Sequent(a[:-1], lneg(a[-1]))
    if rule is ONE_L:
        (i,) = data
        _need(0 <= i <= len(a), "one-l position out of range")
        return Sequent(a[:i] + (ONE,) + a[i:], d)
    if rule is ZERO_R:
        _need(d is None, "zero-r premise must have an empty succedent")
        return Sequent(a, ZERO)
    if rule is EXCH_L:
        (i,) = data
        _need(0 <= i <= len(a) - 2, "exch-l position out of range")
        return Sequent(a[:i] + (a[i + 1], a[i]) + a[i + 2:], d)
    if rule is WEAK_L:
        i, side = data
        _need(0 <= i <= len(a), "weak-l position out of range")
        return Sequent(a[:i] + (side,) + a[i:], d)
    if rule is WEAK_R:
        (side,) = data
        _need(d is None, "weak-r premise must have an empty succedent")
        return Sequent(a, side)
    if rule is CONTR_L:
        (i,) = data
        _need(0 <= i <= len(a) - 2, "contr-l position out of range")
        _need(a[i] == a[i + 1], "contr-l needs adjacent duplicates")
        return Sequent(a[:i + 1] + a[i + 2:], d)
    if rule is CUT:
        (j,) = data
        a2, d2 = premises[1].antecedent, premises[1].succedent
        _need(d is not None, "cut first premise needs a succedent")
        _need(0 <= j < len(a2) and a2[j] == d, "cut formula must match")
        return Sequent(a2[:j] + a + a2[j + 1:], d2)
    raise InstanceError(f"{rule.label} is a leaf rule")


# ---------------------------------------------------------------------------
# Backward rule instances
# ---------------------------------------------------------------------------

# The longest multiset antecedent whose sub-multiset splits are enumerated.
SUBMULTISET_CAP = 10

def table_instances_backward(table, goal, rules, multiset=False,
                             cut_formulas=(), commit=False):
    """(instances, skipped): the instances of the non-leaf rules in `rules`
    that conclude the table sequent `goal` (see
    `sequents.encode_sequents`), and whether sub-multiset splits were
    skipped.  An instance is (rule, data, conclusion, premises), all table
    sequents and table numbers (see `decode_data`), and a sequence-level
    instance by `derive_conclusion`.

    Instances come one rule at a time, in the order the search tries them:
    the invertible rules or-l, fus-l, and-r, rimp-r, limp-r, rneg-r,
    lneg-r, zero-r and one-l; then or-r1, or-r2, and-l1, and-l2, fus-r,
    rimp-l, limp-l, rneg-l, lneg-l, weak-r, weak-l and contr-l; then exch-l
    and cut, on the formulas in `cut_formulas` only.  Within a rule they
    come by the position of the principal formula, then by split.  With
    `commit`, the list ends after the invertible rules if they have any.

    On a sequence the principal formula sits at each position in turn, the
    conclusion is the goal, and splits are contiguous.  On a multiset
    (`multiset`, the goal's antecedent sorted) each distinct formula is
    moved to the end of the conclusion, or for lneg-l to the front; splits
    deal out sub-multisets, and only while the goal has at most
    SUBMULTISET_CAP formulas; exch-l has no instance.  As each distinct
    formula and each sub-multiset is taken once, no two instances of a
    rule have the same data and premises up to order."""
    op, left, right = table.op, table.left, table.right
    a, d = goal
    n = len(a)
    # the positions of the principal formulas of each connective but var;
    # on a multiset the first copy of each formula
    at = {}
    for k, f in enumerate(a):
        c = op[f]
        if c != "var" and not (multiset and k and a[k - 1] == f):
            if c in at:
                at[c].append(k)
            else:
                at[c] = [k]

    # each rule is looked up in `rules` only when its connective occurs
    out = []
    add = out.append
    o = op[d] if d >= 0 else None
    if "join" in at and OR_L in rules:
        for f, pre, post, concl in _sites(goal, at["join"], multiset):
            add((OR_L, (len(pre),), concl,
                 ((pre + (left[f],) + post, d),
                  (pre + (right[f],) + post, d))))
    if "fus" in at and FUS_L in rules:
        for f, pre, post, concl in _sites(goal, at["fus"], multiset):
            add((FUS_L, (len(pre),), concl,
                 ((pre + (left[f], right[f]) + post, d),)))
    if o == "meet" and AND_R in rules:
        add((AND_R, (), goal, ((a, left[d]), (a, right[d]))))
    elif o == "rimp" and RIMP_R in rules:
        add((RIMP_R, (), goal, (((left[d],) + a, right[d]),)))
    elif o == "limp" and LIMP_R in rules:
        add((LIMP_R, (), goal, ((a + (left[d],), right[d]),)))
    elif o == "rneg" and RNEG_R in rules:
        add((RNEG_R, (), goal, (((left[d],) + a, -1),)))
    elif o == "lneg" and LNEG_R in rules:
        add((LNEG_R, (), goal, ((a + (left[d],), -1),)))
    elif o == "zero" and ZERO_R in rules:
        add((ZERO_R, (), goal, ((a, -1),)))
    if "one" in at and ONE_L in rules:
        for f, pre, post, concl in _sites(goal, at["one"], multiset):
            add((ONE_L, (len(pre),), concl, ((pre + post, d),)))
    if commit and out:
        return out, False

    skipped = False
    split = not multiset or n <= SUBMULTISET_CAP
    if o == "join" and OR_R1 in rules:
        add((OR_R1, (right[d],), goal, ((a, left[d]),)))
    if o == "join" and OR_R2 in rules:
        add((OR_R2, (left[d],), goal, ((a, right[d]),)))
    meets = _sites(goal, at["meet"], multiset) if "meet" in at else ()
    if meets and AND_L1 in rules:
        for f, pre, post, concl in meets:
            add((AND_L1, (len(pre), right[f]), concl,
                 ((pre + (left[f],) + post, d),)))
    if meets and AND_L2 in rules:
        for f, pre, post, concl in meets:
            add((AND_L2, (len(pre), left[f]), concl,
                 ((pre + (right[f],) + post, d),)))
    if o == "fus" and FUS_R in rules:
        if split:
            for sigma, gamma, pi in _segments(a, (0,), range(n + 1), multiset):
                add((FUS_R, (), (gamma + sigma + pi, d),
                     ((gamma, left[d]), (sigma + pi, right[d]))))
        else:
            skipped = True
    for c in ("rimp", "limp"):
        if c not in at:
            continue
        rule = RIMP_L if c == "rimp" else LIMP_L
        if rule not in rules:
            continue
        if not split:
            skipped = True
            continue
        for f, pre, post, _ in _sites(goal, at[c], multiset):
            # gamma proves f's antecedent: it stands just before f (rimp)
            # or just after it (limp) in the conclusion
            ctx, i = pre + post, len(pre)
            if c == "rimp":
                parts = _segments(ctx, range(i + 1), (i,), multiset)
            else:
                parts = _segments(ctx, (i,), range(i, len(ctx) + 1),
                                  multiset)
            for sigma, gamma, pi in parts:
                concl = (sigma + gamma + (f,) + pi if c == "rimp"
                         else sigma + (f,) + gamma + pi)
                add((rule, (len(sigma),), (concl, d),
                     ((gamma, left[f]), (sigma + (right[f],) + pi, d))))
    if d < 0 and "rneg" in at and RNEG_L in rules:
        for f, pre, post, concl in _sites(goal, at["rneg"], multiset):
            if not post:
                add((RNEG_L, (), concl, ((pre, left[f]),)))
    if d < 0 and "lneg" in at and LNEG_L in rules:
        for f, pre, post, concl in _sites(goal, at["lneg"], multiset,
                                          front=True):
            if not pre:
                add((LNEG_L, (), concl, ((post, left[f]),)))
    if d >= 0 and WEAK_R in rules:
        add((WEAK_R, (d,), goal, ((a, -1),)))
    weak, contr = WEAK_L in rules, CONTR_L in rules
    if weak or contr:
        everywhere = _sites(goal, [k for k in range(n) if not (
            multiset and k and a[k - 1] == a[k])], multiset)
    if weak:
        for f, pre, post, concl in everywhere:
            add((WEAK_L, (len(pre), f), concl, ((pre + post, d),)))
    if contr:
        for f, pre, post, concl in everywhere:
            add((CONTR_L, (len(pre),), concl,
                 ((pre + (f, f) + post, d),)))
    if not multiset and n > 1 and EXCH_L in rules:
        for i in range(n - 1):
            add((EXCH_L, (i,), goal,
                 ((a[:i] + (a[i + 1], a[i]) + a[i + 2:], d),)))
    if cut_formulas and CUT in rules:
        if split:
            parts = _segments(a, range(n + 1), range(n + 1), multiset)
            for chi in cut_formulas:
                for sigma, gamma, pi in parts:
                    add((CUT, (len(sigma),), (sigma + gamma + pi, d),
                         ((gamma, chi), (sigma + (chi,) + pi, d))))
        else:
            skipped = True
    return out, skipped


def _sites(goal, ks, multiset, front=False):
    """(f, pre, post, conclusion) for the formula f at each position in ks
    of the goal's antecedent: a rule's premises put its parts between pre
    and post.  On a multiset f moves to the end, or with `front` to the
    front."""
    a, d = goal
    if not multiset:
        return [(a[k], a[:k], a[k + 1:], goal) for k in ks]
    out = []
    for k in ks:
        f, rest = a[k], a[:k] + a[k + 1:]
        out.append((f, (), rest, ((f,) + rest, d)) if front
                   else (f, rest, (), (rest + (f,), d)))
    return out


def _segments(ant, starts, stops, multiset):
    """(sigma, gamma, pi) with gamma taken out of ant: on a sequence
    ant[:i], ant[i:j], ant[j:] for i in starts and then j >= i in stops; on
    a multiset each sub-multiset gamma, sigma the rest and pi empty."""
    if multiset:
        return [(_multiset_minus(ant, x), x, ()) for x in _sub_multisets(ant)]
    return [(ant[:i], ant[i:j], ant[j:])
            for i in starts for j in stops if j >= i]


def _sub_multisets(ant):
    """Distinct sub-multisets of a sorted tuple, as sorted tuples."""
    groups = [(f, len(list(g))) for f, g in itertools.groupby(ant)]
    counts = [range(c + 1) for _, c in groups]
    for pick in itertools.product(*counts):
        chosen = []
        for (f, _), k in zip(groups, pick):
            chosen.extend([f] * k)
        yield tuple(chosen)


def _multiset_minus(whole, part):
    out = list(whole)
    for f in part:
        out.remove(f)
    return tuple(out)


def rule_instances_backward(goal: Sequent, cal: CalculusId):
    """All (rule, data, premises) triples whose instance concludes `goal`,
    cut excepted: the leaf rules first, then `table_instances_backward` on
    the goal as a sequence, decoded.  Every antecedent split, deletion,
    duplication and adjacent transposition is included."""
    table, (encoded,) = encode_sequents((goal,))
    a, d = encoded
    op = table.op
    out = []
    if len(a) == 1 and d == a[0]:
        out.append((AXIOM, (), ()))
    if not a and d >= 0 and op[d] == "one":
        out.append((ONE_R, (), ()))
    if len(a) == 1 and d < 0 and op[a[0]] == "zero":
        out.append((ZERO_L, (), ()))
    instances, _ = table_instances_backward(table, encoded, rules_of(cal))
    return out + [(rule, decode_data(table, rule, data),
                   tuple([decode_sequent(table, p) for p in premises]))
                  for rule, data, _, premises in instances]


def check_leaf(rule: RuleId, conclusion: Sequent, hyps) -> Optional[str]:
    """Validate a 0-premise node; returns an error string or None."""
    a, d = conclusion.antecedent, conclusion.succedent
    if rule is AXIOM:
        if len(a) == 1 and d == a[0]:
            return None
        return "axiom must be phi => phi"
    if rule is ONE_R:
        if a == () and d == ONE:
            return None
        return "one-r must be => 1"
    if rule is ZERO_L:
        if a == (ZERO,) and d is None:
            return None
        return "zero-l must be 0 =>"
    if rule is HYPOTHESIS:
        if conclusion in hyps:
            return None
        return "hypothesis-not-declared"
    return f"{rule.label} is not a leaf rule"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: Optional[str] = None
    path: tuple = ()
    node: Optional[Sequent] = None

    def __bool__(self):
        return self.ok


def check_proof(tree: ProofTree, cal: CalculusId, hyps=frozenset()) -> CheckResult:
    """Accepts iff every node is a correct instance of a rule of cal, or a
    declared hypothesis at a Hypothesis leaf.  Rejects with the first
    offending node (in preorder), its path of premise indices from the
    root, and the reason.

    A proof is walked as the DAG it is: each distinct node object is
    checked once per call, at its first visit in preorder.  A node's
    validity does not depend on where it sits, and ProofTree is frozen, so
    a later visit finds nothing new, and the first offending node of the
    preorder is still the first one met.  Each visit keeps a link to the
    visit of its parent; the path of a rejected node is built from these
    links, on failure only.

    Every node's conclusion is checked against the language, one AND of
    masks per formula (`check_sequent_language`)."""
    hyps = frozenset(hyps)
    allowed = rules_of(cal)
    lang = cal.lang

    def fault(node):
        """The reason the node is not a correct instance, or None."""
        rule = node.rule
        if rule is not HYPOTHESIS and rule not in allowed:
            return f"rule-not-in-calculus: {rule.label}"
        try:
            check_sequent_language(node.conclusion, lang)
        except Exception as exc:
            return f"conclusion outside language: {exc}"
        if rule.arity != len(node.premises):
            return f"arity mismatch for {rule.label}"
        if rule.arity == 0:
            return check_leaf(rule, node.conclusion, hyps)
        try:
            derived = derive_conclusion(
                rule, node.data, tuple([p.conclusion for p in node.premises]))
        except InstanceError as exc:
            return f"instance mismatch: {exc}"
        if derived != node.conclusion:
            return "instance mismatch: conclusion differs"
        return None

    # a visit is (node, the visit of its parent, its premise index); the
    # nodes are alive in the tree, so their ids are not reused in the call
    visited = set()
    stack = [(tree, None, 0)]
    while stack:
        visit = stack.pop()
        node = visit[0]
        if id(node) in visited:
            continue
        visited.add(id(node))
        reason = fault(node)
        if reason:
            path = []
            while visit[1] is not None:
                path.append(visit[2])
                visit = visit[1]
            return CheckResult(False, reason, tuple(path[::-1]),
                               node.conclusion)
        k = len(node.premises)
        for prem in reversed(node.premises):
            k -= 1
            stack.append((prem, visit, k))
    return CheckResult(True)


def decode_data(table, rule: RuleId, data: tuple) -> tuple:
    """The data of a table instance with its side formula decoded."""
    if SIDE not in rule.layout:
        return data
    slot = rule.layout.index(SIDE)
    return data[:slot] + (table.formulas[data[slot]],) + data[slot + 1:]


# ---------------------------------------------------------------------------
# Mirror images of proofs
# ---------------------------------------------------------------------------

def mirror_proof(tree: ProofTree) -> ProofTree:
    """The node-by-node mirror image of a proof; each instance maps to an
    instance of its partner rule, so the result checks in the same calculus
    (with mirrored hypotheses).  A subtree shared by several premises is
    mirrored once."""
    return postorder(tree, _premises, _mirror_node)


def _mirror_node(tree: ProofTree, prems) -> ProofTree:
    """The mirror image of one proof node, given its mirrored premises: an
    instance of the partner rule, each data slot remapped by its layout
    kind.  Fusion reverses, so fus-r also swaps its premises."""
    rule, data = tree.rule, tree.data
    if rule.layout:
        n = len(tree.conclusion.antecedent)
        data = tuple([mirror_formula(x) if kind == SIDE
                      else n - 1 - x if kind == POS
                      else n - 2 - x if kind == PAIR
                      else len(tree.premises[1].conclusion.antecedent) - 1 - x
                      for kind, x in zip(rule.layout, data)])
    if rule is FUS_R:
        prems = (prems[1], prems[0])
    return ProofTree(mirror_sequent(tree.conclusion), rule.mirror, prems, data)


# ---------------------------------------------------------------------------
# Constructive interderivability proofs (algebraization round-trip)
# ---------------------------------------------------------------------------

def _axiom(f) -> ProofTree:
    return ProofTree(Sequent((f,), f), AXIOM)


def _hyp(s: Sequent) -> ProofTree:
    return ProofTree(s, HYPOTHESIS)


def _cut(left: ProofTree, right: ProofTree, j: int) -> ProofTree:
    concl = derive_conclusion(CUT, (j,),
                              (left.conclusion, right.conclusion))
    return ProofTree(concl, CUT, (left, right), (j,))


def _apply(rule, data, *premises) -> ProofTree:
    concl = derive_conclusion(rule, data, tuple(p.conclusion for p in premises))
    return ProofTree(concl, rule, tuple(premises), data)


def lemma10_forward(phi, psi) -> ProofTree:
    """From the hypothesis (phi => psi), the sequent (phi \\/ psi => psi)."""
    return _apply(OR_L, (0,), _hyp(Sequent((phi,), psi)), _axiom(psi))


def lemma10_backward(phi, psi) -> ProofTree:
    """From the hypothesis (phi \\/ psi => psi), the sequent (phi => psi)."""
    up = _apply(OR_R1, (psi,), _axiom(phi))
    return _cut(up, _hyp(Sequent((join(phi, psi),), psi)), 0)


def lemma11(gamma) -> ProofTree:
    """The hypothesis-free derivation of (Gamma => prod Gamma)."""
    gamma = tuple(gamma)
    if not gamma:
        return ProofTree(Sequent((), ONE), ONE_R)
    tree = _axiom(gamma[0])
    for f in gamma[1:]:
        tree = _apply(FUS_R, (), tree, _axiom(f))
    return tree


def _fuse_antecedent(tree: ProofTree) -> ProofTree:
    """From a proof of (Gamma => Delta), a proof of (prod Gamma => Delta) by
    repeated (*=>), or (1=>) when Gamma is empty."""
    m = len(tree.conclusion.antecedent)
    if m == 0:
        return _apply(ONE_L, (0,), tree)
    for _ in range(m - 1):
        tree = _apply(FUS_L, (0,), tree)
    return tree


def _fused_target(s: Sequent):
    """(prod Gamma => target) data for rho-tau(s): target is the succedent
    formula, or 0 for an empty succedent."""
    return fuse(s.antecedent), s.succedent if s.succedent is not None else ZERO


def lemma12_forward_main(s: Sequent) -> ProofTree:
    """From hypothesis s, the first element of rho(tau(s)):
    (prod Gamma \\/ target => target)."""
    product, target = _fused_target(s)
    tree = _fuse_antecedent(_hyp(s))
    if s.succedent is None:
        tree = _apply(ZERO_R, (), tree)
    # now tree proves (prod Gamma => target); widen with Lemma 10
    return _apply(OR_L, (0,), tree, _axiom(target))


def lemma12_forward_aux(s: Sequent) -> ProofTree:
    """The hypothesis-free second element of rho(tau(s)):
    (target => prod Gamma \\/ target)."""
    product, target = _fused_target(s)
    return _apply(OR_R2, (product,), _axiom(target))


def lemma12_backward(s: Sequent) -> ProofTree:
    """From the hypotheses rho(tau(s)), the sequent s itself."""
    product, target = _fused_target(s)
    # (prod Gamma => target) via Lemma 10 against the main hypothesis
    tree = lemma10_backward(product, target)
    # cut with (Gamma => prod Gamma)
    tree = _cut(lemma11(s.antecedent), tree, 0)
    if s.succedent is None:
        # (Gamma => 0) and (0 =>) give (Gamma =>)
        tree = _cut(tree, ProofTree(Sequent((ZERO,), None), ZERO_L), 0)
    return tree


def lemma12_roundtrip(s: Sequent):
    """(forward trees proving each element of rho(tau(s)) from s,
    backward tree proving s from rho(tau(s)))."""
    forward = [lemma12_forward_main(s)]
    aux = lemma12_forward_aux(s)
    if aux.conclusion != forward[0].conclusion:
        forward.append(aux)
    return forward, lemma12_backward(s)


# ---------------------------------------------------------------------------
# S-expression serialization
# ---------------------------------------------------------------------------

def format_proof_sexp(tree: ProofTree) -> str:
    """`(rule "sequent" premise*)`, premises in order, each sequent as
    `format_sequent` gives it.  The walk is iterative, so a proof of any
    height prints.  The text is that of the proof as a tree, a shared
    subtree printed at each place it sits, but each distinct node object's
    `(rule "sequent"` is rendered once per call, and so is each distinct
    formula."""
    texts, lines = {}, {}

    def text(f):
        seen = texts.get(f)
        if seen is None:
            seen = texts[f] = format_formula(f)
        return seen

    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
            continue
        line = lines.get(id(node))
        if line is None:
            a, d = node.conclusion.antecedent, node.conclusion.succedent
            left = ", ".join([text(f) for f in a])
            right = text(d) if d is not None else ""
            line = lines[id(node)] = (f'({node.rule.label} "'
                                      + f"{left} => {right}".strip() + '"')
        out.append(line)
        stack.append(")")
        for premise in reversed(node.premises):
            stack.append(premise)
            stack.append(" ")
    return "".join(out)


_SEXP_TOKEN = re.compile(r'\(|\)|"[^"]*"|[a-z0-9-]+')


def parse_proof_sexp(text, lang=FULL) -> ProofTree:
    """Parse `(rule "sequent" premise*)`, re-inferring the instance data.
    The parse is iterative: each open node is a frame of (rule, conclusion,
    premises parsed so far), so a proof of any height reads back."""
    tokens = _SEXP_TOKEN.findall(text)
    pos = 0
    frames = []
    while True:
        if pos < len(tokens) and tokens[pos] == "(":
            label, quoted = (tokens[pos + 1:pos + 3] + ["", ""])[:2]
            try:
                rule = RuleId(label)
            except ValueError:
                raise ValueError(f"unknown rule {label!r}") from None
            if not quoted.startswith('"'):
                raise ValueError("expected a quoted sequent")
            concl = parse_sequent(quoted[1:-1], lang)
            frames.append((rule, concl, []))
            pos += 3
            continue
        if not frames:
            raise ValueError("expected '('")
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError("expected ')'")
        pos += 1
        rule, concl, premises = frames.pop()
        data = _infer_data(rule, concl, tuple(p.conclusion for p in premises))
        node = ProofTree(concl, rule, tuple(premises), data)
        if not frames:
            break
        frames[-1][2].append(node)
    if pos != len(tokens):
        raise ValueError("trailing input after proof")
    return node


def _infer_data(rule, conclusion, premise_seqs):
    """The data of the first instance of `rule` that `table_instances_backward`
    gives for `conclusion` with exactly these premises; the formula of a cut
    is its first premise's succedent."""
    if rule.arity == 0:
        return ()
    if len(premise_seqs) == rule.arity:
        table, (goal, *premises) = encode_sequents(
            (conclusion,) + premise_seqs)
        cuts = (premises[0][1],) if rule is CUT else ()
        instances, _ = table_instances_backward(table, goal, (rule,),
                                                cut_formulas=cuts)
        for _, data, _, found in instances:
            if list(found) == premises:
                return decode_data(table, rule, data)
    raise ValueError(f"no {rule.label} instance matches the given premises")
