"""The Gentzen-algebra bridge: equation-side consequence, countermodel
search, filters in slice form, Leibniz congruences, and the
filter-congruence correspondence.

A filter on a finite algebra is represented by its two slices: s1, the
(1,1)-slice (a binary relation), and s0, the (1,0)-slice (a subset).  A
tuple (x0..xk, delta) belongs to the represented filter iff the collapsed
pair (x0*...*xk, delta) is in a slice; closure under the sequent rules then
reduces to element-quantified conditions.  `_filter_rules` compiles them
once per algebra into Horn clauses with at most two premises over the n*n+n
slice members, held as int bitmasks, and `_close` closes a set under them
with a semi-naive worklist.  A rule applied inside a context u, v for every
succedent delta is compiled from the distinct tuples of element values it
relates over all contexts, so contexts with equal values add no clause
twice.  `is_filter`, `filter_closure` and `all_filters` all use these
clauses.  The independent oracle that re-checks closure by honest tuple
expansion, `filter_closed_expanded`, is test code, in
`tests/filter_oracle.py`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .sequents import Sequent, tau_equation
from .algebra import (FAMILY_OPS, UNARY_OPS, AlgebraError, FiniteAlgebra,
                      VarietyId, _run_blocks, assignment_at,
                      compile_equations, enumerate_algebras, failures, holds,
                      language_of_family, variety_program)


@dataclass(frozen=True)
class FilterSlices:
    s1: frozenset  # pairs (x, y)
    s0: frozenset  # elements x

    def __le__(self, other):
        return self.s1 <= other.s1 and self.s0 <= other.s0


def canonical_filter(a: FiniteAlgebra) -> FilterSlices:
    """s1 = the order relation, s0 = the down-set of 0."""
    s1 = frozenset((x, y) for x in range(a.n) for y in range(a.n)
                   if a.leq(x, y))
    s0 = frozenset(x for x in range(a.n) if a.leq(x, a.zero))
    return FilterSlices(s1, s0)


def _filter_rules(a: FiniteAlgebra, sigma, lang):
    """Compile the rules, collapsed to slices, into Horn clauses.

    The conditions quantify sequence metavariables by their products, which
    range over the whole carrier (plus 1 for the empty sequence), so the
    clauses are exact for the represented filters.  Atom p*n+y is the s1
    pair (p, y) and atom n*n+p the s0 element p.  Returns the int bitmasks
    (facts, unary, binary): unary[i] holds the conclusions of the clauses
    with the single premise i, and binary[i] pairs (1 << j, conclusions) for
    the clauses with premises i and j, stored under both premises.

    The rules that act inside a context u, v for every succedent delta
    are first collected as the distinct tuples of element values they
    relate over all contexts; only those are lifted over delta to atoms.
    """
    n = a.n
    ft, jt = a.ops["fus"], a.ops["join"]
    # at[p][d]: the atom of (p, delta), delta = d for d < n, None for d = n
    at = [[p * n + d for d in range(n)] + [n * n + p] for p in range(n)]
    unary = [0] * (n * n + n)
    pairs = {}  # (i, k) with i < k -> conclusions

    def one(i, j):
        unary[i] |= 1 << j

    def two(i, k, j):
        if i == k:
            unary[i] |= 1 << j
        else:
            key = (i, k) if i < k else (k, i)
            pairs[key] = pairs.get(key, 0) | 1 << j

    def in_context(lefts):  # w * v for each w in lefts and every v
        return [wv for w in lefts for wv in ft[w]]

    # ctx[x]: u*x*v over the contexts (u, v); ctx2[x][y]: u*x*y*v
    ctx = [in_context([ft[u][x] for u in range(n)]) for x in range(n)]
    ctx2 = [[in_context([ft[ft[u][x]][y] for u in range(n)])
             for y in range(n)] for x in range(n)]
    # Value tuples of the rules applied in context, for every delta:
    lifted = set()  # (p, q): the clause (p, delta) -> (q, delta)
    joins = set()  # (p, q, r): (p, delta), (q, delta) -> (r, delta)
    guarded = {}  # atom c -> {(p, q)}: c, (p, delta) -> (q, delta)

    # axioms
    facts = 1 << at[a.one][a.one] | 1 << at[a.zero][n]
    for x in range(n):
        facts |= 1 << at[x][x]

    for x in range(n):
        for y in range(n):
            joins.update(zip(ctx[x], ctx[y], ctx[jt[x][y]]))  # or-l
            guarded.setdefault(at[y][x], set()).update(
                zip(ctx[x], ctx[y]))  # cut
            for z in range(n):
                one(at[x][y], at[x][jt[y][z]])  # or-r
                one(at[x][y], at[x][jt[z][y]])
                for w in range(n):  # fus-r
                    two(at[x][y], at[z][w], at[ft[x][z]][ft[y][w]])

    if "meet" in lang:
        mt = a.ops["meet"]
        for x in range(n):
            for m in {mt[x][y] for y in range(n)} | \
                    {mt[y][x] for y in range(n)}:
                lifted.update(zip(ctx[x], ctx[m]))  # and-l
            for y in range(n):
                for z in range(n):
                    two(at[x][y], at[x][z], at[x][mt[y][z]])  # and-r

    if "rimp" in lang:
        rt, lt = a.ops["rimp"], a.ops["limp"]
        for g in range(n):
            for x in range(n):
                premises = guarded.setdefault(at[g][x], set())
                for y in range(n):
                    one(at[ft[x][g]][y], at[g][rt[x][y]])  # rimp-r
                    one(at[ft[g][x]][y], at[g][lt[x][y]])  # limp-r
                    premises.update(zip(ctx[y], ctx2[g][rt[x][y]]))  # rimp-l
                    premises.update(zip(ctx[y], ctx2[lt[x][y]][g]))  # limp-l

    if "rneg" in lang:
        rn, ln = a.ops["rneg"], a.ops["lneg"]
        for g in range(n):
            for x in range(n):  # rneg-l, lneg-l, rneg-r, lneg-r
                one(at[g][x], at[ft[g][rn[x]]][n])
                one(at[g][x], at[ft[ln[x]][g]][n])
                one(at[ft[x][g]][n], at[g][rn[x]])
                one(at[ft[g][x]][n], at[g][ln[x]])

    # (=>0) and the structural rules
    for g in range(n):
        one(at[g][n], at[g][a.zero])
        if "wr" in sigma:
            for x in range(n):
                one(at[g][n], at[g][x])
    empty = in_context(range(n))  # u*v
    for x in range(n):
        if "wl" in sigma:
            lifted.update(zip(empty, ctx[x]))
        if "c" in sigma:
            lifted.update(zip(ctx2[x][x], ctx[x]))
        if "e" in sigma:
            for y in range(n):
                lifted.update(zip(ctx2[x][y], ctx2[y][x]))

    for p, q in lifted:
        for i, j in zip(at[p], at[q]):
            one(i, j)
    for p, q, r in joins:
        for i, k, j in zip(at[p], at[q], at[r]):
            two(i, k, j)
    for c, group in guarded.items():
        for p, q in group:
            for i, j in zip(at[p], at[q]):
                two(c, i, j)
    binary = [[] for _ in unary]
    for (i, k), conclusions in pairs.items():
        binary[i].append((1 << k, conclusions))
        binary[k].append((1 << i, conclusions))
    return facts, unary, binary


def _close(rules, have, new):
    """The least closed superset of have | new, given that have is closed:
    each atom added fires its unary clauses and joins once with the atoms
    present (semi-naive forward chaining)."""
    _, unary, binary = rules
    new &= ~have
    have |= new
    while new:
        low = new & -new
        new ^= low
        i = low.bit_length() - 1
        derived = unary[i]
        for other, conclusions in binary[i]:
            if have & other:
                derived |= conclusions
        derived &= ~have
        have |= derived
        new |= derived
    return have


def _to_mask(n, slices: FilterSlices) -> int:
    mask = 0
    for p, y in slices.s1:
        mask |= 1 << (p * n + y)
    for p in slices.s0:
        mask |= 1 << (n * n + p)
    return mask


def _to_slices(n, mask: int) -> FilterSlices:
    return FilterSlices(
        frozenset(divmod(i, n) for i in range(n * n) if mask >> i & 1),
        frozenset(p for p in range(n) if mask >> (n * n + p) & 1))


def is_filter(a: FiniteAlgebra, slices: FilterSlices, sigma, lang) -> bool:
    rules = _filter_rules(a, sigma, lang)
    mask = _to_mask(a.n, slices)
    return _close(rules, 0, rules[0] | mask) == mask


def filter_closure(a: FiniteAlgebra, slices: FilterSlices, sigma, lang) -> FilterSlices:
    rules = _filter_rules(a, sigma, lang)
    return _to_slices(a.n, _close(rules, 0, rules[0] | _to_mask(a.n, slices)))


def all_filters(a: FiniteAlgebra, sigma, lang):
    """Every filter in slice form, generated bottom-up from the least one:
    each filter found is extended by one atom and closed again."""
    rules = _filter_rules(a, sigma, lang)
    bottom = _close(rules, 0, rules[0])
    found = {bottom}
    frontier = [bottom]
    atoms = [1 << i for i in range(a.n * a.n + a.n)]
    while frontier:
        current = frontier.pop()
        for atom in atoms:
            if not current & atom:
                closed = _close(rules, current, atom)
                if closed not in found:
                    found.add(closed)
                    frontier.append(closed)
    filters = [_to_slices(a.n, mask) for mask in found]
    return sorted(filters, key=lambda f: (len(f.s1), len(f.s0),
                                          sorted(f.s1), sorted(f.s0)))


# ---------------------------------------------------------------------------
# Countermodels and semantic consequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Found:
    algebra: FiniteAlgebra
    assignment: dict

    def __bool__(self):
        return True


@dataclass(frozen=True)
class NotFound:
    max_size: int

    def __bool__(self):
        return False


def _first_countermodel(equations, v: VarietyId, max_size: int):
    """The first (algebra, assignment), in enumeration and product order,
    under which every equation but the last holds and the last fails, or
    None.

    The equations are compiled once, and each size's members are run
    through the program in one scan (`failures`): members come in
    pool order (join table, then unit, fusion, 0), so neighbours share
    most tables, and a step is evaluated again only when a table it reads
    changed.  The one assignment returned is re-checked with `holds`."""
    program = compile_equations(equations)
    *premises, goal = equations
    for size in range(1, max_size + 1):
        found = next(failures(_enumerated(v, size), program), None)
        if found is not None:
            a, index = found
            assignment = assignment_at(a, program, index)
            if holds(a, goal, assignment) or \
                    not all(holds(a, p, assignment) for p in premises):
                raise RuntimeError("compiled evaluation disagrees with "
                                   "eval_term")
            return a, {k: a.elements[i] for k, i in assignment.items()}
    return None


def countermodel(s: Sequent, v: VarietyId, max_size: int, hyps=()):
    """Search the enumerated variety members for an assignment under which
    tau of every hypothesis holds and tau(s) fails: without hypotheses a
    failure of tau(s), with them a failure of the quasi-equation
    tau[hyps] => tau(s)."""
    equations = [tau_equation(h) for h in sorted(hyps, key=str)]
    found = _first_countermodel(equations + [tau_equation(s)], v, max_size)
    return NotFound(max_size) if found is None else Found(*found)


@functools.lru_cache(maxsize=64)
def _enumerated(v: VarietyId, size: int):
    return tuple(enumerate_algebras(v, size))


# the ANF coefficients (c, cx, cy, cxy) of the two-valued join and meet
_OR, _AND = (0, 1, 1, 1), (0, 0, 0, 1)


@dataclass(frozen=True)
class TwoElementTables:
    """The two-element members of a variety as bit tables over w
    variables.  Member m owns the 2 ** w bits from m * 2 ** w on,
    one per assignment, and a bit is set where a value is that member's
    top.  `repeat` has the lowest bit of each block, `zero` and `one` the
    blocks where the constant is the top, and `joins` the blocks whose
    fusion is join (the others' is meet).  `coefficients[op]` is (c, cx,
    cy, cxy): in every block, op(x, y) = c ^ x & cx ^ y & cy ^ x & y & cxy
    (cy = cxy = 0 for a negation)."""
    members: tuple
    full: int
    repeat: int
    zero: int
    one: int
    joins: int
    coefficients: dict


# a run uses a few varieties, each at up to nine widths (0 to 8 variables)
@functools.lru_cache(maxsize=256)
def two_element_tables(v: VarietyId, width: int) -> TwoElementTables:
    """The members of `v` on two elements, `enumerate_algebras(v, 2)`, as
    bit tables (see `TwoElementTables`).  Raises AlgebraError if a
    member's join is not or, its meet not and, or its fusion neither:
    in a two-element monoid whose 1 is the top x*y <= x*1 = x, so
    fusion is meet, and whose 1 is the bottom, fusion is join."""
    members = _enumerated(v, 2)
    block = (1 << (1 << width)) - 1
    consts = {"zero": 0, "one": 0}
    coefficients = {}
    for m, a in enumerate(members):
        mask = block << (m << width)
        top = a.top()
        pair = (1 - top, top)   # the elements, bottom first
        for name in consts:
            if getattr(a, name) == top:
                consts[name] |= mask
        for op, table in a.ops.items():
            # the value at (x, y), a negation's at x
            f = [[(table[x] if op in UNARY_OPS else table[x][y]) == top
                  for y in pair] for x in pair]
            anf = (f[0][0], f[0][0] ^ f[1][0], f[0][0] ^ f[0][1],
                   f[0][0] ^ f[0][1] ^ f[1][0] ^ f[1][1])
            if anf not in {"join": (_OR,), "meet": (_AND,),
                           "fus": (_AND, _OR)}.get(op, (anf,)):
                raise AlgebraError(f"{a.name} in {v}: {op} is not the "
                                   "two-valued join or meet")
            masks = coefficients.setdefault(op, [0, 0, 0, 0])
            for k, bit in enumerate(anf):
                if bit:
                    masks[k] |= mask
    full = (1 << (len(members) << width)) - 1
    coefficients = {op: tuple(masks) for op, masks in coefficients.items()}
    # fusion is join exactly where its coefficient of x is set
    return TwoElementTables(members, full, full // block,
                            consts["zero"], consts["one"],
                            coefficients["fus"][1], coefficients)


# ---------------------------------------------------------------------------
# Congruences and the Leibniz operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    blocks: tuple  # tuple of sorted tuples, sorted by least member

    def pairs(self):
        return frozenset((x, y) for block in self.blocks
                         for x in block for y in block)


@dataclass(frozen=True)
class NotACongruence:
    operation: str
    witness: tuple


def partition_from_pairs(n, pairs) -> Congruence:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return Congruence(tuple(tuple(sorted(b))
                            for _, b in sorted(blocks.items())))


def _compatible(a: FiniteAlgebra, pairs) -> Optional[tuple]:
    """None when pairs (an equivalence) respects every operation, else a
    witness (op, (x, y, c)).  A pair (x, x) maps into the diagonal, which
    an equivalence contains, so only the pairs with x != y are checked."""
    moved = [(x, y) for (x, y) in pairs if x != y]
    for op, table in a.ops.items():
        if op in ("rneg", "lneg"):
            for (x, y) in moved:
                if (table[x], table[y]) not in pairs:
                    return (op, (x, y))
        else:
            for (x, y) in moved:
                for c in range(a.n):
                    if (table[x][c], table[y][c]) not in pairs:
                        return (op, (x, y, c))
                    if (table[c][x], table[c][y]) not in pairs:
                        return (op, (x, y, c))
    return None


def leibniz_congruence(a: FiniteAlgebra, r: FilterSlices):
    """Theta_R = {(x,y) : (x,y) and (y,x) both in the (1,1)-slice}; for
    cut-closed filters this is the Leibniz congruence."""
    theta = frozenset((x, y) for (x, y) in r.s1 if (y, x) in r.s1)
    for x in range(a.n):
        if (x, x) not in theta:
            return NotACongruence("reflexivity", (x,))
    for (x, y) in theta:
        for z in range(a.n):
            if (y, z) in theta and (x, z) not in theta:
                return NotACongruence("transitivity", (x, y, z))
    witness = _compatible(a, theta)
    if witness is not None:
        return NotACongruence(*witness)
    return partition_from_pairs(a.n, theta)


@functools.lru_cache(maxsize=8)
def all_partitions(n):
    """All set partitions of range(n), via restricted growth strings, as a
    tuple kept per n."""
    def rec(i, assignment, used):
        if i == n:
            blocks = {}
            for x, b in enumerate(assignment):
                blocks.setdefault(b, []).append(x)
            yield Congruence(tuple(tuple(b) for _, b in sorted(blocks.items())))
            return
        for b in range(used + 1):
            yield from rec(i + 1, assignment + [b], max(used, b + 1))
    return tuple(rec(0, [], 0))


def all_congruences(a: FiniteAlgebra):
    out = []
    for part in all_partitions(a.n):
        if _compatible(a, part.pairs()) is None:
            out.append(part)
    return out


def k_congruences(a: FiniteAlgebra, v: VarietyId):
    """The congruences theta of a with a/theta in v, from one run of the
    cached `variety_program(v)` on a itself.

    The quotient map is a surjective homomorphism, so a/theta satisfies
    s = t iff s(x) theta t(x) at every assignment x in a.  The run collects
    the value pairs at which the two sides of an equation differ, and a
    congruence qualifies iff each pair lies in one of its blocks; no
    quotient is built.  A member of v has no such pairs, so all its
    congruences qualify: a variety is closed under homomorphic images.
    """
    if not FAMILY_OPS[v.family].issubset(a.ops):
        return []
    program = variety_program(v)
    apart = set()
    for _, _, cols in _run_blocks((a,), program):
        for lhs, rhs in program.sides:
            if cols[lhs] != cols[rhs]:
                apart.update((x, y) for x, y in zip(cols[lhs], cols[rhs])
                             if x != y)
    return [c for c in all_congruences(a) if apart <= c.pairs()]


@dataclass(frozen=True)
class CorrespondenceReport:
    ok: bool
    n_filters: int
    n_congruences: int
    failures: tuple = ()

    def __bool__(self):
        return self.ok


def filter_congruence_correspondence(a: FiniteAlgebra, v: VarietyId) -> CorrespondenceReport:
    """Enumerate the filters and the variety congruences and verify that the
    Leibniz operator is an inclusion-preserving bijection between them."""
    if a.n > 4:
        raise ValueError("correspondence check is capped at 4 elements")
    lang = language_of_family(v.family)
    filters = all_filters(a, v.sigma, lang)
    congs = k_congruences(a, v)
    failures = []
    leibniz = []  # (filter, the pair set of its Leibniz congruence)
    images = set()
    for f in filters:
        omega = leibniz_congruence(a, f)
        if isinstance(omega, NotACongruence):
            failures.append(f"Leibniz of a filter is not a congruence: {omega}")
        else:
            leibniz.append((f, omega.pairs()))
            images.add(omega.blocks)
    if len(images) != len(leibniz):
        failures.append("Leibniz operator is not injective on filters")
    if images != set(c.blocks for c in congs):
        failures.append("Leibniz images differ from the variety congruences")
    if any((f1 <= f2) != (o1 <= o2)
           for f1, o1 in leibniz for f2, o2 in leibniz):
        failures.append("Leibniz operator is not an order isomorphism")
    return CorrespondenceReport(not failures, len(filters), len(congs),
                                tuple(failures))
