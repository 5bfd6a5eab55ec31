"""The Gentzen-algebra bridge: equation-side consequence, countermodel
search, filters in slice form, Leibniz congruences, and the
filter-congruence correspondence.

A filter on a finite algebra is represented by its two slices: s1, the
(1,1)-slice (a binary relation), and s0, the (1,0)-slice (a subset).  A
tuple (x0..xk, delta) belongs to the represented filter iff the collapsed
pair (x0*...*xk, delta) is in a slice; closure under the sequent rules then
reduces to element-quantified conditions.  `_filter_rules` compiles them
once per algebra into Horn clauses with at most two premises over the n*n+n
slice members, laid out by rows (row p: the s1 pairs (p, y), then the s0
element p) in int bitmasks, and `_close` closes a set under them with a
semi-naive worklist.  A rule applied inside a context u, v for every
succedent delta is stored once per distinct tuple of element values it
relates, by rows, and lifted over delta at closure time by shifts.
`is_filter`, `filter_closure` and `all_filters` all use these clauses.  The
independent oracle that re-checks closure by honest tuple expansion,
`filter_closed_expanded`, is test code, in `tests/filter_oracle.py`.
Relations on the carrier, the Leibniz relation and the partitions of
`all_partitions`, are row masks too: bit y of rows[x] is the pair (x, y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .sequents import Sequent, tau_equation
from .algebra import (FAMILY_OPS, UNARY_OPS, AlgebraError, FiniteAlgebra,
                      VarietyId, _runs, assignment_at,
                      compile_equations, enumerate_algebras, failures, holds,
                      language_of_family, pool_masks, variety_program)


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
    clauses are exact for the represented filters.  Atom p*(n+1)+y is the
    s1 pair (p, y), and p*(n+1)+n, the last of row p, the s0 element p.
    Returns (facts, row, atoms): the axioms, the mask of row 0, and for
    each atom i = (p, d), atoms[i] = (unary, binary, d, rows, lifts).
    unary holds the conclusions of the clauses with the single premise i,
    binary pairs (1 << k, conclusions) for those with premises i and k.
    The rules that act inside a context u, v for every delta (or-l, cut,
    and-l, rimp-l, limp-l, the structural rules) are collected as the
    distinct tuples of element values they relate over all contexts, and
    stored once, by rows, with row r held as 1 << r*(n+1):

    - rows, shared by row p, has one (guards, partners, spread) per
      conclusion row q: the clauses c, (p, delta) -> (q, delta) for each
      atom c in guards, and (p, delta), (r, delta) -> (q, delta) for each
      row r in partners (r = p for one premise); `_close` shifts by d.
    - lifts pairs (r*(n+1), spread) for the clauses i, (r, delta) ->
      (q, delta), every q in spread: `_close` copies row r into row q.
    """
    n = a.n
    width = n + 1
    ft, jt = a.ops["fus"], a.ops["join"]
    # at[p][d]: the atom of (p, delta), delta = d for d < n, None for d = n
    at = [[p * width + d for d in range(width)] for p in range(n)]
    spread = [1 << p * width for p in range(n)]
    unary = [0] * (n * width)

    def one(i, j):
        unary[i] |= 1 << j

    def in_context(lefts):  # w * v for each w in lefts and every v
        return [wv for w in lefts for wv in ft[w]]

    # ctx[x]: u*x*v over the contexts (u, v); ctx2[x][y]: u*x*y*v
    ctx = [in_context([ft[u][x] for u in range(n)]) for x in range(n)]
    ctx2 = [[in_context([ft[ft[u][x]][y] for u in range(n)])
             for y in range(n)] for x in range(n)]
    # Value tuples of the rules applied in context, for every delta:
    joins = set()  # (p, r, q): (p, delta), (r, delta) -> (q, delta)
    guarded = {}  # atom c -> {(p, q)}: c, (p, delta) -> (q, delta)

    # axioms
    facts = 1 << at[a.one][a.one] | 1 << at[a.zero][n]
    for x in range(n):
        facts |= 1 << at[x][x]

    # fus-r: (x, y), (z, w) -> (x*z, y*w) on every two s1 atoms i <= k
    cells = [(x, y, at[x][y]) for x in range(n) for y in range(n)]
    pairs = {(i, k): 1 << at[ft[x][z]][ft[y][w]] | 1 << at[ft[z][x]][ft[w][y]]
             for x, y, i in cells for z, w, k in cells if i <= k}
    for y in range(n):
        # or-r: (x, y) -> (x, y v z), (x, z v y), the OR of the powers
        up = sum({1 << v for z in range(n) for v in (jt[y][z], jt[z][y])})
        for x in range(n):
            unary[at[x][y]] |= up << x * width
            joins.update(zip(ctx[x], ctx[y], ctx[jt[x][y]]))  # or-l
            guarded.setdefault(at[y][x], set()).update(
                zip(ctx[x], ctx[y]))  # cut

    if "meet" in lang:
        mt = a.ops["meet"]
        for x in range(n):
            for m in {mt[x][y] for y in range(n)} | \
                    {mt[y][x] for y in range(n)}:
                joins.update(zip(ctx[x], ctx[x], ctx[m]))  # and-l
        for y in range(n):  # and-r: (x, y), (x, z) -> (x, y ^ z)
            for z in range(y, n):
                down = 1 << mt[y][z] | 1 << mt[z][y]
                for x in range(n):
                    pairs[at[x][y], at[x][z]] |= down << x * width

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
            joins.update(zip(empty, empty, ctx[x]))
        if "c" in sigma:
            joins.update(zip(ctx2[x][x], ctx2[x][x], ctx[x]))
        if "e" in sigma:
            for y in range(n):
                joins.update(zip(ctx2[x][y], ctx2[x][y], ctx2[y][x]))

    guards = [[0] * n for _ in range(n)]
    partners = [[0] * n for _ in range(n)]
    for p, r, q in joins:  # with (r, p, q) too: join is commutative
        partners[p][q] |= spread[r]
    lifts = [[] for _ in unary]
    for c, group in guarded.items():
        by_row = [0] * n
        for p, q in group:
            by_row[p] |= spread[q]
            guards[p][q] |= 1 << c
        lifts[c] = [(p * width, r) for p, r in enumerate(by_row) if r]
    rows = [[(g, j, spread[q]) for q, (g, j) in enumerate(zip(gs, js))
             if g or j] for gs, js in zip(guards, partners)]
    binary = [[] for _ in unary]
    for (i, k), conclusions in pairs.items():
        if i == k:
            unary[i] |= conclusions
        else:
            binary[i].append((1 << k, conclusions))
            binary[k].append((1 << i, conclusions))
    return facts, (1 << width) - 1, [
        (unary[i], binary[i], i - p * width, rows[p], lifts[i])
        for p in range(n) for i in at[p]]


def _close(rules, have, new):
    """The least closed superset of have | new, given that have is closed:
    each atom added fires its unary clauses and joins once with the atoms
    present (semi-naive forward chaining).  The clauses of row p reach its
    atom (p, d) shifted by d, and an atom that guards clauses of other rows
    copies those rows whole (see `_filter_rules`)."""
    _, row, atoms = rules
    new &= ~have
    have |= new
    while new:
        low = new & -new
        new ^= low
        derived, binary, d, rows, lifts = atoms[low.bit_length() - 1]
        for other, conclusions in binary:
            if have & other:
                derived |= conclusions
        shifted = have >> d
        for guards, partners, spread in rows:
            if have & guards or shifted & partners:
                derived |= spread << d
        for start, spread in lifts:
            derived |= (have >> start & row) * spread
        derived &= ~have
        have |= derived
        new |= derived
    return have


def _to_mask(n, slices: FilterSlices) -> int:
    pairs = [(p, y) for p, y in slices.s1] + [(p, n) for p in slices.s0]
    return sum(1 << (p * (n + 1) + y) for p, y in pairs)


def _to_slices(n, mask: int) -> FilterSlices:
    members = [divmod(i, n + 1) for i in range(n * n + n) if mask >> i & 1]
    return FilterSlices(frozenset(m for m in members if m[1] < n),
                        frozenset(p for p, y in members if y == n))


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
    through the program in one bit-sliced scan (`failures`), each step
    once on all of them, with the operation masks of the cached pool
    (`pool_masks`).  The one assignment returned is re-checked with
    `holds`."""
    program = compile_equations(equations)
    *premises, goal = equations
    # a one-element algebra satisfies every equation, so the scan
    # starts at size 2
    for size in range(2, max_size + 1):
        pool = _enumerated(v, size)
        found = next(failures(pool, program, pool_masks(pool)), None)
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


def _congruence(rows) -> Congruence:
    """The partition whose block of x is the row mask rows[x]."""
    n = len(rows)
    return Congruence(tuple(tuple(y for y in range(n) if row >> y & 1)
                            for x, row in enumerate(rows)
                            if row & -row == 1 << x))


def _incompatible(a: FiniteAlgebra, rows) -> Optional[tuple]:
    """None when the equivalence with row masks rows respects every
    operation, else the first witness (op, (x, y)) or (op, (x, y, c)) of
    the first failing op.  (x, x) maps into the diagonal, and (y, x) fails
    where (x, y) does, so only the pairs x < y are checked."""
    n = a.n
    moved = [(x, y) for x in range(n) for y in range(x + 1, n)
             if rows[x] >> y & 1]
    for op, table in a.ops.items():
        if op in UNARY_OPS:
            for x, y in moved:
                if not rows[table[x]] >> table[y] & 1:
                    return op, (x, y)
        else:
            for x, y in moved:
                tx, ty = table[x], table[y]
                for c, tc in enumerate(table):
                    if not (rows[tx[c]] >> ty[c] & rows[tc[x]] >> tc[y] & 1):
                        return op, (x, y, c)
    return None


def leibniz_congruence(a: FiniteAlgebra, r: FilterSlices):
    """Theta_R = {(x,y) : (x,y) and (y,x) both in the (1,1)-slice}; for
    cut-closed filters this is the Leibniz congruence.  Theta is held as
    row masks, and each check names its first failure in element order."""
    n = a.n
    rows, columns = [0] * n, [0] * n
    for x, y in r.s1:
        rows[x] |= 1 << y
        columns[y] |= 1 << x
    theta = [row & column for row, column in zip(rows, columns)]
    for x in range(n):
        if not theta[x] >> x & 1:
            return NotACongruence("reflexivity", (x,))
    for x, row in enumerate(theta):
        for y in range(n):
            beyond = theta[y] & ~row if row >> y & 1 else 0
            if beyond:
                return NotACongruence("transitivity",
                                      (x, y, (beyond & -beyond).bit_length() - 1))
    witness = _incompatible(a, theta)
    if witness is not None:
        return NotACongruence(*witness)
    return _congruence(theta)


@functools.lru_cache(maxsize=8)
def all_partitions(n):
    """All set partitions of range(n), in the order of their restricted
    growth strings, each as (Congruence, rows) with rows[x] the mask of
    the block of x; a tuple kept per n."""
    found, growth = [], [0] * n  # growth[x]: the block of x
    while True:
        blocks = [0] * (max(growth, default=0) + 1)
        for x, b in enumerate(growth):
            blocks[b] |= 1 << x
        rows = tuple(blocks[b] for b in growth)
        found.append((_congruence(rows), rows))
        # raise the last entry that may grow, and zero those after it
        i = max((i for i in range(1, n) if growth[i] <= max(growth[:i])),
                default=0)
        if not i:
            return tuple(found)
        growth[i:] = [growth[i] + 1] + [0] * (n - 1 - i)


def all_congruences(a: FiniteAlgebra):
    return [c for c, rows in all_partitions(a.n)
            if _incompatible(a, rows) is None]


def k_congruences(a: FiniteAlgebra, v: VarietyId):
    """The congruences theta of a with a/theta in v, from one run of the
    cached `variety_program(v)` on a itself.

    The quotient map is a surjective homomorphism, so a/theta satisfies
    s = t iff s(x) theta t(x) at every assignment x in a.  The run collects
    the value pairs (x, y), x != y, that the two sides of an equation take
    at some assignment (lhs mask x and rhs mask y share a bit), as a row
    mask apart[x] per x, and a partition qualifies iff each pair lies in
    one of its blocks and it is a congruence; no quotient is built.  A
    member of v has no such pairs, so all its congruences qualify: a
    variety is closed under homomorphic images.
    """
    if not FAMILY_OPS[v.family].issubset(a.ops):
        return []
    program = variety_program(v)
    pairs = [(x, y) for x in range(a.n) for y in range(a.n) if x != y]
    apart = [0] * a.n
    for _, _, _, slots in _runs((a,), program, {}):
        for lhs, rhs in program.sides:
            left, right = slots[lhs], slots[rhs]
            if left != right:
                for x, y in pairs:
                    if left[x] & right[y]:
                        apart[x] |= 1 << y
    return [c for c, rows in all_partitions(a.n)
            if not any(d & ~row for d, row in zip(apart, rows))
            and _incompatible(a, rows) is None]


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
    Leibniz operator is an inclusion-preserving bijection between them.
    Raises AlgebraError, naming them, if a lacks operations of v's family."""
    missing = sorted(FAMILY_OPS[v.family] - a.ops.keys())
    if missing:
        raise AlgebraError(f"{a.name} lacks the operations of {v.family}: "
                           + ", ".join(missing))
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
