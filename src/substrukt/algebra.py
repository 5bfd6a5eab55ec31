"""Finite pointed ordered algebras: variety membership via equational bases,
residuals and pseudocomplements derived from the order, opposite algebras,
and enumeration up to isomorphism.

Elements are indices 0..n-1 with cosmetic names; the order is always derived
from the join table (a <= b iff a v b = b), never stored independently.

Equations are checked by compiled programs (`compile_terms`).  One
bit-sliced scan runs a program over a pool of algebras of one size
(`_runs`): each step once, on one-hot masks with a bit per algebra and
assignment.  Two generators read it: `members` yields the algebras in
which every equation holds (membership, enumeration) and `failures` the
assignments under which every equation but the last holds and the last
fails (countermodels, quasi-equations, witnesses).  `eval_term` and
`holds` are the per-assignment definition that the tests and every
returned countermodel are checked against.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Optional

from .syntax import (Const, Formula, Language, Neg, Var, ONE, ZERO, fus,
                     join, limp, lneg, meet, numbered, rimp, rneg, var)
from .sequents import Equation, ineq

BINARY_OPS = ("join", "meet", "fus", "rimp", "limp")
UNARY_OPS = ("rneg", "lneg")


class AlgebraError(ValueError):
    pass


class NoMaximum(AlgebraError):
    """A residual/pseudocomplement does not exist; carries the failing pair."""

    def __init__(self, op, pair):
        super().__init__(f"no maximum for {op} at {pair}")
        self.op = op
        self.pair = pair


class SizeTooLarge(AlgebraError):
    pass


class FiniteAlgebra:
    """Named finite carrier with operation tables and distinguished 0, 1.

    The join table must be present and is validated to be a semilattice on
    construction; every other table is validated for shape only.
    """

    def __init__(self, name, elements, ops, zero, one):
        self.name = name
        self.elements = tuple(elements)
        n = len(self.elements)
        if n == 0:
            raise AlgebraError("empty carrier")
        self.n = n
        self.ops = {}
        for op, table in ops.items():
            if op in BINARY_OPS:
                table = tuple(tuple(int(v) for v in row) for row in table)
                if len(table) != n or any(len(row) != n for row in table):
                    raise AlgebraError(f"{op} table must be {n}x{n}")
                if any(not 0 <= v < n for row in table for v in row):
                    raise AlgebraError(f"{op} entry out of range")
            elif op in UNARY_OPS:
                table = tuple(int(v) for v in table)
                if len(table) != n or any(not 0 <= v < n for v in table):
                    raise AlgebraError(f"{op} table must have {n} entries")
            else:
                raise AlgebraError(f"unknown operation {op!r}")
            self.ops[op] = table
        self.zero = int(zero)
        self.one = int(one)
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise AlgebraError("consts out of range")
        if "join" not in self.ops:
            raise AlgebraError("join table is required")
        self._check_semilattice()
        jt = self.ops["join"]
        self._leq = tuple(tuple(jt[i][j] == j for j in range(n))
                          for i in range(n))

    def _check_semilattice(self):
        jt = self.ops["join"]
        for i in range(self.n):
            if jt[i][i] != i:
                raise AlgebraError(f"join not idempotent at {self.elements[i]}")
            for j in range(self.n):
                if jt[i][j] != jt[j][i]:
                    raise AlgebraError("join not commutative")
                for k in range(self.n):
                    if jt[jt[i][j]][k] != jt[i][jt[j][k]]:
                        raise AlgebraError("join not associative")

    # -- basic structure -------------------------------------------------

    def language(self) -> Language:
        return Language(frozenset(self.ops) | frozenset({"zero", "one"}))

    def leq(self, i, j):
        return self._leq[i][j]

    def bottom(self) -> Optional[int]:
        for b in range(self.n):
            if all(self._leq[b][k] for k in range(self.n)):
                return b
        return None

    def top(self) -> Optional[int]:
        for t in range(self.n):
            if all(self._leq[k][t] for k in range(self.n)):
                return t
        return None

    def max_of(self, subset) -> Optional[int]:
        """The maximum of a subset under the join order, if it exists."""
        subset = list(subset)
        for m in subset:
            if all(self._leq[x][m] for x in subset):
                return m
        return None

    def meet_partial(self, i, j) -> Optional[int]:
        lower = [k for k in range(self.n)
                 if self._leq[k][i] and self._leq[k][j]]
        return self.max_of(lower) if lower else None

    def right_residual(self, i, j) -> Optional[int]:
        """max{z : i*z <= j} under the join order, if it exists."""
        ft = self.ops["fus"]
        candidates = [z for z in range(self.n) if self._leq[ft[i][z]][j]]
        return self.max_of(candidates) if candidates else None

    def left_residual(self, i, j) -> Optional[int]:
        """max{z : z*i <= j} under the join order, if it exists."""
        ft = self.ops["fus"]
        candidates = [z for z in range(self.n) if self._leq[ft[z][i]][j]]
        return self.max_of(candidates) if candidates else None

    def index_of(self, name) -> int:
        return self.elements.index(name)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, n={self.n})"


# ---------------------------------------------------------------------------
# Term evaluation and satisfaction
# ---------------------------------------------------------------------------

def eval_term(a: FiniteAlgebra, t: Formula, assignment) -> int:
    """The value of t under assignment (variable name -> element index).

    This is the trusted definition of evaluation: every countermodel that
    the compiled programs below find is re-checked against it by `holds`.
    The walk keeps an explicit stack, so term depth is not bounded by the
    interpreter's recursion limit.
    """
    values = []
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Var):
            values.append(assignment[node.name])
        elif isinstance(node, Const):
            values.append(a.zero if node.which == "zero" else a.one)
        elif node.op not in a.ops:
            raise AlgebraError(f"operation {node.op} not in algebra")
        elif not ready:
            stack.append((node, True))
            if isinstance(node, Neg):
                stack.append((node.child, False))
            else:
                stack += ((node.right, False), (node.left, False))
        elif isinstance(node, Neg):
            values.append(a.ops[node.op][values.pop()])
        else:
            right = values.pop()
            values.append(a.ops[node.op][values.pop()][right])
    return values[0]


def holds(a, e: Equation, assignment) -> bool:
    return eval_term(a, e.lhs, assignment) == eval_term(a, e.rhs, assignment)


@dataclass(frozen=True)
class Program:
    """A straight-line program over the variables `names`.

    Slot i < len(names) holds the variable names[i]; step k computes slot
    len(names) + k and is ("zero",), ("one",), (unary op, slot) or
    (binary op, slot, slot).  `outputs` are the slots of the compiled terms.
    """
    names: tuple
    steps: tuple
    outputs: tuple

    @functools.cached_property
    def code(self):
        """The steps as (op, left slot, right slot), -1 where a step has
        no such argument: unpacked faster than the steps.  Built once per
        program."""
        return tuple((op, *args, -1, -1)[:3] for op, *args in self.steps)

    @functools.cached_property
    def operations(self):
        """The operation names and constants ("zero", "one") that the
        steps apply, sorted.  Built once per program."""
        return tuple(sorted({op for op, *_ in self.steps}))

    @functools.cached_property
    def sides(self):
        """For a program from compile_equations: the slots (lhs, rhs) of
        each equation, in order.  Built once per program: a tuple built
        from zip on every scan ends on the interpreter's free list of its
        size, and scans of the cached variety programs filled those lists
        by over 1 MB in a long run."""
        return tuple(zip(self.outputs[::2], self.outputs[1::2]))


def compile_terms(terms, names=None) -> Program:
    """Compile the terms into one program over the variables `names` (in
    that order; it must contain every variable of the terms), by default
    the sorted variables of the terms.

    One step per node of `numbered(terms)` that is not a variable, in its
    order, children first; equal subterms are one node, so they share one
    slot.
    """
    nodes, positions = numbered(terms)
    if names is None:
        names = sorted({f.name for f, op, _, _ in nodes if op == "var"})
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    slots, steps = [], []
    for f, op, left, right in nodes:
        if op == "var":
            slots.append(index[f.name])
            continue
        slots.append(len(names) + len(steps))
        if right >= 0:
            steps.append((op, slots[left], slots[right]))
        elif left >= 0:
            steps.append((op, slots[left]))
        else:
            steps.append((op,))
    return Program(names, tuple(steps),
                   tuple([slots[i] for i in positions]))


def compile_equations(equations) -> Program:
    """One program for the sides of the equations (lhs, rhs, lhs, ...) over
    the sorted union of their variables."""
    return compile_terms([side for e in equations for side in (e.lhs, e.rhs)])


# The bits of one run: a pool is cut into runs of as many algebras as fit
# with all their assignments, and an algebra whose assignments alone do
# not fit runs alone, in blocks that fix its leading variables.
_BITS = 1 << 16


def _operation_masks(run, op, count):
    """The masks of op on a run of m algebras of count assignments each:
    (i, j, v, mask) per cell (i, j) and value v of a binary operation,
    (i, v, mask) of a unary one, (v, mask) of a constant.  mask has the
    bits b of the algebras whose cell holds v, repeated at every
    assignment a (bits a * m + b)."""
    repeat = ((1 << count * len(run)) - 1) // ((1 << len(run)) - 1)
    cells = {}  # (cell, value) -> the algebras
    for b, a in enumerate(run):
        bit = 1 << b
        if op in ("zero", "one"):
            keys = [(getattr(a, op),)]
        elif op not in a.ops:
            raise AlgebraError(f"operation {op} not in algebra")
        elif op in UNARY_OPS:
            keys = enumerate(a.ops[op])
        else:
            for i, row in enumerate(a.ops[op]):
                for j, v in enumerate(row):
                    key = (i, j, v)
                    cells[key] = cells.get(key, 0) | bit
            continue
        for key in keys:
            cells[key] = cells.get(key, 0) | bit
    return [(*key, mask * repeat) for key, mask in cells.items()]


def _runs(algebras, program: Program, masks):
    """Evaluate the program on the algebras, all of one carrier size n,
    bit-sliced: each step once per run, on all the run's algebras under
    all their assignments.

    Bit a * m + b of a run of m algebras stands for assignment a (in
    itertools.product order, the first variable slowest) in algebra b of
    the run.  A slot holds n one-hot masks: the v-th has the bits where
    the slot's value is v.  A binary step is out[v] |= x[i] & y[j] & mask
    over the operation's masks.  Yields (run, start, count, slots) per run
    or block: the algebras, the first assignment and the number of them.
    A caller that sends a true value skips the algebra's other blocks.
    The slots stay valid until the next run is requested.

    `masks` keeps the operation masks per (run's first and end position,
    operation), at the widest count met so far: the `&` with the
    variables' masks cuts them to a narrower run, and a constant's are
    cut to its width.
    """
    algebras = tuple(algebras)
    if not algebras:
        return
    n = algebras[0].n
    inner = k = len(program.names)
    while inner and n ** inner > _BITS:
        inner -= 1
    count = n ** inner
    per_run = _BITS // count if inner == k else 1
    leads = list(itertools.product(range(n), repeat=k - inner))
    for first in range(0, len(algebras), per_run):
        run = algebras[first:first + per_run]
        full = (1 << count * len(run)) - 1
        tables = {}
        for op in program.operations:
            key = (first, first + len(run), op)
            stored = masks.get(key)
            if stored is None or stored[0] < count:
                stored = masks[key] = (count, _operation_masks(run, op, count))
            tables[op] = stored[1]
        variables = []  # variable i holds a value n ** (inner-1-i) times
        for i in range(inner):
            stretch = n ** (inner - 1 - i) * len(run)
            repeat = full // ((1 << n * stretch) - 1)
            variables.append([((1 << stretch) - 1) * repeat << v * stretch
                              for v in range(n)])
        for block, lead in enumerate(leads):
            slots = [[full if v == x else 0 for v in range(n)] for x in lead]
            slots += variables
            for op, left, right in program.code:
                out = [0] * n
                if right >= 0:
                    x, y = slots[left], slots[right]
                    for i, j, v, mask in tables[op]:
                        out[v] |= x[i] & y[j] & mask
                elif left >= 0:
                    x = slots[left]
                    for i, v, mask in tables[op]:
                        out[v] |= x[i] & mask
                else:
                    for v, mask in tables[op]:
                        out[v] = mask & full
                slots.append(out)
            if (yield run, block * count, count, slots):
                break  # the caller skips the algebra's other blocks


def _apart(slots, lhs, rhs):
    """The bits at which the slots lhs and rhs hold different values."""
    left, right = slots[lhs], slots[rhs]
    bits = 0
    if left != right:
        for v, mask in enumerate(left):
            bits |= mask & ~right[v]
    return bits


def _fold(bits, m, count):
    """The OR of the count m-bit chunks of bits: bit b is set iff algebra
    b of the run has a set bit."""
    while count > 1:
        half = (count + 1) // 2
        bits = bits & ((1 << half * m) - 1) | bits >> half * m
        count = half
    return bits


def failures(algebras, program: Program, masks=None):
    """(algebra, index) of each assignment, in the order of the algebras
    (all of one carrier size) and then product order, under which every
    equation of a compile_equations program but the last holds and the
    last fails.  One scan (`_runs`, operation masks kept in `masks`):
    per run, the bits where the last equation's sides are apart and no
    other's are, read out per algebra, lowest first."""
    *premises, goal = program.sides
    for run, start, count, slots in _runs(algebras, program,
                                          {} if masks is None else masks):
        bits = _apart(slots, *goal)
        for sides in premises:
            bits &= ~_apart(slots, *sides) if bits else 0
        if not bits:
            continue
        m = len(run)
        repeat = ((1 << count * m) - 1) // ((1 << m) - 1)
        failing = _fold(bits, m, count)
        while failing:
            b = (failing & -failing).bit_length() - 1
            failing &= failing - 1
            own = bits & repeat << b
            while own:
                yield run[b], start + ((own & -own).bit_length() - 1) // m
                own &= own - 1


def members(algebras, program: Program, masks=None):
    """The algebras (all of one carrier size), in order, in which every
    equation of a compile_equations program holds.  One scan (`_runs`,
    operation masks kept in `masks`): per run, the bits where the sides
    of some equation are apart, folded per algebra.  An algebra run in
    blocks is dropped at its first failing block, and its later blocks
    are not run."""
    runs = _runs(algebras, program, {} if masks is None else masks)
    holding, skip = (), None  # the algebras of the run that hold so far
    while True:
        try:
            run, start, count, slots = runs.send(skip)
        except StopIteration:
            break
        if start == 0:
            yield from holding
            holding = run
        bits = 0
        for sides in program.sides:
            bits |= _apart(slots, *sides)
        if bits:
            failed = _fold(bits, len(run), count)
            holding = [a for b, a in enumerate(run) if not failed >> b & 1]
        skip = not holding
    yield from holding


@functools.lru_cache(maxsize=64)
def pool_masks(pool):
    """The operation masks of a cached pool (`bridge._enumerated`,
    `_family_bases`), kept across its scans; a scan of one algebra builds
    its own and keeps none.  `pool_masks.cache_clear()` empties it."""
    return {}


def assignment_at(a: FiniteAlgebra, program: Program, index) -> dict:
    """The assignment (variable name -> element index) at position `index`
    of the product order of the scan (the first variable varies slowest),
    as `failures` reports it."""
    values = []
    for _ in program.names:
        index, value = divmod(index, a.n)
        values.append(value)
    return dict(zip(program.names, reversed(values)))


def satisfies_equation(a: FiniteAlgebra, e: Equation) -> bool:
    return satisfies_quasi(a, (), e)


def equation_witnesses(a, e: Equation, cap=50):
    """All failing assignments (as name dicts), up to cap."""
    program = compile_equations([e])
    out = []
    for _, index in itertools.islice(failures((a,), program), cap):
        assignment = assignment_at(a, program, index)
        out.append({k: a.elements[i] for k, i in assignment.items()})
    return out


def satisfies_quasi(a: FiniteAlgebra, premises, conclusion: Equation) -> bool:
    program = compile_equations([*premises, conclusion])
    return next(failures((a,), program), None) is None


# ---------------------------------------------------------------------------
# Equational bases (stored as data, indexable by name)
# ---------------------------------------------------------------------------

_X, _Y, _Z = var("x"), var("y"), var("z")

SEMILATTICE_EQS = (
    ("join-assoc", Equation(join(join(_X, _Y), _Z), join(_X, join(_Y, _Z)))),
    ("join-comm", Equation(join(_X, _Y), join(_Y, _X))),
    ("join-idem", Equation(join(_X, _X), _X)),
)

LATTICE_EQS = SEMILATTICE_EQS + (
    ("meet-assoc", Equation(meet(meet(_X, _Y), _Z), meet(_X, meet(_Y, _Z)))),
    ("meet-comm", Equation(meet(_X, _Y), meet(_Y, _X))),
    ("meet-idem", Equation(meet(_X, _X), _X)),
    ("absorb-join", Equation(join(_X, meet(_X, _Y)), _X)),
    ("absorb-meet", Equation(meet(_X, join(_X, _Y)), _X)),
)

MONOID_EQS = (
    ("fus-assoc", Equation(fus(fus(_X, _Y), _Z), fus(_X, fus(_Y, _Z)))),
    ("one-left", Equation(fus(ONE, _X), _X)),
    ("one-right", Equation(fus(_X, ONE), _X)),
)

DISTRIB_EQS = (
    ("distrib-r", Equation(fus(join(_X, _Y), _Z), join(fus(_X, _Z), fus(_Y, _Z)))),
    ("distrib-l", Equation(fus(_Z, join(_X, _Y)), join(fus(_Z, _X), fus(_Z, _Y)))),
)

PSEUDOCOMPLEMENT_EQS = (
    ("pc-r1", Equation(rneg(ONE), ZERO)),
    ("pc-r2", ineq(ONE, rneg(ZERO))),
    ("pc-r3", ineq(fus(_X, rneg(fus(_Y, _X))), rneg(_Y))),
    ("pc-l1", Equation(lneg(ONE), ZERO)),
    ("pc-l2", ineq(ONE, lneg(ZERO))),
    ("pc-l3", ineq(fus(lneg(fus(_X, _Y)), _X), lneg(_Y))),
    ("pc-ra", ineq(rneg(join(_X, _Y)), rneg(_X))),
    ("pc-la", ineq(lneg(join(_X, _Y)), lneg(_X))),
)

RESIDUATION_EQS = (
    ("res-3r", ineq(fus(_X, meet(rimp(_X, _Z), _Y)), _Z)),
    ("res-3l", ineq(fus(meet(limp(_X, _Z), _Y), _X), _Z)),
    ("res-4r", ineq(_Y, rimp(_X, join(fus(_X, _Y), _Z)))),
    ("res-4l", ineq(_Y, limp(_X, join(fus(_Y, _X), _Z)))),
)

NEGATION_DEF_EQS = (
    ("neg-5r", Equation(rneg(_X), rimp(_X, ZERO))),
    ("neg-5l", Equation(lneg(_X), limp(_X, ZERO))),
)

SIGMA_EQS = {
    "e": ("sigma-e", Equation(fus(_X, _Y), fus(_Y, _X))),
    "wl": ("sigma-wl", Equation(join(_X, ONE), ONE)),
    "wr": ("sigma-wr", Equation(join(ZERO, _X), _X)),
    "c": ("sigma-c", Equation(join(_X, fus(_X, _X)), fus(_X, _X))),
}

FAMILY_OPS = {
    "Msl": frozenset({"join", "fus"}),
    "Ml": frozenset({"join", "meet", "fus"}),
    "PMsl": frozenset({"join", "fus", "rneg", "lneg"}),
    "PMl": frozenset({"join", "meet", "fus", "rneg", "lneg"}),
    "RL": frozenset({"join", "meet", "fus", "rimp", "limp"}),
    "FL": frozenset({"join", "meet", "fus", "rimp", "limp", "rneg", "lneg"}),
}

FAMILY_EQS = {
    "Msl": SEMILATTICE_EQS + MONOID_EQS + DISTRIB_EQS,
    "Ml": LATTICE_EQS + MONOID_EQS + DISTRIB_EQS,
    "PMsl": SEMILATTICE_EQS + MONOID_EQS + DISTRIB_EQS + PSEUDOCOMPLEMENT_EQS,
    "PMl": LATTICE_EQS + MONOID_EQS + DISTRIB_EQS + PSEUDOCOMPLEMENT_EQS,
    "RL": LATTICE_EQS + MONOID_EQS + RESIDUATION_EQS,
    "FL": LATTICE_EQS + MONOID_EQS + RESIDUATION_EQS + NEGATION_DEF_EQS,
}

IMPLICATION_FREE_FAMILY = {
    "core": "Msl", "core-meet": "Ml", "core-neg": "PMsl",
    "core-meet-neg": "PMl", "full": "FL",
}


def family_of_language(lang: Language) -> str:
    for preset, fam in IMPLICATION_FREE_FAMILY.items():
        if Language.preset(preset) == lang:
            return fam
    raise AlgebraError("language is not one of the five named presets")


def language_of_family(family: str) -> Language:
    return Language(FAMILY_OPS[family] | frozenset({"zero", "one"}))


@dataclass(frozen=True)
class VarietyId:
    family: str
    sigma: frozenset = frozenset()

    def __post_init__(self):
        if self.family not in FAMILY_OPS:
            raise AlgebraError(f"unknown family {self.family!r}")

    def __str__(self):
        suffix = ",".join(s for s in ("e", "wl", "wr", "c") if s in self.sigma)
        return f"{self.family}[{suffix}]" if suffix else self.family


def variety_equations(v: VarietyId):
    eqs = list(FAMILY_EQS[v.family])
    for code in ("e", "wl", "wr", "c"):
        if code in v.sigma:
            eqs.append(SIGMA_EQS[code])
    return eqs


@dataclass(frozen=True)
class VarietyReport:
    ok: bool
    variety: VarietyId
    missing_ops: tuple = ()
    violations: tuple = ()  # ((equation name, (witness dicts, ...)), ...)

    def __bool__(self):
        return self.ok


@functools.lru_cache(maxsize=len(FAMILY_OPS) * 2 ** len(SIGMA_EQS))
def variety_program(v: VarietyId) -> Program:
    """All the variety's equations compiled into one program over the
    union of their variables, so shared subterms are evaluated once.

    Compiled once per VarietyId and kept in an lru_cache bounded by the
    number of varieties (six families times 16 sigmas);
    `variety_program.cache_clear()` empties it.
    """
    return compile_equations([eq for _, eq in variety_equations(v)])


def check_variety(a: FiniteAlgebra, v: VarietyId) -> VarietyReport:
    """Membership of a in v, with the missing operations or, per failed
    equation in basis order, up to 50 failing assignments in product order.

    A member is recognised by one scan of the cached `variety_program(v)`
    on (a,) alone, with masks built for the call; only an algebra that
    fails it has each equation compiled and run on its own to collect the
    witnesses.
    """
    missing = tuple(sorted(FAMILY_OPS[v.family] - frozenset(a.ops)))
    if missing:
        return VarietyReport(False, v, missing_ops=missing)
    if next(members((a,), variety_program(v)), None) is not None:
        return VarietyReport(True, v)
    violations = []
    for name, eq in variety_equations(v):
        witnesses = equation_witnesses(a, eq)
        if witnesses:
            violations.append((name, tuple(witnesses)))
    return VarietyReport(not violations, v, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Derived operations, opposites
# ---------------------------------------------------------------------------

def _residual_tables(a: FiniteAlgebra, ops) -> dict:
    """The tables that a's order and fusion define for those of rimp and
    rneg that are in `ops`: rimp and limp (x\\y = max{z : x*z <= y}, y/x
    mirrored) and rneg and lneg (the residuals into 0).  Raises NoMaximum
    where a residual set has no maximum."""
    tables = {}
    if "rimp" in ops:
        rt, lt = [], []
        for x in range(a.n):
            r_row, l_row = [], []
            for y in range(a.n):
                r = a.right_residual(x, y)
                if r is None:
                    raise NoMaximum("rimp", (a.elements[x], a.elements[y]))
                l = a.left_residual(x, y)
                if l is None:
                    raise NoMaximum("limp", (a.elements[x], a.elements[y]))
                r_row.append(r)
                l_row.append(l)
            rt.append(tuple(r_row))
            lt.append(tuple(l_row))
        tables["rimp"] = tuple(rt)
        tables["limp"] = tuple(lt)
    if "rneg" in ops:
        rn, ln = [], []
        for x in range(a.n):
            r = a.right_residual(x, a.zero)
            if r is None:
                raise NoMaximum("rneg", (a.elements[x],))
            l = a.left_residual(x, a.zero)
            if l is None:
                raise NoMaximum("lneg", (a.elements[x],))
            rn.append(r)
            ln.append(l)
        tables["rneg"] = tuple(rn)
        tables["lneg"] = tuple(ln)
    return tables


def derive_residuals(a: FiniteAlgebra) -> FiniteAlgebra:
    """Extend with rimp/limp where every residual set has a maximum.

    rimp[x][y] is x\\y = max{z : x*z <= y}; limp[x][y] is y/x.
    """
    if "fus" not in a.ops:
        raise AlgebraError("fus table required to derive residuals")
    ops = dict(a.ops)
    ops.update(_residual_tables(a, ("rimp",)))
    return FiniteAlgebra(a.name + "+res", a.elements, ops, a.zero, a.one)


def derive_pseudocomplements(a: FiniteAlgebra) -> FiniteAlgebra:
    """Extend with rneg/lneg: rneg(x) = max{z : x*z <= 0}, lneg(x) mirrored."""
    if "fus" not in a.ops:
        raise AlgebraError("fus table required to derive pseudocomplements")
    ops = dict(a.ops)
    ops.update(_residual_tables(a, ("rneg",)))
    return FiniteAlgebra(a.name + "+pc", a.elements, ops, a.zero, a.one)


def opposite(a: FiniteAlgebra) -> FiniteAlgebra:
    """Fusion transposed, the implications and negations swapped."""
    ops = {}
    for op, table in a.ops.items():
        if op == "fus":
            ops["fus"] = tuple(tuple(table[j][i] for j in range(a.n))
                               for i in range(a.n))
        elif op == "rimp":
            ops["limp"] = table
        elif op == "limp":
            ops["rimp"] = table
        elif op == "rneg":
            ops["lneg"] = table
        elif op == "lneg":
            ops["rneg"] = table
        else:
            ops[op] = table
    return FiniteAlgebra(a.name + "^op", a.elements, ops, a.zero, a.one)


# ---------------------------------------------------------------------------
# Property equivalences (exchange/weakening/contraction, Props. 5-8 style)
# ---------------------------------------------------------------------------

_T = var("t")

PROPERTY_EQUIVALENCES = {
    "e": (([ineq(fus(_X, _Y), _Z)], ineq(fus(_Y, _X), _Z)),
          Equation(fus(_X, _Y), fus(_Y, _X))),
    "wl": (([ineq(fus(_X, _Y), _Z)], ineq(fus(fus(_X, _T), _Y), _Z)),
           Equation(join(_X, ONE), ONE)),
    "wr": (([ineq(_X, ZERO)], ineq(_X, _Y)),
           Equation(join(ZERO, _X), _X)),
    "c": (([ineq(fus(_X, _X), _Y)], ineq(_X, _Y)),
          Equation(join(_X, fus(_X, _X)), fus(_X, _X))),
}


def check_property_equivalences(a: FiniteAlgebra):
    """For each structural property, check that the quasi-inequation holds
    iff the corresponding equation does.  Divergence signals a bug."""
    report = {}
    for code, ((premises, conclusion), equation) in PROPERTY_EQUIVALENCES.items():
        q = satisfies_quasi(a, premises, conclusion)
        e = satisfies_equation(a, equation)
        report[code] = {"quasi": q, "equation": e, "agree": q == e}
    return report


# ---------------------------------------------------------------------------
# Enumeration up to isomorphism
# ---------------------------------------------------------------------------

def _transitive(leq, n):
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return False
    return True


def _join_table_from_leq(leq, n):
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
            lub = None
            for m in uppers:
                if all(leq[m][u] for u in uppers):
                    lub = m
                    break
            if lub is None:
                return None
            row.append(lub)
        table.append(tuple(row))
    return tuple(table)


def semilattice_orders(n):
    """All join-semilattice join tables on 0..n-1 whose order respects the
    numeric labeling (every poset has such a labeling, so no isomorphism
    class is lost)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(pairs, bits):
            leq[i][j] = b
        if not _transitive(leq, n):
            continue
        table = _join_table_from_leq(leq, n)
        if table is not None:
            yield table, tuple(tuple(row) for row in leq)


def monoid_tables(leq, unit, n, distributive=True, value_order=None):
    """DFS over monotone associative unit tables, optionally distributive
    over the join induced by leq.

    Filling cell (i, j) checks only the constraints that read it: every
    constraint whose cells were all filled before was checked when its
    last cell was.  So a step costs O(n^2), not O(n^3), and the tables
    come out exactly as from a check of every constraint after each step.
    """
    jt = _join_table_from_leq(leq, n)
    table = [[None] * n for _ in range(n)]
    for k in range(n):
        table[unit][k] = k
        table[k][unit] = k
    cells = [(i, j) for i in range(n) for j in range(n)
             if i != unit and j != unit]
    order = value_order if value_order is not None else list(range(n))
    ups = [[k for k in range(n) if leq[i][k]] for i in range(n)]
    downs = [[k for k in range(n) if leq[k][i]] for i in range(n)]
    pairs = [(x, y, jt[x][y]) for x in range(n) for y in range(n)]

    def consistent(i, j, v):
        leq_v = leq[v]
        # monotone: (i, j) against the filled cells above and below it
        for i2 in ups[i]:
            row = table[i2]
            for j2 in ups[j]:
                w = row[j2]
                if w is not None and not leq_v[w]:
                    return False
        for i2 in downs[i]:
            row = table[i2]
            for j2 in downs[j]:
                w = row[j2]
                if w is not None and not leq[w][v]:
                    return False
        # associative: (xy)z = x(yz) where (i, j) is xy, yz, (xy)z or x(yz)
        row_i, row_v = table[i], table[v]
        for z in range(n):  # x, y = i, j
            yz = table[j][z]
            if yz is not None:
                left, right = row_v[z], row_i[yz]
                if left is not None and right is not None and left != right:
                    return False
        for x in range(n):  # y, z = i, j
            row_x = table[x]
            xy = row_x[i]
            if xy is not None:
                left, right = table[xy][j], row_x[v]
                if left is not None and right is not None and left != right:
                    return False
        for x in range(n):
            row_x = table[x]
            for y in range(n):
                xy = row_x[y]
                if xy == i:  # (xy)j = v against x(yj)
                    yj = table[y][j]
                    if yj is not None:
                        right = row_x[yj]
                        if right is not None and right != v:
                            return False
                if xy == j:  # i(xy) = v against (ix)y
                    ix = row_i[x]
                    if ix is not None:
                        left = table[ix][y]
                        if left is not None and left != v:
                            return False
        if distributive:
            # (x v y)j = xj v yj and i(x v y) = ix v iy
            for x, y, xy in pairs:
                xz, yz, j1 = table[x][j], table[y][j], table[xy][j]
                if xz is not None and yz is not None and j1 is not None:
                    if j1 != jt[xz][yz]:
                        return False
                zx, zy, j2 = row_i[x], row_i[y], row_i[xy]
                if zx is not None and zy is not None and j2 is not None:
                    if j2 != jt[zx][zy]:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for v in order:
            table[i][j] = v
            if consistent(i, j, v):
                yield from fill(k + 1)
        table[i][j] = None

    yield from fill(0)


def _relabeled_rows(tables, perm, inv):
    """The relabeled tables row by row: a unary table is one row."""
    for unary, t in tables:
        if unary:
            yield tuple([perm[t[x]] for x in inv])
        else:
            for x in inv:
                row = t[x]
                yield tuple([perm[row[y]] for y in inv])


def canonical_key(a: FiniteAlgebra):
    """The lexicographically least relabeling of the algebra over all
    carrier permutations (see _table_key)."""
    return _table_key(a.n, a.ops, a.zero, a.one)


def _table_key(n, ops, zero, one):
    """canonical_key of the algebra on 0..n-1 with the tables `ops` (name
    -> table) and constants zero, one, read from the raw tables.

    The encoding starts with (perm[zero], perm[one]), so the least one
    sends zero to 0 and, when one differs from zero, one to 1: only the
    permutations that do so are tried, and the other elements are permuted
    freely.  The tables are compared row by row, and a relabeling is
    dropped at its first row above the least so far.  The key is the same
    as from encoding all n! relabelings and taking the least.
    """
    names = sorted(ops)
    tables = [(op in UNARY_OPS, ops[op]) for op in names]
    fixed = [zero] if zero == one else [zero, one]
    free = [x for x in range(n) if x not in fixed]
    perm = [0] * n
    best = None  # the rows of the least relabeling so far
    for tail in itertools.permutations(free):
        inv = fixed + list(tail)  # inv[label] is the element given label
        for label, x in enumerate(inv):
            perm[x] = label
        rows = []
        tied = best is not None  # equal to best in every row so far
        for row in _relabeled_rows(tables, perm, inv):
            if tied and row != best[len(rows)]:
                if row > best[len(rows)]:
                    break
                tied = False
            rows.append(row)
        else:
            if not tied:
                best = rows
    encoded = [0, len(fixed) - 1]  # perm[zero], perm[one]
    k = 0
    for unary, _ in tables:
        if unary:
            encoded.append(best[k])
            k += 1
        else:
            encoded.append(tuple(best[k:k + n]))
            k += n
    return (n, tuple(names), tuple(encoded))


def _default_names(n):
    return tuple(f"e{i}" for i in range(n))


def _meet_table(a: FiniteAlgebra):
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            m = a.meet_partial(i, j)
            if m is None:
                return None
            row.append(m)
        rows.append(tuple(row))
    return tuple(rows)


def _extend_for_family(base: FiniteAlgebra, family):
    """Derive the family's extra operations, or None when they don't exist."""
    ops = dict(base.ops)
    need = FAMILY_OPS[family]
    if "meet" in need:
        mt = _meet_table(base)
        if mt is None:
            return None
        ops["meet"] = mt
    try:
        ops.update(_residual_tables(base, need))
    except NoMaximum:
        return None
    return FiniteAlgebra(base.name, base.elements, ops, base.zero, base.one)


MAX_ENUMERATION_SIZE = 5


@functools.lru_cache(maxsize=MAX_ENUMERATION_SIZE)
def _base_classes(size):
    """The join/fusion bases on `size` elements, the first of each
    isomorphism class: join table, then unit, then fusion table, then 0,
    in the order of semilattice_orders and monoid_tables.

    They do not depend on the variety, so every variety shares them.  The
    key is read from the raw tables, and only the first base of a class
    is built into a FiniteAlgebra.
    """
    seen = set()
    names = _default_names(size)
    bases = []
    for jt, leq in semilattice_orders(size):
        for unit in range(size):
            for ft in monoid_tables(leq, unit, size, distributive=True):
                ops = {"join": jt, "fus": ft}
                for zero in range(size):
                    key = _table_key(size, ops, zero, unit)
                    if key not in seen:
                        seen.add(key)
                        bases.append(FiniteAlgebra(f"base{len(bases)}", names,
                                                   ops, zero, unit))
    return tuple(bases)


@functools.lru_cache(maxsize=len(FAMILY_OPS) * MAX_ENUMERATION_SIZE)
def _family_bases(family, size):
    """The bases of _base_classes(size) that have the family's operations,
    extended by them, in the same order."""
    extended = (_extend_for_family(b, family) for b in _base_classes(size))
    return tuple(a for a in extended if a is not None)


def _renamed(a: FiniteAlgebra, name) -> FiniteAlgebra:
    """A copy of a called name, with its own ops dict: the tables, already
    validated, are shared and not checked again.

    The attributes are set one by one, in the order __init__ sets them, so
    that the copy keeps the attribute layout of a constructed instance: on
    CPython 3.11, a copy whose __dict__ was filled with one update read its
    attributes about three times slower, and the filter and completion
    code reads them in its inner loops."""
    copy = object.__new__(FiniteAlgebra)
    for attr, value in vars(a).items():
        setattr(copy, attr, value)
    copy.name = name
    copy.ops = dict(a.ops)
    return copy


def enumerate_algebras(v: VarietyId, size: int):
    """All members of the variety on a carrier of exactly `size` elements,
    up to isomorphism (canonical-form pruning), named enum0, enum1, ...
    size <= 5.

    Duplicates are dropped on the join/fusion base, before the family's
    operations are derived: those operations and membership are invariant
    under isomorphism, so the first base of each class decides the class.
    The bases of a size are built once for every variety (`_base_classes`)
    and extended once per family (`_family_bases`), both in lru_caches;
    a variety only scans them with its program in one pass (`members`).
    The same members come out in the same order as from a check of the
    extended algebras.
    """
    if size > MAX_ENUMERATION_SIZE:
        raise SizeTooLarge("enumeration is capped at carrier size "
                           f"{MAX_ENUMERATION_SIZE}")
    if size < 1:
        return
    pool = _family_bases(v.family, size)
    found = members(pool, variety_program(v), pool_masks(pool))
    for count, full in enumerate(found):
        yield _renamed(full, f"enum{count}")


def reduct(a: FiniteAlgebra, lang: Language) -> FiniteAlgebra:
    ops = {op: t for op, t in a.ops.items() if op in lang}
    return FiniteAlgebra(a.name + "|" + "".join(sorted(o[0] for o in ops)),
                         a.elements, ops, a.zero, a.one)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def to_json_dict(a: FiniteAlgebra) -> dict:
    return {
        "elements": list(a.elements),
        "consts": {"zero": a.elements[a.zero], "one": a.elements[a.one]},
        "ops": {op: (list(t) if op in UNARY_OPS else [list(r) for r in t])
                for op, t in a.ops.items()},
    }


def from_json_dict(d: dict, name="algebra") -> FiniteAlgebra:
    elements = [str(e) for e in d["elements"]]
    index = {e: i for i, e in enumerate(elements)}

    def resolve(v):
        if isinstance(v, str):
            if v not in index:
                raise AlgebraError(f"unknown element {v!r}")
            return index[v]
        return int(v)

    ops = {}
    for op, table in d.get("ops", {}).items():
        if op in UNARY_OPS:
            ops[op] = [resolve(v) for v in table]
        else:
            ops[op] = [[resolve(v) for v in row] for row in table]
    consts = d.get("consts", {})
    zero = resolve(consts["zero"])
    one = resolve(consts["one"])
    return FiniteAlgebra(name, elements, ops, zero, one)


def load_algebra(path) -> FiniteAlgebra:
    with open(path) as fh:
        return from_json_dict(json.load(fh), name=str(path))
