"""Ideals of finite join-semilattices, the ideal closure operator, the
generic nucleus completion, and the ideal completion with its embedding.

Ideals are represented as bitmasks over the carrier index.  The completion
carrier consists of the closed sets of the chosen closure operator; for the
ideal closure these are the ideals, plus the empty set exactly when the
input has no bottom element (ideal intersections can then be empty, and a
complete lattice needs them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (AlgebraError, FiniteAlgebra, VarietyId, check_variety)

COMPLETION_CARRIER_CAP = 8


class NucleusLawViolated(AlgebraError):
    """C(X) * C(Y) is not contained in C(X * Y); carries the witness pair."""

    def __init__(self, witness):
        super().__init__(f"nucleus law violated at {witness}")
        self.witness = witness


class EmptyGeneratorNoMinimum(AlgebraError):
    pass


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def mask_names(a: FiniteAlgebra, mask) -> str:
    return "{" + ",".join(a.elements[i] for i in bits(mask)) + "}"


def is_ideal(a: FiniteAlgebra, mask) -> bool:
    """Nonempty, downward closed, join closed."""
    if mask == 0:
        return False
    members = list(bits(mask))
    jt = a.ops["join"]
    for x in members:
        for y in range(a.n):
            if a.leq(y, x) and not mask >> y & 1:
                return False
        for y in members:
            if not mask >> jt[x][y] & 1:
                return False
    return True


def down_closure(a: FiniteAlgebra, mask) -> int:
    out = 0
    for x in bits(mask):
        for y in range(a.n):
            if a.leq(y, x):
                out |= 1 << y
    return out


def ideal_generated(a: FiniteAlgebra, generators) -> int:
    """Least ideal containing the generators: downward closure of finite
    joins.  An empty generator set needs a minimum element."""
    mask = mask_of(generators) if not isinstance(generators, int) else generators
    if mask == 0:
        b = a.bottom()
        if b is None:
            raise EmptyGeneratorNoMinimum(
                "the empty set generates no ideal without a minimum")
        return 1 << b
    jt = a.ops["join"]
    closed = mask
    changed = True
    while changed:
        changed = False
        members = list(bits(closed))
        for x in members:
            for y in members:
                j = jt[x][y]
                if not closed >> j & 1:
                    closed |= 1 << j
                    changed = True
    return down_closure(a, closed)


def principal_ideal(a: FiniteAlgebra, x) -> int:
    return mask_of(y for y in range(a.n) if a.leq(y, x))


def all_ideals(a: FiniteAlgebra):
    """Every ideal (nonempty), as a sorted tuple of bitmasks."""
    return tuple(m for m in range(1, 1 << a.n) if is_ideal(a, m))


@dataclass(frozen=True)
class ClosureOperatorSpec:
    """An extensionally-given closure operator on subsets of a carrier of
    size n; the three closure laws are validated on construction."""

    n: int
    table: tuple  # table[mask] = closure of mask

    def __post_init__(self):
        size = 1 << self.n
        if len(self.table) != size:
            raise AlgebraError("closure table must cover every subset")
        for mask in range(size):
            c = self.table[mask]
            if mask | c != c:
                raise AlgebraError(f"not extensive at {mask:b}")
            if self.table[c] != c:
                raise AlgebraError(f"not idempotent at {mask:b}")
            for i in range(self.n):
                up = mask | 1 << i
                if c | self.table[up] != self.table[up]:
                    raise AlgebraError(f"not monotone at {mask:b} +bit{i}")

    def __call__(self, mask):
        return self.table[mask]

    def closed_sets(self):
        return tuple(m for m in range(1 << self.n) if self.table[m] == m)

    @staticmethod
    def from_function(n, fn):
        return ClosureOperatorSpec(n, tuple(fn(m) for m in range(1 << n)))


def completion_needs_empty_set(a: FiniteAlgebra) -> bool:
    """Whether the ideals alone cannot carry the completion.

    The ideal lattice is residuated iff every residual set of ideals is
    nonempty; the critical pair is (whole carrier, least ideal), which is
    nonempty iff the algebra has a bottom with two-sided annihilators into
    it.  Otherwise the empty set joins the carrier as the new bottom."""
    bot = a.bottom()
    if bot is None:
        return True
    ft = a.ops["fus"]
    right = any(all(a.leq(ft[x][z], bot) for x in range(a.n))
                for z in range(a.n))
    left = any(all(a.leq(ft[z][x], bot) for x in range(a.n))
               for z in range(a.n))
    return not (right and left)


def ideal_closure(a: FiniteAlgebra) -> ClosureOperatorSpec:
    """The closure operator whose closed sets are the ideals, together with
    the empty set exactly when the ideal lattice alone is not residuated."""
    empty_is_closed = completion_needs_empty_set(a)

    def close(mask):
        if mask == 0:
            return 0 if empty_is_closed else 1 << a.bottom()
        return ideal_generated(a, mask)
    return ClosureOperatorSpec.from_function(a.n, close)


def _set_product_table(m: FiniteAlgebra):
    """table[X][Y] = X * Y = {x * y : x in X, y in Y} for every pair of
    subsets of the carrier, as bitmasks.  The row of {x} is built from
    the fusion table; the row of any other nonempty X is the row of X
    without its lowest bit OR'd with the row of that bit."""
    ft = m.ops["fus"]
    size = 1 << m.n
    table = [[0] * size]
    for xmask in range(1, size):
        low = xmask & -xmask
        if xmask == low:
            products = [1 << xy for xy in ft[low.bit_length() - 1]]
            row = [0]
            for ymask in range(1, size):
                ylow = ymask & -ymask
                row.append(row[ymask ^ ylow] | products[ylow.bit_length() - 1])
        else:
            row = [p | q for p, q in zip(table[xmask ^ low], table[low])]
        table.append(row)
    return table


def nucleus_completion(m: FiniteAlgebra, c: ClosureOperatorSpec,
                       d=None) -> FiniteAlgebra:
    """The complete pointed residuated lattice of c-closed subsets of the
    monoid reduct of m, with zero the closed set d (defaulting to the
    closure of {0}) and one the closure of {1}.  Requires the nucleus law
    C(X)*C(Y) <= C(X*Y)."""
    if c.n != m.n:
        raise AlgebraError("closure operator carrier mismatch")
    if d is None:
        d = c(1 << m.zero)
    if c(d) != d:
        raise AlgebraError("the designated zero set must be closed")
    product = _set_product_table(m)
    close = c.table
    size = 1 << m.n
    # The construction applies C to products and unions of nonempty closed
    # sets only, so the nucleus law is required on nonempty operands; the
    # empty cases are trivial whenever the empty set is itself closed.
    for xmask in range(1, size):
        closed_row, row = product[close[xmask]], product[xmask]
        for ymask in range(1, size):
            if closed_row[close[ymask]] & ~close[row[ymask]]:
                raise NucleusLawViolated(
                    (mask_names(m, xmask), mask_names(m, ymask)))

    carrier = c.closed_sets()
    index = {mask: i for i, mask in enumerate(carrier)}
    names = tuple(mask_names(m, mask) for mask in carrier)

    def residual(products, ymask):  # {z : products[z] <= Y}
        return mask_of(z for z, p in enumerate(products) if not p & ~ymask)

    singles = [1 << z for z in range(m.n)]
    join_t, meet_t, fus_t, rimp_t, limp_t = [], [], [], [], []
    for x in carrier:
        jr, mr, fr, rr, lr = [], [], [], [], []
        right = [product[x][s] for s in singles]  # X * {z}, for X \ Y
        left = [product[s][x] for s in singles]  # {z} * X, for Y / X
        for y in carrier:
            jr.append(index[c(x | y)])
            mr.append(index[x & y])
            fr.append(index[close[product[x][y]]])
            r = residual(right, y)
            l = residual(left, y)
            if r not in index or l not in index:
                raise AlgebraError("residual of closed sets is not closed")
            rr.append(index[r])
            lr.append(index[l])
        join_t.append(tuple(jr))
        meet_t.append(tuple(mr))
        fus_t.append(tuple(fr))
        rimp_t.append(tuple(rr))
        limp_t.append(tuple(lr))
    rneg_t = tuple(rimp_t[i][index[d]] for i in range(len(carrier)))
    lneg_t = tuple(limp_t[i][index[d]] for i in range(len(carrier)))
    ops = {"join": tuple(join_t), "meet": tuple(meet_t), "fus": tuple(fus_t),
           "rimp": tuple(rimp_t), "limp": tuple(limp_t),
           "rneg": rneg_t, "lneg": lneg_t}
    one_mask = c(1 << m.one)
    return FiniteAlgebra(m.name + "^C", names, ops, index[d], index[one_mask])


def ideal_completion(a: FiniteAlgebra):
    """The ideal completion of a pointed sl-monoid, with the principal-ideal
    embedding.  Returns (completion, embedding) where embedding maps each
    carrier index to a completion index."""
    if a.n > COMPLETION_CARRIER_CAP:
        raise AlgebraError(
            f"ideal completion is capped at {COMPLETION_CARRIER_CAP} elements")
    report = check_variety(a, VarietyId("Msl"))
    if not report.ok:
        raise AlgebraError(f"not a pointed sl-monoid: {report}")
    c = ideal_closure(a)
    d = principal_ideal(a, a.zero)
    completion = nucleus_completion(a, c, d)
    index = {mask: i for i, mask in enumerate(c.closed_sets())}
    embedding = {x: index[principal_ideal(a, x)] for x in range(a.n)}
    return completion, embedding


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    failures: tuple = ()

    def __bool__(self):
        return self.ok


def verify_embedding(a: FiniteAlgebra, completion: FiniteAlgebra,
                     embedding) -> EmbeddingReport:
    """Injectivity, homomorphism on join/fus/0/1, and agreement on every
    existing residual, pseudocomplement and binary meet."""
    failures = []
    e = embedding
    if len(set(e.values())) != a.n:
        failures.append("embedding is not injective")
    if e[a.zero] != completion.zero:
        failures.append("zero not preserved")
    if e[a.one] != completion.one:
        failures.append("one not preserved")
    for x in range(a.n):
        for y in range(a.n):
            for op in ("join", "fus"):
                got = completion.ops[op][e[x]][e[y]]
                want = e[a.ops[op][x][y]]
                if got != want:
                    failures.append(f"{op} not preserved at "
                                    f"({a.elements[x]},{a.elements[y]})")
            r = a.right_residual(x, y)
            if r is not None and completion.ops["rimp"][e[x]][e[y]] != e[r]:
                failures.append(f"right residual not preserved at "
                                f"({a.elements[x]},{a.elements[y]})")
            l = a.left_residual(x, y)
            if l is not None and completion.ops["limp"][e[x]][e[y]] != e[l]:
                failures.append(f"left residual not preserved at "
                                f"({a.elements[x]},{a.elements[y]})")
            m = a.meet_partial(x, y)
            if m is not None and completion.ops["meet"][e[x]][e[y]] != e[m]:
                failures.append(f"meet not preserved at "
                                f"({a.elements[x]},{a.elements[y]})")
        rp = a.right_residual(x, a.zero)
        if rp is not None and completion.ops["rneg"][e[x]] != e[rp]:
            failures.append(f"right pseudocomplement not preserved at "
                            f"{a.elements[x]}")
        lp = a.left_residual(x, a.zero)
        if lp is not None and completion.ops["lneg"][e[x]] != e[lp]:
            failures.append(f"left pseudocomplement not preserved at "
                            f"{a.elements[x]}")
    return EmbeddingReport(not failures, tuple(failures))


def embedding_json(a: FiniteAlgebra):
    """Sidecar map element -> members of its principal ideal."""
    return {"embedding": {a.elements[x]: [a.elements[y]
                                          for y in bits(principal_ideal(a, x))]
                          for x in range(a.n)}}
