"""The independent oracles of the filter side.

`filter_closed_expanded` re-checks that slices are closed under the
sequent rules by expanding the rules on genuine tuples, and
`filter_member` reads membership of a tuple through the product collapse.
`bridge` compiles the same rules into Horn clauses; the tests compare the
two.

`leibniz_oracle`, `k_congruences_oracle` and `correspondence_oracle` are
the congruence side as it was built on frozensets of pairs: a relation is
a set of pairs, an equivalence is turned into blocks by union-find, and
the partitions are enumerated recursively.  `bridge` holds relations as
row masks; the tests compare the two.
"""

import itertools

from substrukt.algebra import (FAMILY_OPS, FiniteAlgebra, _runs,
                               language_of_family, variety_program)
from substrukt.bridge import (Congruence, CorrespondenceReport, FilterSlices,
                              NotACongruence, all_filters)


def filter_member(a: FiniteAlgebra, slices: FilterSlices, xs, delta) -> bool:
    """Membership of an arbitrary tuple via the product collapse."""
    p = a.one
    ft = a.ops["fus"]
    for x in xs:
        p = ft[p][x]
    return p in slices.s0 if delta is None else (p, delta) in slices.s1


def _tuples_upto(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n), repeat=length)


def filter_closed_expanded(a: FiniteAlgebra, slices: FilterSlices, sigma,
                           lang, max_len=3) -> bool:
    """Re-check slice closure by expanding rules on genuine tuples, every
    sequent in an instance having antecedent length <= max_len."""
    n = a.n
    deltas = [None] + list(range(n))

    def mem(xs, delta):
        return filter_member(a, slices, xs, delta)

    # axioms
    for x in range(n):
        if not mem((x,), x):
            return False
    if not mem((), a.one) or not mem((a.zero,), None):
        return False

    def seqs(max_total):
        return list(_tuples_upto(n, max_total))

    small = seqs(max_len)
    for gamma in small:
        for sg in small:
            if len(sg) + 1 > max_len:
                continue
            for pi in small:
                if len(sg) + 1 + len(pi) > max_len:
                    continue
                if len(sg) + len(gamma) + len(pi) > max_len:
                    continue
                for x in range(n):
                    if not mem(gamma, x):
                        continue
                    for delta in deltas:
                        if mem(sg + (x,) + pi, delta) and \
                                not mem(sg + gamma + pi, delta):
                            return False  # cut

    for sg in small:
        for pi in small:
            room = max_len - len(sg) - len(pi)
            if room < 1:
                continue
            for delta in deltas:
                jt = a.ops["join"]
                for x in range(n):
                    for y in range(n):
                        if mem(sg + (x,) + pi, delta) and \
                                mem(sg + (y,) + pi, delta) and \
                                not mem(sg + (jt[x][y],) + pi, delta):
                            return False  # or-l
                if "meet" in lang:
                    mt = a.ops["meet"]
                    for x in range(n):
                        for y in range(n):
                            if mem(sg + (x,) + pi, delta):
                                if not mem(sg + (mt[x][y],) + pi, delta):
                                    return False  # and-l1
                                if not mem(sg + (mt[y][x],) + pi, delta):
                                    return False  # and-l2
                if room >= 2:
                    ft = a.ops["fus"]
                    for x in range(n):
                        for y in range(n):
                            if mem(sg + (x, y) + pi, delta) and \
                                    not mem(sg + (ft[x][y],) + pi, delta):
                                return False  # fus-l
                    if "e" in sigma:
                        for x in range(n):
                            for y in range(n):
                                if mem(sg + (x, y) + pi, delta) and \
                                        not mem(sg + (y, x) + pi, delta):
                                    return False
                    if "c" in sigma:
                        for x in range(n):
                            if mem(sg + (x, x) + pi, delta) and \
                                    not mem(sg + (x,) + pi, delta):
                                return False
                if mem(sg + pi, delta):
                    if not mem(sg + (a.one,) + pi, delta):
                        return False  # one-l
                    if "wl" in sigma:
                        for x in range(n):
                            if not mem(sg + (x,) + pi, delta):
                                return False

    jt = a.ops["join"]
    for gamma in small:
        for x in range(n):
            if mem(gamma, x):
                for y in range(n):
                    if not mem(gamma, jt[x][y]) or not mem(gamma, jt[y][x]):
                        return False  # or-r
                if "meet" in lang:
                    mt = a.ops["meet"]
                    for y in range(n):
                        if mem(gamma, y) and not mem(gamma, mt[x][y]):
                            return False  # and-r
        if mem(gamma, None):
            if not mem(gamma, a.zero):
                return False  # zero-r
            if "wr" in sigma:
                for x in range(n):
                    if not mem(gamma, x):
                        return False

    ft = a.ops["fus"]
    for gamma in small:
        for pi in small:
            if len(gamma) + len(pi) > max_len:
                continue
            for x in range(n):
                if not mem(gamma, x):
                    continue
                for y in range(n):
                    if mem(pi, y) and not mem(gamma + pi, ft[x][y]):
                        return False  # fus-r

    if "rimp" in lang:
        rt, lt = a.ops["rimp"], a.ops["limp"]
        for gamma in small:
            if len(gamma) + 1 > max_len:
                continue
            for x in range(n):
                for y in range(n):
                    if mem((x,) + gamma, y) and not mem(gamma, rt[x][y]):
                        return False  # rimp-r
                    if mem(gamma + (x,), y) and not mem(gamma, lt[x][y]):
                        return False  # limp-r
        for gamma in small:
            if not any(mem(gamma, x) for x in range(n)):
                continue
            for sg in small:
                for pi in small:
                    total = len(sg) + len(gamma) + 1 + len(pi)
                    if total > max_len or len(sg) + 1 + len(pi) > max_len:
                        continue
                    for x in range(n):
                        if not mem(gamma, x):
                            continue
                        for y in range(n):
                            for delta in deltas:
                                if mem(sg + (y,) + pi, delta):
                                    if not mem(sg + gamma + (rt[x][y],) + pi,
                                               delta):
                                        return False  # rimp-l
                                    if not mem(sg + (lt[x][y],) + gamma + pi,
                                               delta):
                                        return False  # limp-l

    if "rneg" in lang:
        rn, ln = a.ops["rneg"], a.ops["lneg"]
        for gamma in small:
            if len(gamma) + 1 > max_len:
                continue
            for x in range(n):
                if mem(gamma, x):
                    if not mem(gamma + (rn[x],), None):
                        return False  # rneg-l
                    if not mem((ln[x],) + gamma, None):
                        return False  # lneg-l
                if mem((x,) + gamma, None) and not mem(gamma, rn[x]):
                    return False  # rneg-r
                if mem(gamma + (x,), None) and not mem(gamma, ln[x]):
                    return False  # lneg-r
    return True


# -- the congruence side on frozensets of pairs ------------------------------

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


def compatible_oracle(a: FiniteAlgebra, pairs):
    """None when pairs (an equivalence) respects every operation, else a
    witness (op, (x, y, c)), the first in the iteration order of pairs."""
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


def leibniz_oracle(a: FiniteAlgebra, r: FilterSlices):
    """Theta_R = {(x,y) : (x,y) and (y,x) both in the (1,1)-slice}, or the
    first failed law with a witness."""
    theta = frozenset((x, y) for (x, y) in r.s1 if (y, x) in r.s1)
    for x in range(a.n):
        if (x, x) not in theta:
            return NotACongruence("reflexivity", (x,))
    for (x, y) in theta:
        for z in range(a.n):
            if (y, z) in theta and (x, z) not in theta:
                return NotACongruence("transitivity", (x, y, z))
    witness = compatible_oracle(a, theta)
    if witness is not None:
        return NotACongruence(*witness)
    return partition_from_pairs(a.n, theta)


def partitions_oracle(n):
    """All set partitions of range(n), via restricted growth strings."""
    def rec(i, assignment, used):
        if i == n:
            blocks = {}
            for x, b in enumerate(assignment):
                blocks.setdefault(b, []).append(x)
            yield Congruence(tuple(tuple(b)
                                   for _, b in sorted(blocks.items())))
            return
        for b in range(used + 1):
            yield from rec(i + 1, assignment + [b], max(used, b + 1))
    return list(rec(0, [], 0))


def congruences_oracle(a: FiniteAlgebra):
    return [part for part in partitions_oracle(a.n)
            if compatible_oracle(a, part.pairs()) is None]


def k_congruences_oracle(a: FiniteAlgebra, v):
    """The congruences containing every pair of values at which the two
    sides of an equation of v differ, from one scan of v's program."""
    if not FAMILY_OPS[v.family].issubset(a.ops):
        return []
    program = variety_program(v)
    pairs = [(x, y) for x in range(a.n) for y in range(a.n) if x != y]
    apart = set()
    for _, _, _, slots in _runs((a,), program, {}):
        for lhs, rhs in program.sides:
            left, right = slots[lhs], slots[rhs]
            if left != right:
                apart.update((x, y) for x, y in pairs if left[x] & right[y])
    return [c for c in congruences_oracle(a) if apart <= c.pairs()]


def correspondence_oracle(a: FiniteAlgebra, v) -> CorrespondenceReport:
    """The correspondence report from the filters of `all_filters` and the
    congruence side above."""
    filters = all_filters(a, v.sigma, language_of_family(v.family))
    congs = k_congruences_oracle(a, v)
    failures = []
    leibniz = []
    images = set()
    for f in filters:
        omega = leibniz_oracle(a, f)
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
