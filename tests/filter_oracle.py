"""The independent oracle of filter closure: `filter_closed_expanded`
re-checks that slices are closed under the sequent rules by expanding the
rules on genuine tuples, and `filter_member` reads membership of a tuple
through the product collapse.  `bridge` compiles the same rules into Horn
clauses; the tests compare the two.
"""

import itertools

from substrukt.algebra import FiniteAlgebra
from substrukt.bridge import FilterSlices


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
