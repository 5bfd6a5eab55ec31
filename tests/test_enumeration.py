"""Enumeration up to isomorphism, against slower oracles and pinned output.

`monoid_tables` checks only the constraints that read the cell it fills,
and `canonical_key` tries only the permutations that fix the constants.
The oracles below check every constraint after each step and try every
permutation; both must give exactly the same output.  The counts and the
digest pin what `enumerate_algebras` yields, in order, with its names.
"""

import hashlib
import itertools
import json
import random

import pytest

from substrukt import algebra, bridge
from substrukt.algebra import (UNARY_OPS, FiniteAlgebra, VarietyId,
                               _extend_for_family, _family_bases,
                               _join_table_from_leq, _run_blocks,
                               canonical_key, check_variety,
                               enumerate_algebras, members, monoid_tables,
                               semilattice_orders, to_json_dict,
                               variety_program)

FAMILIES = ("Msl", "Ml", "PMsl", "PMl", "FL")
SIGMAS = [frozenset(c) for k in range(5)
          for c in itertools.combinations(("e", "wl", "wr", "c"), k)]
DECIDE_VARIETIES = [VarietyId(f, frozenset(s)) for f in ("Msl", "Ml", "FL")
                    for s in ((), ("e",), ("wl",))]


# -- oracles -----------------------------------------------------------------

def monoid_tables_oracle(leq, unit, n, distributive=True, value_order=None):
    """The DFS of monoid_tables, checking every monotonicity pair against
    the new cell and every associativity and distributivity triple after
    each step."""
    jt = _join_table_from_leq(leq, n)
    table = [[None] * n for _ in range(n)]
    for k in range(n):
        table[unit][k] = k
        table[k][unit] = k
    cells = [(i, j) for i in range(n) for j in range(n)
             if i != unit and j != unit]
    order = value_order if value_order is not None else list(range(n))

    def consistent(i, j):
        v = table[i][j]
        for i2 in range(n):
            for j2 in range(n):
                w = table[i2][j2]
                if w is None:
                    continue
                if leq[i][i2] and leq[j][j2] and not leq[v][w]:
                    return False
                if leq[i2][i] and leq[j2][j] and not leq[w][v]:
                    return False
        for x, y, z in itertools.product(range(n), repeat=3):
            xy, yz = table[x][y], table[y][z]
            if xy is not None and table[xy][z] is not None \
                    and yz is not None and table[x][yz] is not None:
                if table[xy][z] != table[x][yz]:
                    return False
        if distributive:
            for x, y, z in itertools.product(range(n), repeat=3):
                xz, yz = table[x][z], table[y][z]
                j1 = table[jt[x][y]][z]
                if xz is not None and yz is not None and j1 is not None:
                    if j1 != jt[xz][yz]:
                        return False
                zx, zy = table[z][x], table[z][y]
                j2 = table[z][jt[x][y]]
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
            if consistent(i, j):
                yield from fill(k + 1)
        table[i][j] = None

    yield from fill(0)


def relabel(a, perm):
    """The isomorphic copy of a in which element x is called perm[x]."""
    n = a.n
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    ops = {}
    for op, t in a.ops.items():
        if op in UNARY_OPS:
            ops[op] = tuple(perm[t[inv[i]]] for i in range(n))
        else:
            ops[op] = tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n))
                            for i in range(n))
    return FiniteAlgebra(a.name, a.elements, ops, perm[a.zero], perm[a.one])


def canonical_key_oracle(a):
    """The lexicographically least relabeling over all n! permutations."""
    n = a.n
    names = sorted(a.ops)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for x, p in enumerate(perm):
            inv[p] = x
        encoded = [perm[a.zero], perm[a.one]]
        for op in names:
            t = a.ops[op]
            if op in UNARY_OPS:
                encoded.append(tuple(perm[t[inv[i]]] for i in range(n)))
            else:
                encoded.append(tuple(tuple(perm[t[inv[i]][inv[j]]]
                                           for j in range(n))
                                     for i in range(n)))
        encoded = tuple(encoded)
        if best is None or encoded < best:
            best = encoded
    return (n, tuple(names), best)


# -- monoid_tables -----------------------------------------------------------

def _table_cases():
    for n in range(1, 5):
        for _, leq in semilattice_orders(n):
            for unit in range(n):
                yield n, leq, unit


@pytest.mark.parametrize("distributive", [True, False])
def test_monoid_tables_match_the_oracle(distributive):
    for n, leq, unit in _table_cases():
        assert list(monoid_tables(leq, unit, n, distributive)) == \
            list(monoid_tables_oracle(leq, unit, n, distributive))


def test_monoid_tables_match_the_oracle_in_shuffled_value_order():
    # the corpus.random_pomonoid path: values tried in a random order
    rng = random.Random(6)
    for n, leq, unit in _table_cases():
        order = list(range(n))
        rng.shuffle(order)
        distributive = rng.random() < 0.5
        assert list(monoid_tables(leq, unit, n, distributive, order)) == \
            list(monoid_tables_oracle(leq, unit, n, distributive, order))


# -- canonical_key -----------------------------------------------------------

def _enumerated_up_to_4():
    """Every algebra that enumerate_algebras yields at n <= 4 for the five
    families, whatever sigma: each is the first join/fusion base of its
    isomorphism class in the Msl enumeration (the order of the bases does
    not depend on the variety), extended by its family's operations."""
    for n in range(1, 5):
        for base in enumerate_algebras(VarietyId("Msl"), n):
            for family in FAMILIES:
                full = _extend_for_family(base, family)
                if full is not None:
                    yield full


def test_canonical_key_matches_the_oracle():
    checked = 0
    for a in _enumerated_up_to_4():
        assert canonical_key(a) == canonical_key_oracle(a)
        checked += 1
    assert checked > 325


def test_canonical_key_is_invariant_under_relabeling():
    rng = random.Random(11)
    keys = set()
    for a in _enumerated_up_to_4():
        key = canonical_key(a)
        for _ in range(3):
            perm = list(range(a.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(a, perm)) == key
        keys.add(key)
    # and it separates the classes that the enumeration keeps apart
    assert len(keys) == sum(1 for _ in _enumerated_up_to_4())


# -- pinned output -----------------------------------------------------------

# Members per (family, sigma) at n = 1, 2, 3, sigma in the order of SIGMAS:
# (), e, wl, wr, c, (e wl), (e wr), (e c), (wl wr), (wl c), (wr c),
# (e wl wr), (e wl c), (e wr c), (wl wr c), (e wl wr c).
COUNTS_UP_TO_3 = {
    "Msl": ((1,) * 16,
            (4, 4, 2, 2, 4, 2, 2, 4, 1, 2, 2, 1, 2, 2, 1, 1),
            (33, 27, 6, 8, 27, 6, 6, 21, 2, 3, 7, 2, 3, 5, 1, 1)),
    "Ml": ((1,) * 16,
           (4, 4, 2, 2, 4, 2, 2, 4, 1, 2, 2, 1, 2, 2, 1, 1),
           (24, 18, 6, 8, 21, 6, 6, 15, 2, 3, 7, 2, 3, 5, 1, 1)),
    "PMsl": ((1,) * 16,
             (3, 3, 2, 1, 3, 2, 1, 3, 1, 2, 1, 1, 2, 1, 1, 1),
             (18, 16, 6, 3, 14, 6, 3, 12, 2, 3, 2, 2, 3, 2, 1, 1)),
    "PMl": ((1,) * 16,
            (3, 3, 2, 1, 3, 2, 1, 3, 1, 2, 1, 1, 2, 1, 1, 1),
            (14, 12, 6, 3, 11, 6, 3, 9, 2, 3, 2, 2, 3, 2, 1, 1)),
    "FL": ((1,) * 16,
           (2, 2, 2, 1, 2, 2, 1, 2, 1, 2, 1, 1, 2, 1, 1, 1),
           (9, 9, 6, 3, 6, 6, 3, 6, 2, 3, 2, 2, 3, 2, 1, 1)),
}

# The nine varieties of the decide benchmark at n = 4, sigma = (), e, wl.
COUNTS_AT_4 = {"Msl": (287, 215, 35), "Ml": (177, 121, 35),
               "FL": (79, 63, 35)}

# sha256 of the yielded sequence, every variety at n <= 3 and then the nine
# above at n = 4, as enumerated before the incremental checks and the
# constant-fixing key were introduced.
DIGEST = "12b173b8cb8d6fa20163025d03971e156b02f136bfcf226f476a1b1540a62915"


def _runs():
    for family in FAMILIES:
        for sigma in SIGMAS:
            for n in (1, 2, 3):
                yield VarietyId(family, sigma), n
    for v in DECIDE_VARIETIES:
        yield v, 4


def enumeration_digest_and_counts():
    digest = hashlib.sha256()
    counts = {}
    for v, n in _runs():
        algebras = list(enumerate_algebras(v, n))
        counts[v, n] = len(algebras)
        for a in algebras:
            record = [a.name, to_json_dict(a)]
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest(), counts


@pytest.fixture(scope="module")
def pinned():
    return enumeration_digest_and_counts()


def test_enumeration_counts_up_to_3(pinned):
    _, counts = pinned
    for family, rows in COUNTS_UP_TO_3.items():
        for n, row in enumerate(rows, start=1):
            assert tuple(counts[VarietyId(family, s), n]
                         for s in SIGMAS) == row, (family, n)
    totals = [sum(counts[VarietyId(f, s), n] for f in FAMILIES
                  for s in SIGMAS) for n in (1, 2, 3)]
    assert totals == [80, 152, 524]


def test_decide_varieties_at_4(pinned):
    _, counts = pinned
    for v in DECIDE_VARIETIES:
        k = ((), ("e",), ("wl",)).index(tuple(sorted(v.sigma)))
        assert counts[v, 4] == COUNTS_AT_4[v.family][k], v


def test_enumeration_output_is_pinned(pinned):
    digest, _ = pinned
    assert digest == DIGEST


def test_wl_c_varieties_are_commutative():
    # xy <= (xy)(xy) = x(yx)y <= yx, by c and then by x, y <= 1 (wl): every
    # member is commutative, so adding e to sigma keeps the same members
    for sigma, counts in ((("wl", "c"), (1, 2, 3, 7)),
                          (("wl", "wr", "c"), (1, 1, 1, 2))):
        for family in FAMILIES:
            for n, count in enumerate(counts, start=1):
                without = _members(VarietyId(family, frozenset(sigma)), n)
                with_e = _members(VarietyId(family, frozenset(sigma + ("e",))),
                                  n)
                assert len(without) == count, (family, sigma, n)
                assert without == with_e, (family, sigma, n)


def _members(v, n):
    return [(a.name, to_json_dict(a)) for a in enumerate_algebras(v, n)]


# -- the shared caches -------------------------------------------------------

def _clear_caches():
    for module in (algebra, bridge):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _decide_enumerations(varieties):
    return {(v, n): [(a.name, to_json_dict(a))
                     for a in enumerate_algebras(v, n)]
            for v in varieties for n in range(1, 5)}


def test_enumeration_does_not_depend_on_the_cache_order():
    # the base classes are shared by all varieties and their extensions by
    # the varieties of a family: a cache keyed too coarsely (on the family
    # without sigma, say) would hand one variety another's members
    _clear_caches()
    forward = _decide_enumerations(DECIDE_VARIETIES)
    _clear_caches()
    backward = _decide_enumerations(DECIDE_VARIETIES[::-1])
    _clear_caches()
    assert forward == backward


# -- the pool scan -------------------------------------------------------------

def test_pool_scan_matches_check_variety():
    # each size's family bases in pool order, scanned in one pass with
    # column reuse, against check_variety on each base alone
    mixed = 0
    for v in DECIDE_VARIETIES:
        program = variety_program(v)
        for n in range(1, 5):
            pool = _family_bases(v.family, n)
            expected = [a for a in pool if check_variety(a, v).ok]
            assert list(members(pool, program)) == expected, (v, n)
            mixed += 0 < len(expected) < len(pool)
    assert mixed


def _chain(n, fus, zero):
    """The chain 0 < 1 < ... < n-1 with unit n-1, the fusion fus(x, y) and
    0 at zero."""
    join = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    table = tuple(tuple(fus(x, y) for y in range(n)) for x in range(n))
    return FiniteAlgebra(f"chain{n}-{zero}", [f"e{i}" for i in range(n)],
                         {"join": join, "fus": table}, zero, n - 1)


def _lukasiewicz(n):
    return lambda x, y: max(0, x + y - (n - 1))


def test_pool_scan_matches_check_variety_in_several_blocks():
    # 11 ** 3 assignments run in 11 blocks of 121, led by x, so no column
    # is reused; fusion min is idempotent, Lukasiewicz's is not (c first
    # fails at x = 1, in the second block), and 0 = 5 fails wr at x = 0
    n = 11
    pool = [_chain(n, fus, zero) for fus in (min, _lukasiewicz(n))
            for zero in (0, 5)]
    for sigma in SIGMAS:
        v = VarietyId("Msl", sigma)
        program = variety_program(v)
        assert len(list(_run_blocks(pool[:1], program))) == n
        expected = [a for a in pool if check_variety(a, v).ok]
        assert list(members(pool, program)) == expected, sorted(sigma)
    wr = variety_program(VarietyId("Msl", frozenset({"wr"})))
    assert list(members(pool, wr)) == pool[::2]


class _CountedRows(tuple):
    """An operation table that counts the rows read from it."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_lone_non_member_scan_stops_at_its_first_failing_block():
    # under c the Goedel chain holds in all 11 blocks and the Lukasiewicz
    # chain fails first in the second; a block reads the fusion table
    # equally often in both
    n = 11
    program = variety_program(VarietyId("Msl", frozenset({"c"})))
    reads = []
    for fus, expected in ((min, 1), (_lukasiewicz(n), 0)):
        a = _chain(n, fus, 0)
        a.ops["fus"] = table = _CountedRows(a.ops["fus"])
        assert len(list(members((a,), program))) == expected
        reads.append(table.reads)
    assert reads[1] * n == reads[0] * 2
