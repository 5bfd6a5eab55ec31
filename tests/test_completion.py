import functools
import hashlib
import itertools
import json

import pytest

from substrukt.algebra import (AlgebraError, FiniteAlgebra, VarietyId,
                               check_variety, enumerate_algebras,
                               to_json_dict)
from substrukt.completion import (ClosureOperatorSpec, EmptyGeneratorNoMinimum,
                                  NucleusLawViolated, _set_product_table,
                                  all_ideals, bits,
                                  completion_needs_empty_set, down_closure,
                                  embedding_json, ideal_closure,
                                  ideal_completion, ideal_generated, is_ideal,
                                  mask_of, nucleus_completion, principal_ideal,
                                  verify_embedding)
from substrukt import fixtures


# -- Element-level characterizations of the completion operations, the
#    oracles that the nucleus completion tables are checked against

def ideal_join_pointwise(a, i1, i2):
    """{c : c <= x v y for some x in I1, y in I2}."""
    jt = a.ops["join"]
    out = 0
    for x in bits(i1):
        for y in bits(i2):
            out |= principal_ideal(a, jt[x][y])
    return out


def ideal_fuse_pointwise(a, i1, i2):
    """{c : c <= x * y for some x in I1, y in I2}."""
    ft = a.ops["fus"]
    out = 0
    for x in bits(i1):
        for y in bits(i2):
            out |= principal_ideal(a, ft[x][y])
    return out


def ideal_residual_right(a, i1, i2):
    """{z : x * z in I2 for every x in I1}."""
    ft = a.ops["fus"]
    return mask_of(z for z in range(a.n)
                   if all(i2 >> ft[x][z] & 1 for x in bits(i1)))


def ideal_residual_left(a, i1, i2):
    """{z : z * x in I2 for every x in I1}."""
    ft = a.ops["fus"]
    return mask_of(z for z in range(a.n)
                   if all(i2 >> ft[z][x] & 1 for x in bits(i1)))


def test_ideal_generated_examples():
    c4 = fixtures.chain4_min()
    assert ideal_generated(c4, [1]) == mask_of([0, 1])  # (a] in the chain
    d = fixtures.diamond()
    assert ideal_generated(d, [1, 2]) == mask_of(range(4))  # a v b = 1
    assert ideal_generated(c4, [0]) == mask_of([0])


def test_ideal_generated_empty():
    c4 = fixtures.chain4_min()
    assert ideal_generated(c4, []) == mask_of([0])
    bottomless = FiniteAlgebra(
        "v", ("a", "b", "t"),
        {"join": ((0, 2, 2), (2, 1, 2), (2, 2, 2)),
         "fus": ((0, 2, 2), (2, 1, 2), (2, 2, 2))}, 0, 2)
    with pytest.raises(EmptyGeneratorNoMinimum):
        ideal_generated(bottomless, [])


def test_all_ideals_counts():
    assert len(all_ideals(fixtures.chain4_min())) == 4
    assert len(all_ideals(fixtures.diamond())) == 4
    trivial = FiniteAlgebra("t", ("e",), {"join": ((0,),), "fus": ((0,),)},
                            0, 0)
    assert len(all_ideals(trivial)) == 1
    # oracle: brute force the definition
    d = fixtures.diamond()
    oracle = [m for m in range(1, 1 << d.n) if is_ideal(d, m)]
    assert tuple(oracle) == all_ideals(d)


def test_closure_spec_validation():
    good = ideal_closure(fixtures.chain4_min())
    assert good(mask_of([1])) == mask_of([0, 1])
    with pytest.raises(AlgebraError, match="extensive"):
        ClosureOperatorSpec(1, (0, 0))
    with pytest.raises(AlgebraError, match="idempotent"):
        ClosureOperatorSpec.from_function(2, lambda m: {0: 1, 1: 3, 2: 2, 3: 3}[m])
    with pytest.raises(AlgebraError, match="monotone"):
        ClosureOperatorSpec(2, (3, 1, 2, 3))


def test_nucleus_law_rejection():
    # on the 3-chain with a*a=0, the closure that collapses everything
    # above bottom to the top violates C(X)*C(Y) <= C(X*Y)
    c3 = fixtures.chain3_nilpotent()
    full = (1 << c3.n) - 1

    def bad(mask):
        if mask == 0:
            return 0
        if mask == 1:
            return 1
        return full
    spec = ClosureOperatorSpec.from_function(c3.n, bad)
    with pytest.raises(NucleusLawViolated) as err:
        nucleus_completion(c3, spec, 1)
    assert err.value.witness  # carries the failing pair


def test_nucleus_requires_closed_zero():
    c4 = fixtures.chain4_min()
    spec = ideal_closure(c4)
    with pytest.raises(AlgebraError, match="closed"):
        nucleus_completion(c4, spec, mask_of([1]))  # {a} is not down-closed


def test_nucleus_default_zero_is_principal():
    c4 = fixtures.chain4_min()
    spec = ideal_closure(c4)
    default = nucleus_completion(c4, spec)
    explicit = nucleus_completion(c4, spec, principal_ideal(c4, c4.zero))
    assert default.ops == explicit.ops and default.zero == explicit.zero
    # a caller-selected zero changes the designated element
    other = nucleus_completion(c4, spec, principal_ideal(c4, 2))
    assert other.zero != default.zero


def test_ideal_completion_two_chain():
    comp, emb = ideal_completion(fixtures.boolean2())
    assert comp.n == 2
    assert check_variety(comp, VarietyId("FL")).ok
    assert verify_embedding(fixtures.boolean2(), comp, emb).ok


def test_ideal_completion_chain4_matches_heyting():
    from substrukt.algebra import derive_residuals
    c4 = fixtures.chain4_min()
    comp, emb = ideal_completion(c4)
    assert comp.n == 4  # all ideals principal: isomorphic to the original
    expected = derive_residuals(c4)
    for i in range(4):
        for j in range(4):
            assert comp.ops["rimp"][emb[i]][emb[j]] == emb[expected.ops["rimp"][i][j]]


def test_ideal_completion_chain3():
    c3 = fixtures.chain3_nilpotent()
    comp, emb = ideal_completion(c3)
    assert comp.n == 3
    assert check_variety(comp, VarietyId("FL")).ok
    rep = verify_embedding(c3, comp, emb)
    assert rep.ok, rep.failures


def test_ideal_completion_rejects_non_msl():
    with pytest.raises(AlgebraError, match="sl-monoid"):
        ideal_completion(fixtures.diamond())


def test_completion_carrier_cap():
    n = 9
    jt = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    mt = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    big = FiniteAlgebra("big", tuple(map(str, range(n))),
                        {"join": jt, "fus": mt}, 0, n - 1)
    with pytest.raises(AlgebraError, match="capped"):
        ideal_completion(big)


def test_completion_carrier_size():
    # carrier = ideals, plus the forced bottom exactly when flagged
    for a in itertools.chain(enumerate_algebras(VarietyId("Msl"), 2),
                             enumerate_algebras(VarietyId("Msl"), 3)):
        comp, _ = ideal_completion(a)
        extra = 1 if completion_needs_empty_set(a) else 0
        assert comp.n == len(all_ideals(a)) + extra


def test_lemma17_products_of_generated_ideals():
    # (X] * (Y] is contained in (X * Y], subsets up to size 3
    for a in enumerate_algebras(VarietyId("Msl"), 3):
        ft = a.ops["fus"]
        elements = range(a.n)
        subsets = [c for k in (1, 2, 3)
                   for c in itertools.combinations(elements, k)]
        for xs in subsets:
            for ys in subsets:
                ix, iy = ideal_generated(a, xs), ideal_generated(a, ys)
                prod = {ft[u][v] for u in xs for v in ys}
                target = ideal_generated(a, prod)
                pointwise = {ft[u][v] for u in bits(ix) for v in bits(iy)}
                assert mask_of(pointwise) | target == target


def test_completion_tables_match_pointwise_characterizations():
    for base in (fixtures.boolean2(), fixtures.chain3_nilpotent(),
                 fixtures.chain4_min()):
        comp, _ = ideal_completion(base)
        c = ideal_closure(base)
        carrier = c.closed_sets()
        for i, im in enumerate(carrier):
            for j, jm in enumerate(carrier):
                if im and jm:
                    assert carrier[comp.ops["join"][i][j]] == \
                        ideal_join_pointwise(base, im, jm)
                    assert carrier[comp.ops["fus"][i][j]] == \
                        ideal_fuse_pointwise(base, im, jm)
                assert carrier[comp.ops["rimp"][i][j]] == \
                    ideal_residual_right(base, im, jm)
                assert carrier[comp.ops["limp"][i][j]] == \
                    ideal_residual_left(base, im, jm)
                assert carrier[comp.ops["meet"][i][j]] == im & jm


def test_completion_joins_of_families():
    # the join of any family of closed sets is the closure of its union
    base = fixtures.chain3_nilpotent()
    comp, _ = ideal_completion(base)
    c = ideal_closure(base)
    carrier = c.closed_sets()
    jt = comp.ops["join"]
    for family in itertools.combinations(range(len(carrier)), 3):
        acc_idx = family[0]
        union = carrier[family[0]]
        for k in family[1:]:
            acc_idx = jt[acc_idx][k]
            union |= carrier[k]
        assert carrier[acc_idx] == c(union)


def test_embedding_preserves_negations_on_pm_fixture():
    pm5 = fixtures.pm5_chain()
    comp, emb = ideal_completion(pm5)
    for i in range(pm5.n):
        assert comp.ops["rneg"][emb[i]] == emb[pm5.ops["rneg"][i]]
        assert comp.ops["lneg"][emb[i]] == emb[pm5.ops["lneg"][i]]


def test_embedding_meets_of_principal_ideals():
    # Lemma 20 shape: the principal ideal of a meet is the intersection
    c4 = fixtures.chain4_min()
    for i in range(c4.n):
        for j in range(c4.n):
            m = c4.meet_partial(i, j)
            assert principal_ideal(c4, m) == \
                principal_ideal(c4, i) & principal_ideal(c4, j)


def test_embedding_json():
    out = embedding_json(fixtures.chain4_min())
    assert out["embedding"]["b"] == ["0", "a", "b"]


def test_down_closure():
    c4 = fixtures.chain4_min()
    assert down_closure(c4, mask_of([2])) == mask_of([0, 1, 2])


# -- the tabulated set product and the pinned completions -------------------

def set_product_oracle(m, xmask, ymask):
    """X * Y = {x * y : x in X, y in Y}, element by element."""
    ft = m.ops["fus"]
    out = 0
    for x in bits(xmask):
        for y in bits(ymask):
            out |= 1 << ft[x][y]
    return out


@functools.cache
def _msl_upto_4():
    return tuple(a for n in (1, 2, 3, 4)
                 for a in enumerate_algebras(VarietyId("Msl"), n))


def test_set_product_table_matches_the_oracle():
    algebras = _msl_upto_4() + (
        fixtures.boolean2(), fixtures.chain3_nilpotent(),
        fixtures.chain4_min(), fixtures.diamond(), fixtures.pm5_chain())
    for m in algebras:
        table = _set_product_table(m)
        size = 1 << m.n
        assert len(table) == size
        for xmask in range(size):
            assert table[xmask] == [set_product_oracle(m, xmask, ymask)
                                    for ymask in range(size)], m.name


# sha256 of the ideal completion (names, tables, constants) and the
# embedding of every Msl member of size <= 4, as computed with the
# element-by-element set product.
COMPLETION_DIGEST = \
    "54d1c8691d7a98bb3a2ed3b2ac058e4bde322fd3bb8857d706ecacb715ef1c42"


def completion_digest():
    digest = hashlib.sha256()
    for a in _msl_upto_4():
        completion, embedding = ideal_completion(a)
        record = [a.name, to_json_dict(completion), sorted(embedding.items())]
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_ideal_completions_are_pinned():
    assert completion_digest() == COMPLETION_DIGEST
