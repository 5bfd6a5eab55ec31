import hashlib
import json
import random

from substrukt.calculus import calculus, check_proof
from substrukt.corpus import (ENV_SEED, formula_size, random_derivation,
                              random_formula, random_msl, random_pomonoid,
                              random_sequent, rng_from_env)
from substrukt.syntax import Language, connectives_of
from substrukt.algebra import VarietyId, check_variety, to_json_dict


def test_env_seed_pins_rng(monkeypatch):
    monkeypatch.setenv(ENV_SEED, "12345")
    a = rng_from_env().random()
    b = rng_from_env().random()
    assert a == b
    monkeypatch.delenv(ENV_SEED)
    assert rng_from_env(7).random() == random.Random(7).random()


def test_random_formula_respects_language():
    rng = random.Random(0)
    core = Language.preset("core")
    for _ in range(50):
        f = random_formula(rng, depth=4, lang=core)
        assert connectives_of(f) <= core.connectives


def test_random_derivations_check():
    rng = random.Random(1)
    for sigma in ("", "e", "wl,wr,c"):
        cal = calculus(sigma)
        for _ in range(20):
            tree = random_derivation(rng, cal, height=5)
            assert tree.height() <= 5
            assert check_proof(tree, cal)


def test_random_sequent_shape():
    rng = random.Random(2)
    for _ in range(30):
        s = random_sequent(rng, depth=2, max_antecedent=2)
        assert len(s.antecedent) <= 2
        for f in s.antecedent:
            assert formula_size(f) >= 1


def test_random_msl_is_msl():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        a = random_msl(rng, n)
        assert check_variety(a, VarietyId("Msl")).ok


def test_random_pomonoid_is_monotone_monoid():
    rng = random.Random(4)
    for _ in range(20):
        a = random_pomonoid(rng, rng.randint(1, 4))
        ft = a.ops["fus"]
        for i in range(a.n):
            assert ft[a.one][i] == i and ft[i][a.one] == i
            for j in range(a.n):
                for k in range(a.n):
                    assert ft[ft[i][j]][k] == ft[i][ft[j][k]]
                    if a.leq(i, j):
                        assert a.leq(ft[i][k], ft[j][k])
                        assert a.leq(ft[k][i], ft[k][j])


def test_seeded_random_algebras_are_pinned():
    # sha256 of the algebras as drawn before random_semilattice took its
    # join table from algebra._join_table_from_leq and monoid_tables began
    # to check only the constraints that read the new cell
    digest = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(seed)
        for n in (1, 2, 3, 4, 5):
            for a in (random_pomonoid(rng, n), random_msl(rng, n)):
                record = [a.name, to_json_dict(a)]
                digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "d87d31554c508bd30c94ea83fb0f7062dc23ce09b0e75e2afbf552437e5dfdbf"
