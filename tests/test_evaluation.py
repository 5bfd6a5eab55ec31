"""Compiled term evaluation against the per-assignment definition.

The oracles below are the straightforward loops: one dict assignment per
point of the product, each side evaluated with `eval_term`.  The compiled
programs of `algebra`, run bit-sliced over pools of algebras, and the
countermodel scans of `bridge` must agree with them exactly: same
verdicts, same witnesses in the same order, same first countermodel.
"""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from substrukt import algebra, fixtures
from substrukt.algebra import (BINARY_OPS, FAMILY_OPS, UNARY_OPS,
                               FiniteAlgebra, VarietyId, VarietyReport,
                               _family_bases, assignment_at, check_variety,
                               compile_equations, compile_terms,
                               enumerate_algebras, equation_witnesses,
                               eval_term, failures, holds, members,
                               language_of_family, pool_masks, reduct,
                               satisfies_equation, satisfies_quasi,
                               variety_equations, variety_program)
from substrukt.bridge import Found, NotFound, _enumerated, countermodel
from substrukt.corpus import (random_msl, random_pomonoid, random_semilattice,
                             random_sequent)
from substrukt.sequents import (Equation, Sequent, ineq, parse_sequent,
                                tau_equation)
from substrukt.syntax import (Bin, Const, Language, Neg, fus, join, meet, var,
                              variables_of)

ALL_SIGMAS = [frozenset(c) for k in range(5)
              for c in itertools.combinations(("e", "wl", "wr", "c"), k)]


# -- the oracles: one dict assignment per point -----------------------------

def equation_variables(e):
    return variables_of(e.lhs) | variables_of(e.rhs)


def _assignments(a, names):
    names = sorted(names)
    for values in itertools.product(range(a.n), repeat=len(names)):
        yield dict(zip(names, values))


def oracle_witnesses(a, e, cap=50):
    out = []
    for v in _assignments(a, equation_variables(e)):
        if not holds(a, e, v):
            out.append({k: a.elements[i] for k, i in v.items()})
            if len(out) >= cap:
                break
    return out


def oracle_check_variety(a, v):
    missing = tuple(sorted(FAMILY_OPS[v.family] - frozenset(a.ops)))
    if missing:
        return (False, missing, ())
    violations = []
    for name, eq in variety_equations(v):
        witnesses = oracle_witnesses(a, eq)
        if witnesses:
            violations.append((name, tuple(witnesses)))
    return (not violations, (), tuple(violations))


def oracle_first_countermodel(hyp_eqs, goal_eq, v, max_size):
    names = set(equation_variables(goal_eq))
    for eq in hyp_eqs:
        names |= equation_variables(eq)
    for size in range(1, max_size + 1):
        for a in _enumerated(v, size):
            for assignment in _assignments(a, names):
                if all(holds(a, eq, assignment) for eq in hyp_eqs) and \
                        not holds(a, goal_eq, assignment):
                    return a, {k: a.elements[i] for k, i in assignment.items()}
    return None


# -- inputs -----------------------------------------------------------------

@functools.cache
def _members(family):
    """Every member of the family (sigma empty) of size <= 3."""
    return tuple(a for n in (1, 2, 3)
                 for a in enumerate_algebras(VarietyId(family), n))


def _random_algebra(rng, n):
    """A semilattice with every other table random: a member of no family,
    so every equation can fail, some under more than 50 assignments."""
    jt, _ = random_semilattice(rng, n)
    ops = {"join": jt}
    for op in BINARY_OPS[1:]:
        ops[op] = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for op in UNARY_OPS:
        ops[op] = [rng.randrange(n) for _ in range(n)]
    return FiniteAlgebra(f"random{n}", [f"e{i}" for i in range(n)], ops,
                         rng.randrange(n), rng.randrange(n))


def _report(r):
    return (r.ok, r.missing_ops, r.violations)


def in_variety(a, v):
    """Membership by the pool scan on (a,) alone, as enumeration tests it:
    the family's operations, then every equation of the variety's
    program."""
    return FAMILY_OPS[v.family] <= a.ops.keys() and \
        list(members((a,), variety_program(v))) == [a]


# -- check_variety ----------------------------------------------------------

@pytest.mark.parametrize("family", sorted(FAMILY_OPS))
def test_check_variety_matches_oracle_on_enumerated_members(family):
    for sigma in ALL_SIGMAS:
        v = VarietyId(family, sigma)
        for _, pool in itertools.groupby(_members(family), lambda a: a.n):
            pool = tuple(pool)
            ok = []
            for a in pool:
                expected = oracle_check_variety(a, v)
                assert _report(check_variety(a, v)) == expected
                assert in_variety(a, v) == expected[0]
                if expected[0]:
                    ok.append(a)
            assert list(members(pool, variety_program(v))) == ok


def test_check_variety_matches_oracle_on_non_members():
    rng = random.Random(3)
    algebras = [fixtures.boolean2(), fixtures.chain3_nilpotent(),
                fixtures.chain4_min(), fixtures.diamond(),
                fixtures.pm5_chain()]
    algebras += [_random_algebra(rng, n) for n in (2, 3, 3, 4, 4)]
    capped = 0
    for a in algebras:
        for family in sorted(FAMILY_OPS):
            for sigma in (frozenset(), frozenset({"e", "wl", "wr", "c"})):
                v = VarietyId(family, sigma)
                expected = oracle_check_variety(a, v)
                assert _report(check_variety(a, v)) == expected
                assert in_variety(a, v) == expected[0]
                capped += sum(len(w) == 50 for _, w in expected[2])
    assert capped  # the witness cap was reached somewhere


def per_equation_check_variety(a, v):
    """check_variety without the shortcut through the variety's program:
    every equation compiled and run on its own, member or not."""
    missing = tuple(sorted(FAMILY_OPS[v.family] - frozenset(a.ops)))
    if missing:
        return VarietyReport(False, v, missing_ops=missing)
    violations = []
    for name, eq in variety_equations(v):
        witnesses = equation_witnesses(a, eq)
        if witnesses:
            violations.append((name, tuple(witnesses)))
    return VarietyReport(not violations, v, violations=tuple(violations))


def _assert_per_equation_reports(algebras, families):
    """check_variety against the per-equation path on every variety of
    the families; counts the reports that were ok, that missed an
    operation, that listed violations, and that cut a witness list at
    the cap."""
    seen = {"ok": 0, "missing": 0, "violated": 0, "capped": 0}
    for a in algebras:
        for family in families:
            for sigma in ALL_SIGMAS:
                v = VarietyId(family, sigma)
                report = check_variety(a, v)
                assert report == per_equation_check_variety(a, v), (a, v)
                seen["ok"] += report.ok
                seen["missing"] += bool(report.missing_ops)
                seen["violated"] += bool(report.violations)
                seen["capped"] += any(len(w) == 50
                                      for _, w in report.violations)
    return seen


@pytest.mark.parametrize("family", sorted(FAMILY_OPS))
def test_check_variety_matches_the_per_equation_path_on_enumerated_members(
        family):
    seen = _assert_per_equation_reports(_members(family), (family,))
    assert seen["ok"] and seen["violated"], seen


def test_check_variety_matches_the_per_equation_path_on_random_algebras():
    rng = random.Random(7)
    algebras = [random_pomonoid(rng, n) for n in (2, 3, 4, 5)]
    algebras += [random_msl(rng, n) for n in (2, 3, 4, 5)]
    algebras += [_random_algebra(rng, n) for n in (3, 4)]
    algebras.append(reduct(fixtures.pm5_chain(), Language.preset("core")))
    seen = _assert_per_equation_reports(algebras, sorted(FAMILY_OPS))
    assert all(seen.values()), seen


# -- countermodels and semantic consequence ---------------------------------

def _corpus(seed, count):
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        preset, family = (("core", "Msl"), ("core-meet", "Ml"),
                          ("full", "FL"))[k % 3]
        lang = Language.preset(preset)
        sigma = rng.choice(ALL_SIGMAS)
        goal = random_sequent(rng, depth=rng.choice((2, 3)), lang=lang)
        hyps = [random_sequent(rng, depth=2, lang=lang)
                for _ in range(rng.randint(0, 2))]
        cases.append((goal, hyps, VarietyId(family, sigma)))
    return cases


def _same(found, expected):
    """A countermodel result and the oracle's agree exactly."""
    if expected is None:
        return False
    a, assignment = expected
    return found.algebra is a and found.assignment == assignment


@pytest.mark.parametrize("family", sorted(FAMILY_OPS))
def test_a_one_element_member_satisfies_every_goal(family):
    """The countermodel scan starts at size 2: each variety's size-1 pool
    is the one trivial algebra, and it satisfies tau of every goal."""
    rng = random.Random(20261022)
    lang = language_of_family(family)
    for sigma in ALL_SIGMAS:
        v = VarietyId(family, sigma)
        (a,) = _enumerated(v, 1)
        for _ in range(20):
            goal = random_sequent(rng, depth=rng.choice((2, 3)), lang=lang)
            e = tau_equation(goal)
            assert all(holds(a, e, assignment) for assignment
                       in _assignments(a, equation_variables(e))), goal
            assert countermodel(goal, v, 1) == NotFound(1)


def test_countermodel_matches_oracle_on_a_seeded_corpus():
    kinds = {"found": 0, "not found": 0}
    for goal, _, v in _corpus(11, 300):
        result = countermodel(goal, v, 3)
        expected = oracle_first_countermodel([], tau_equation(goal), v, 3)
        if isinstance(result, Found):
            assert _same(result, expected), goal
            kinds["found"] += 1
        else:
            assert result == NotFound(3) and expected is None, goal
            kinds["not found"] += 1
    assert all(kinds.values())


def test_countermodel_with_hypotheses_matches_oracle_on_a_seeded_corpus():
    kinds = {"refuted": 0, "no countermodel": 0}
    for goal, hyps, v in _corpus(12, 300):
        result = countermodel(goal, v, 3, hyps=hyps)
        hyp_eqs = [tau_equation(h) for h in sorted(hyps, key=str)]
        expected = oracle_first_countermodel(hyp_eqs, tau_equation(goal), v, 3)
        if isinstance(result, Found):
            assert _same(result, expected), (hyps, goal)
            kinds["refuted"] += 1
        else:
            assert result == NotFound(3), (hyps, goal)
            assert expected is None, (hyps, goal)
            kinds["no countermodel"] += 1
    assert all(kinds.values())


# The scan runs each step once on all of a size's members.  The cases below
# put it to work: Msl and Ml pools at size 4, where members that differ
# only in 0 are neighbours; premises; and a program too large for one
# block, where each member runs alone, in blocks.

def _lattice_corpus(seed, count, max_hyps):
    """Msl and Ml goals under the decide benchmark's sigmas, each with up
    to max_hyps hypotheses."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        preset, family = (("core", "Msl"), ("core-meet", "Ml"))[k % 2]
        lang = Language.preset(preset)
        sigma = rng.choice((frozenset(), frozenset({"e"}), frozenset({"wl"})))
        goal = random_sequent(rng, depth=2, lang=lang)
        hyps = [random_sequent(rng, depth=2, lang=lang)
                for _ in range(rng.randint(1, max_hyps))]
        cases.append((goal, hyps, VarietyId(family, sigma)))
    return cases


# Ml goals whose first countermodel has four elements
REFUTED_AT_4 = ("0 => (1 /\\ 0) * (r \\/ 0) \\/ 1",
                "(q /\\ p \\/ q * q) /\\ 1 => q \\/ p /\\ (0 \\/ 0)")


def test_countermodel_matches_oracle_at_size_4():
    kinds = {"found at 4": 0, "found below 4": 0, "not found": 0}
    lang = Language.preset("core-meet")
    cases = [(goal, v) for goal, _, v in _lattice_corpus(13, 120, 1)]
    cases += [(parse_sequent(text, lang), VarietyId("Ml"))
              for text in REFUTED_AT_4]
    for goal, v in cases:
        result = countermodel(goal, v, 4)
        expected = oracle_first_countermodel([], tau_equation(goal), v, 4)
        if isinstance(result, Found):
            assert _same(result, expected), goal
            kinds["found at 4" if result.algebra.n == 4
                  else "found below 4"] += 1
        else:
            assert result == NotFound(4) and expected is None, goal
            kinds["not found"] += 1
    assert all(kinds.values()), kinds


def test_countermodel_with_hypotheses_matches_oracle_at_size_4():
    kinds = {"refuted": 0, "no countermodel": 0, "two hypotheses": 0}
    for goal, hyps, v in _lattice_corpus(14, 60, 2):
        result = countermodel(goal, v, 4, hyps=hyps)
        hyp_eqs = [tau_equation(h) for h in sorted(hyps, key=str)]
        expected = oracle_first_countermodel(hyp_eqs, tau_equation(goal), v, 4)
        if isinstance(result, Found):
            assert _same(result, expected), (hyps, goal)
            kinds["refuted"] += 1
        else:
            assert result == NotFound(4), (hyps, goal)
            assert expected is None, (hyps, goal)
            kinds["no countermodel"] += 1
        kinds["two hypotheses"] += len(hyps) == 2
    assert all(kinds.values()), kinds


def _padded(s: Sequent) -> Sequent:
    """s with three more variables and the same meaning in every lattice:
    the succedent d becomes d /\\ (d \\/ (s \\/ (t \\/ u))) (absorption)."""
    d = s.succedent
    extra = join(var("s"), join(var("t"), var("u")))
    return Sequent(s.antecedent, meet(d, join(d, extra)))


def test_countermodel_matches_oracle_on_multi_block_programs(monkeypatch):
    # under a budget of 1024 bits, a six-variable goal runs on a member of
    # size 4 in 4 blocks of 4 ** 5 = 1024 assignments, led by p; Ml[wl,wr]
    # has 9 such members and Ml[wl,wr,c] 2
    monkeypatch.setattr(algebra, "_BITS", 1024)
    lang = Language.preset("core-meet")
    refuted = _padded(parse_sequent(
        "q * q * (r \\/ 1) /\\ r, 0 /\\ 0 \\/ (p \\/ q) * (p /\\ r) "
        "=> (p /\\ r) * (1 * q) * ((0 \\/ r) * 1)", lang))
    valid = _padded(parse_sequent("p, q, r => p /\\ q /\\ r", lang))
    cases = ((refuted, VarietyId("Ml", frozenset({"wl", "wr"}))),
             (valid, VarietyId("Ml", frozenset({"wl", "wr", "c"}))))
    for goal, v in cases:
        program = compile_equations([tau_equation(goal)])
        assert len(program.names) == 6
        a = _enumerated(v, 4)[0]
        assert [start for _, start, _, _ in
                algebra._runs((a,), program, {})] == [0, 1024, 2048, 3072]
    (refuted, v), (valid, w) = cases
    found = countermodel(refuted, v, 4)
    assert isinstance(found, Found) and found.algebra.n == 4
    assert found.assignment["p"] != "e0"  # not in the first block
    assert _same(found, oracle_first_countermodel(
        [], tau_equation(refuted), v, 4))
    assert countermodel(valid, w, 4) == NotFound(4)
    assert oracle_first_countermodel([], tau_equation(valid), w, 4) is None


# -- compiled programs against eval_term ------------------------------------

def _terms():
    leaves = st.sampled_from([var("x"), var("y"), var("z"), Const("zero"),
                              Const("one")])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Bin, st.sampled_from(BINARY_OPS), kids, kids),
            st.builds(Neg, st.sampled_from(UNARY_OPS), kids)),
        max_leaves=12)


@given(st.lists(_terms(), min_size=1, max_size=3),
       st.sampled_from(_members("FL")))
@settings(max_examples=150, deadline=None)
def test_compiled_values_equal_eval_term(terms, a):
    # one run: bit `index` of each output's masks is set in exactly the
    # mask of its value at that assignment
    program = compile_terms(terms, ("x", "y", "z"))
    (run, start, count, slots), = algebra._runs((a,), program, {})
    assert run == (a,) and start == 0 and count == a.n ** 3
    for index in range(count):
        assignment = assignment_at(a, program, index)
        values = [[v for v, mask in enumerate(slots[s]) if mask >> index & 1]
                  for s in program.outputs]
        assert values == [[eval_term(a, t, assignment)] for t in terms]


def test_repeated_subterms_share_a_slot():
    x, y = var("x"), var("y")
    shared = fus(join(x, y), join(x, y))
    program = compile_terms([shared, join(shared, x)], ("x", "y"))
    assert len(program.steps) == 3  # x v y, its square, and the outer join


def test_variety_programs_are_pinned():
    """The steps of the 96 variety programs, in FAMILY_OPS order and then
    sigma by size: numbering the subterms once keeps the step order of
    the per-term walk that compiled them before."""
    digest = hashlib.sha256()
    for family in FAMILY_OPS:
        for sigma in ALL_SIGMAS:
            p = variety_program(VarietyId(family, sigma))
            digest.update(repr((p.names, p.steps, p.outputs)).encode())
    assert digest.hexdigest() == ("1a8d84740e5acaa82c303e77ca4e2e51"
                                  "8611f1ec2cf1b3c68eb8785a925bc7d3")


def test_failures_across_blocks_match_oracle(monkeypatch):
    # under a budget of 729 bits, 3 ** 7 assignments run in three blocks
    # of 3 ** 6
    monkeypatch.setattr(algebra, "_BITS", 729)
    names = [f"v{i}" for i in range(7)]
    product = fus(var(names[0]), var(names[1]))
    for name in names[2:]:
        product = fus(product, var(name))
    eq = ineq(product, var("v6"))
    a = fixtures.chain3_nilpotent()
    program = compile_equations([eq])
    assert [start for _, start, _, _ in algebra._runs((a,), program, {})] \
        == [0, 729, 1458]
    expected = [i for i, v in enumerate(_assignments(a, names))
                if not holds(a, eq, v)]
    assert [i for _, i in failures((a,), program)] == expected
    assert satisfies_equation(a, eq) == (not expected)


# -- the bit budget: runs of a pool and blocks of one algebra ---------------

def test_scans_match_the_oracles_in_several_runs_and_blocks(monkeypatch):
    # under a budget of 128 bits a size-3 pool of three variables runs 4
    # algebras at a time and a size-4 pool 2; a padded goal of five or six
    # variables runs each algebra of size 3 alone, in blocks of 3 ** 4
    monkeypatch.setattr(algebra, "_BITS", 128)
    for v in (VarietyId("Msl"), VarietyId("Ml", frozenset({"e"})),
              VarietyId("FL", frozenset({"wl"}))):
        program = variety_program(v)
        for n in (3, 4):
            pool = _family_bases(v.family, n)
            runs = [len(run) for run, _, _, _ in
                    algebra._runs(pool, program, {})]
            assert len(runs) > 1 and max(runs) == 128 // n ** 3
            expected = [a for a in pool if check_variety(a, v).ok]
            assert list(members(pool, program)) == expected, (v, n)
            assert list(members(pool, program, pool_masks(pool))) == \
                expected
    lang = Language.preset("core-meet")
    cases = [(goal, hyps if k % 2 else [], v)
             for k, (goal, hyps, v) in enumerate(_lattice_corpus(15, 40, 2))]
    for text, sigma in (("p, q, r => p /\\ q /\\ r", {"wl", "wr"}),
                        (REFUTED_AT_4[1], {"e"}), ("p * q => q * p", ())):
        cases.append((_padded(parse_sequent(text, lang)), [],
                      VarietyId("Ml", frozenset(sigma))))
    kinds = {"found": 0, "not found": 0, "hypotheses": 0,
             "found in blocks": 0, "none in blocks": 0}
    for goal, hyps, v in cases:
        result = countermodel(goal, v, 3, hyps=hyps)
        hyp_eqs = [tau_equation(h) for h in sorted(hyps, key=str)]
        expected = oracle_first_countermodel(hyp_eqs, tau_equation(goal), v, 3)
        if isinstance(result, Found):
            assert _same(result, expected), (hyps, goal)
            kinds["found"] += 1
        else:
            assert result == NotFound(3) and expected is None, (hyps, goal)
            kinds["not found"] += 1
        kinds["hypotheses"] += bool(hyps)
        names = compile_equations(hyp_eqs + [tau_equation(goal)]).names
        if 3 ** len(names) > 128 and (not result or result.algebra.n == 3):
            kinds["found in blocks" if result else "none in blocks"] += 1
    assert all(kinds.values()), kinds


def test_a_changed_fusion_cell_is_scanned_with_its_own_masks():
    # a member of Msl with one fusion cell changed, put next to it in the
    # place of its neighbour: a pool of the same size and variety, whose
    # masks a cache keyed by less than the pool would take from the first
    v = VarietyId("Msl")
    program = variety_program(v)
    pool = _enumerated(v, 3)
    assert list(members(pool, program, pool_masks(pool))) == list(pool)
    a = pool[0]
    for i, j, w in itertools.product(range(3), repeat=3):
        table = [list(row) for row in a.ops["fus"]]
        table[i][j] = w
        mutant = FiniteAlgebra("mutant", a.elements,
                               {**a.ops, "fus": table}, a.zero, a.one)
        if not oracle_check_variety(mutant, v)[0]:
            break
    mutated = (a, mutant) + pool[2:]
    assert list(members(mutated, program, pool_masks(mutated))) == \
        [b for b in mutated if oracle_check_variety(b, v)[0]]
    assert mutant not in list(members(mutated, program,
                                      pool_masks(mutated)))
    name, eq = next((name, eq) for name, eq in variety_equations(v)
                    if oracle_witnesses(mutant, eq))
    single = compile_equations([eq])
    assert next(failures(pool, single, pool_masks(pool)), None) is None
    names = sorted(single.names)
    expected = [(mutant, w) for w in _assignments(mutant, names)
                if not holds(mutant, eq, w)]
    assert expected, name
    assert [(b, assignment_at(b, single, i)) for b, i in
            failures(mutated, single, pool_masks(mutated))] == expected


def test_satisfies_quasi_matches_oracle():
    x, y, z = var("x"), var("y"), var("z")
    premises = [ineq(fus(x, y), z)]
    conclusions = [ineq(fus(y, x), z), ineq(x, z), ineq(fus(x, fus(y, x)), z)]
    for a in _members("Msl"):
        for conclusion in conclusions:
            expected = all(not all(holds(a, p, v) for p in premises)
                           or holds(a, conclusion, v)
                           for v in _assignments(a, ("x", "y", "z")))
            assert satisfies_quasi(a, premises, conclusion) == expected


# -- deep terms -------------------------------------------------------------

DEPTH = 3000


def _deep_product(names):
    out = var(names[0])
    for k in range(1, DEPTH):
        out = fus(out, var(names[k % len(names)]))
    return out


def test_eval_term_handles_deep_terms():
    a = fixtures.chain3_nilpotent()
    deep = _deep_product(["p"])
    assert eval_term(a, deep, {"p": 2}) == 2  # the unit: 1 * 1 * ... = 1
    assert eval_term(a, deep, {"p": 1}) == 0


def test_satisfies_equation_handles_deep_terms():
    a = fixtures.boolean2()
    deep = _deep_product(["p", "q"])
    assert satisfies_equation(a, ineq(deep, var("p")))
    assert not satisfies_equation(a, Equation(deep, var("p")))


def test_countermodel_handles_long_antecedents():
    v = VarietyId("Msl")
    p, q = var("p"), var("q")
    refuted = countermodel(Sequent((p,) * DEPTH, q), v, 2)
    assert isinstance(refuted, Found) and refuted.algebra.n == 2
    antecedent = (p, q) * (DEPTH // 2)
    proved = Sequent(antecedent, _deep_product(["p", "q"]))
    assert countermodel(proved, v, 2) == NotFound(2)
