"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random

import pytest

from substrukt.syntax import Language, PRESET_NAMES, mirror_formula
from substrukt.sequents import mirror_sequent, parse_sequent, rho, tau
from substrukt.calculus import calculus, check_proof, lemma12_roundtrip, mirror_proof
from substrukt.search import Proved, Refuted, prove, prove_with_hyps
from substrukt.algebra import (VarietyId, check_property_equivalences,
                               check_variety, enumerate_algebras, eval_term,
                               language_of_family, opposite, reduct)
from substrukt.bridge import (Found, NotFound, canonical_filter, countermodel,
                              filter_congruence_correspondence)
from substrukt.completion import (bits, completion_needs_empty_set,
                                  ideal_completion, ideal_generated, mask_of,
                                  verify_embedding)
from substrukt.corpus import (random_derivation, random_formula,
                              random_pomonoid, random_msl, random_sequent,
                              rng_from_env)
from substrukt.hilbert import (axioms_to_sequents, hilbert_system,
                               matching_calculus, preset_hfl, preset_hfle,
                               preset_van_alten_raftery, rules_to_sequents)
from substrukt import fixtures
from filter_oracle import filter_closed_expanded

SIGMA_CODES = ("e", "wl", "wr", "c")
ALL_SIGMAS = [frozenset(c) for k in range(5)
              for c in itertools.combinations(SIGMA_CODES, k)]
FAMILIES = ("Msl", "Ml", "PMsl", "PMl", "FL")

_enum_cache = {}


def enumerated(family, sigma, size):
    key = (family, sigma, size)
    if key not in _enum_cache:
        _enum_cache[key] = tuple(
            enumerate_algebras(VarietyId(family, sigma), size))
    return _enum_cache[key]


def enumerated_upto(family, sigma, max_size):
    out = []
    for size in range(1, max_size + 1):
        out.extend(enumerated(family, sigma, size))
    return out


def sigma_flags(a):
    return frozenset(c for c in SIGMA_CODES
                     if check_variety(a, VarietyId("Msl", frozenset([c]))).ok)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:>2} [{label}]: {status}{suffix}")


def test_criterion_1_mirror_law_suite():
    """200 random derivable sequents per sigma; the mirror proves and the
    mirrored proof checks."""
    rng = rng_from_env(default_seed=1001)
    sigmas = ["", "e", "wl", "wl,wr", "e,wl,wr,c"]
    failures = []
    for sigma in sigmas:
        cal = calculus(sigma)
        bound = 50 if "c" in sigma else None
        for k in range(200):
            tree = random_derivation(rng, cal, height=5)
            mirrored = mirror_proof(tree)
            if not check_proof(mirrored, cal):
                failures.append((sigma, k, "mirrored proof rejected"))
                continue
            goal = mirror_sequent(tree.conclusion)
            if not isinstance(prove(goal, cal, bound=bound), Proved):
                failures.append((sigma, k, "mirror not proved"))
    report(1, "mirror law", not failures, f"{len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_2_algebraization_roundtrip():
    """100 random sequents per language preset: the constructive proofs of
    the round-trip check in both directions."""
    rng = rng_from_env(default_seed=1002)
    failures = []
    for preset in PRESET_NAMES:
        lang = Language.preset(preset)
        cal = calculus("", lang)
        for k in range(100):
            s = random_sequent(rng, depth=3, lang=lang)
            forward, backward = lemma12_roundtrip(s)
            translated = rho(next(iter(tau(s))))
            if {t.conclusion for t in forward} != translated:
                failures.append((preset, k, "wrong forward conclusions"))
            for t in forward:
                if not check_proof(t, cal, {s}):
                    failures.append((preset, k, "forward proof rejected"))
            if backward.conclusion != s or \
                    not check_proof(backward, cal, translated):
                failures.append((preset, k, "backward proof rejected"))
    report(2, "roundtrip proofs", not failures, f"{len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_3_canonical_filter_closure():
    """Canonical filters of all enumerated members (size <= 3) are closed
    under every rule, checked by explicit tuple expansion to length 3."""
    checked = 0
    failures = []
    for family in FAMILIES:
        lang = language_of_family(family)
        for sigma in ALL_SIGMAS:
            for a in enumerated_upto(family, sigma, 3):
                slices = canonical_filter(a)
                if not filter_closed_expanded(a, slices, sigma, lang, 3):
                    failures.append((family, sorted(sigma), a.name))
                checked += 1
    report(3, "filter closure", not failures,
           f"{checked} (algebra, sigma) pairs")
    assert not failures, failures[:5]


def _criterion_4_inputs():
    rng = rng_from_env(default_seed=1004)
    inputs = list(enumerated_upto("Msl", frozenset(), 4))
    for k in range(50):
        inputs.append(random_msl(rng, 5 if k % 2 == 0 else 6))
    return inputs


def test_criterion_4_completion_suite():
    """Every completion is a complete FL-algebra, the embedding preserves
    everything it must, and generated-ideal products stay inside the
    generated product ideal (subsets <= 3)."""
    failures = []
    count = 0
    for a in _criterion_4_inputs():
        count += 1
        comp, emb = ideal_completion(a)
        if not check_variety(comp, VarietyId("FL")).ok:
            failures.append((a.name, "completion not FL"))
        rep = verify_embedding(a, comp, emb)
        if not rep.ok:
            failures.append((a.name, rep.failures[:2]))
        ft = a.ops["fus"]
        subsets = [c for k in (1, 2, 3)
                   for c in itertools.combinations(range(a.n), k)]
        for xs in subsets:
            for ys in subsets:
                ix, iy = ideal_generated(a, xs), ideal_generated(a, ys)
                target = ideal_generated(a, {ft[u][v] for u in xs for v in ys})
                prod = mask_of(ft[u][v] for u in bits(ix) for v in bits(iy))
                if prod | target != target:
                    failures.append((a.name, "generated-ideal product"))
    report(4, "completion suite", not failures,
           f"{count} inputs, {len(failures)} failures")
    assert not failures, failures[:5]


@pytest.mark.xfail(
    strict=True,
    reason="documented paper defect: the wr clause of the completion "
    "preservation claim fails when 0 is a non-absorbing bottom (no "
    "FL_wr-algebra contains such an input as a subreduct at all); "
    "see README, Proof search, 'The gap under wr without wl'")
def test_criterion_4_sigma_flag_preservation():
    """Faithful sub-assertion of criterion 4: the completion lands in the
    sigma-subvariety for every structural flag the input satisfies."""
    failures = []
    for a in _criterion_4_inputs():
        comp, _ = ideal_completion(a)
        flags = sigma_flags(a)
        for code in flags:
            if not check_variety(comp, VarietyId("FL", frozenset([code]))).ok:
                failures.append((a.name, code,
                                 completion_needs_empty_set(a)))
    ok = not failures
    report(4, "completion sigma flags", ok,
           f"{len(failures)} flag failures, all wr: "
           f"{all(c == 'wr' for _, c, _ in failures)}")
    assert not failures, failures[:5]


def test_criterion_5_subreduct_closure():
    """Implication-free reducts of enumerated FL_sigma members land in the
    matching implication-free variety."""
    reduct_families = {"core": "Msl", "core-meet": "Ml",
                       "core-neg": "PMsl", "core-meet-neg": "PMl"}
    failures = []
    checked = 0
    for sigma in ALL_SIGMAS:
        for a in enumerated_upto("FL", sigma, 3):
            for preset, family in reduct_families.items():
                sub = reduct(a, Language.preset(preset))
                if not check_variety(sub, VarietyId(family, sigma)).ok:
                    failures.append((sorted(sigma), a.name, family))
                checked += 1
    report(5, "subreduct closure", not failures, f"{checked} reducts")
    assert not failures, failures[:5]


def test_criterion_6_filter_congruence_isomorphism():
    """Filter and variety-congruence lattices match under the Leibniz
    operator on all enumerated members of size <= 3."""
    failures = []
    checked = 0
    for family in FAMILIES:
        for sigma in ALL_SIGMAS:
            for a in enumerated_upto(family, sigma, 3):
                rep = filter_congruence_correspondence(
                    a, VarietyId(family, sigma))
                if not rep.ok:
                    failures.append((family, sorted(sigma), a.name,
                                     rep.failures[:1]))
                checked += 1
    report(6, "filter-congruence", not failures,
           f"{checked} (algebra, sigma) pairs")
    assert not failures, failures[:5]


def test_criterion_7_property_equivalences():
    """500 random pointed po-monoids of size <= 4: quasi-inequation and
    equation agree for all four structural properties."""
    rng = rng_from_env(default_seed=1007)
    failures = []
    for k in range(500):
        a = random_pomonoid(rng, rng.randint(1, 4))
        rep = check_property_equivalences(a)
        for code, verdict in rep.items():
            if not verdict["agree"]:
                failures.append((k, code, verdict))
    report(7, "property equivalences", not failures, "500 po-monoids")
    assert not failures, failures[:5]


def test_criterion_8_decision_agreement():
    """With left-weakening, prover verdicts and bounded countermodel search
    never conflict, and at least 80%% of a 100-sequent corpus gets a
    definitive matched verdict."""
    rng = rng_from_env(default_seed=1008)
    lang = Language.preset("core")
    cal = calculus("wl", lang)
    variety = VarietyId("Msl", frozenset(["wl"]))
    matched = unsound = 0
    corpus = 100
    for _ in range(corpus):
        s = random_sequent(rng, depth=3, variables=("p", "q", "r"), lang=lang)
        verdict = prove(s, cal)
        witness = countermodel(s, variety, 4)
        if isinstance(verdict, Proved):
            if isinstance(witness, Found):
                unsound += 1
            else:
                matched += 1
        elif isinstance(verdict, Refuted) and isinstance(witness, Found):
            matched += 1
    ok = unsound == 0 and matched >= 0.8 * corpus
    report(8, "decision agreement", ok,
           f"matched {matched}/{corpus}, unsound {unsound}")
    assert unsound == 0
    assert matched >= 0.8 * corpus


def test_criterion_9_fixture_refutations():
    """The named fixtures behave exactly as derived."""
    core = Language.preset("core")
    checks = []
    s = parse_sequent("p => p * p", core)
    checks.append(isinstance(prove(s, calculus("", core)), Refuted))
    w = countermodel(s, VarietyId("Msl"), 3)
    checks.append(isinstance(w, Found) and w.algebra.n <= 3)
    comm = parse_sequent("p * q => q * p", core)
    checks.append(isinstance(prove(comm, calculus("", core)), Refuted))
    checks.append(isinstance(prove(comm, calculus("e", core)), Proved))
    rep = check_variety(fixtures.diamond(), VarietyId("Msl"))
    witnesses = dict(rep.violations).get("distrib-r", ())
    checks.append(not rep.ok and {"x": "a", "y": "b", "z": "b"} in witnesses)
    checks.append(all(check_variety(fixtures.chain4_min(),
                                    VarietyId("Ml", sig)).ok
                      for sig in ALL_SIGMAS))
    checks.append(all(check_variety(fixtures.pm5_chain(),
                                    VarietyId("PMl", sig)).ok
                      for sig in ALL_SIGMAS))
    report(9, "fixture refutations", all(checks), f"{checks}")
    assert all(checks)


def test_criterion_10_hilbert_cross_check():
    """Every preset axiom proves in its matching calculus and every rule
    validates by bounded hypothesis search; zero Unknowns."""
    problems = []
    systems = [preset_hfl(), preset_hfle(), preset_van_alten_raftery()]
    systems += [hilbert_system(sigma) for sigma in ALL_SIGMAS]
    for sys in systems:
        cal = matching_calculus(sys)
        axioms = axioms_to_sequents(sys, cal)
        problems += [(sys.name, n, v) for n, v in axioms.verdicts
                     if v != "proved"]
        problems += [(sys.name, n, v) for n, v in rules_to_sequents(sys, cal)
                     if v != "proved"]
    report(10, "hilbert cross-check", not problems,
           f"{len(systems)} systems")
    assert not problems, problems


def test_criterion_11_opposite_mirror_semantics():
    """1000 random (algebra, term, assignment) triples satisfy the
    opposite-evaluation law."""
    rng = rng_from_env(default_seed=1011)
    pool = [a for a in enumerated_upto("FL", frozenset(), 3)]
    pool += [fixtures.pm5_chain()]
    from substrukt.algebra import derive_residuals
    pool += [derive_residuals(fixtures.chain4_min())]
    failures = 0
    for k in range(1000):
        a = pool[k % len(pool)]
        t = random_formula(rng, depth=3, lang=a.language())
        v = {name: rng.randrange(a.n) for name in ("p", "q", "r")}
        if eval_term(opposite(a), mirror_formula(t), v) != eval_term(a, t, v):
            failures += 1
    report(11, "opposite semantics", failures == 0, "1000 triples")
    assert failures == 0
