"""The search's pruning by the two-element members of K_sigma: each is a
member of its variety whose fusion is meet or join, the bit masks of
`_model` are their values as `eval_term` gives them, a goal is falsified
exactly when a countermodel of size 2 exists, and pruning changes only
the work done."""

import itertools
import random

import pytest

from substrukt import bridge, fixtures, search
from substrukt.algebra import (FAMILY_OPS, AlgebraError, FiniteAlgebra,
                               VarietyId, check_variety,
                               derive_pseudocomplements, derive_residuals,
                               eval_term, holds, language_of_family, reduct)
from substrukt.bridge import Found, countermodel, two_element_tables
from substrukt.calculus import calculus
from substrukt.corpus import random_sequent
from substrukt.search import (_MODEL_VARIABLES, _Search, _falsified, _model,
                              _variety, prove)
from substrukt.sequents import encode_sequents, parse_sequent, tau_equation
from substrukt.syntax import PRESET_NAMES, Language
from verdict_text import verdict_text

SIGMAS = [frozenset(c) for k in range(5)
          for c in itertools.combinations(("e", "wl", "wr", "c"), k)]
C_FREE = [",".join(sorted(s)) for s in SIGMAS if "c" not in s]
# sigma = {c} is left out: its bounded search does not commit to invertible
# rules and runs for minutes on some of these goals
BOUNDED = ("e,c", "wr,c", "e,wr,c")


def _b2():
    """B2 with every operation of the full language."""
    return derive_pseudocomplements(derive_residuals(fixtures.boolean2()))


def _variety_of(preset, sigma):
    return _variety(calculus(sigma, Language.preset(preset)))


def test_b2_is_a_member_of_every_variety():
    """B2 and every two-element member the model uses pass check_variety,
    and each member's fusion is its meet (1 the top) or its join (1 the
    bottom)."""
    b2 = _b2()
    checked = members = 0
    for family in FAMILY_OPS:
        a = reduct(b2, language_of_family(family))
        for sigma in SIGMAS:
            v = VarietyId(family, sigma)
            assert check_variety(a, v).ok, (family, sigma)
            used = two_element_tables(v, 0).members
            for m in used:
                assert check_variety(m, v).ok, (m, v)
                top, bottom = m.top(), 1 - m.top()
                meet = [[top if x == y == top else bottom for y in (0, 1)]
                        for x in (0, 1)]
                join = [[bottom if x == y == bottom else top
                         for y in (0, 1)] for x in (0, 1)]
                fus = [list(row) for row in m.ops["fus"]]
                assert fus == (meet if m.one == top else join), (m, v)
            # B2: 1 the top and 0 the bottom
            assert any(m.one == m.top() != m.zero for m in used), v
            members += len(used)
            checked += 1
    assert checked == 96
    # 4 members at most: 1 and 0 each at the top or the bottom
    assert members == 176


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_boolean_model_agrees_with_eval_term(preset):
    """Each formula's mask, bit by bit, is its value in the member and
    under the assignment that bit stands for (set: the member's top); a
    goal is falsified exactly when some such member and assignment
    falsifies tau(goal)."""
    rng = random.Random(20261019)
    lang = Language.preset(preset)
    many = tuple(f"v{i}" for i in range(_MODEL_VARIABLES + 3))
    assignments = falsified = 0
    for k in range(200):
        variables = many if k % 10 == 0 else ("p", "q", "r")
        sigma = C_FREE[k % len(C_FREE)]
        goal = random_sequent(rng, depth=rng.randint(0, 4), lang=lang,
                              variables=variables, max_antecedent=3)
        table, (encoded,) = encode_sequents((goal,))
        # the model's loop order: every number once, children first
        at = {f: i for i, f in enumerate(table.post)}
        assert sorted(at) == list(range(len(table)))
        for f, i in at.items():
            assert all(at[c] < i for c in (table.left[f], table.right[f])
                       if c >= 0)
        v = _variety_of(preset, sigma)
        model = _model(table, v)
        values = model[2]
        names = [f.name for f, op in zip(table.formulas, table.op)
                 if op == "var"]
        w = min(len(names), _MODEL_VARIABLES)
        fails = False
        for m, a in enumerate(two_element_tables(v, w).members):
            top = a.top()
            for j in range(m << w, m + 1 << w):
                assignment = {name: top if values[i] >> j & 1 else 1 - top
                              for i, name in enumerate(names)}
                for f, formula in enumerate(table.formulas):
                    assert (values[f] >> j & 1) == \
                        (eval_term(a, formula, assignment) == top)
                fails |= not holds(a, tau_equation(goal), assignment)
                assignments += 1
        assert _falsified(model, encoded) == fails
        falsified += fails
    assert assignments > 2000 and 100 < falsified < 180


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_falsified_exactly_when_a_countermodel_of_size_2_exists(preset):
    """With at most _MODEL_VARIABLES variables the masks span every
    assignment, so a goal is falsified exactly when `countermodel` finds
    a member of K_sigma of at most two elements that refutes it."""
    rng = random.Random(20261021)
    lang = Language.preset(preset)
    falsified = 0
    for sigma in C_FREE:
        v = _variety_of(preset, sigma)
        for _ in range(60):
            goal = random_sequent(rng, depth=rng.randint(1, 3), lang=lang,
                                  max_antecedent=3)
            table, (encoded,) = encode_sequents((goal,))
            found = isinstance(countermodel(goal, v, 2), Found)
            assert _falsified(_model(table, v), encoded) == found, \
                (str(goal), sigma)
            falsified += found
    assert 200 < falsified < 420


def test_a_fusion_neither_meet_nor_join_raises(monkeypatch):
    """The model's fusion is and or or, so a member whose fusion is
    neither (here constantly the top, which no monoid has) is an error."""
    odd = FiniteAlgebra("odd", ("a", "b"), {"join": ((0, 1), (1, 1)),
                                            "fus": ((1, 1), (1, 1))}, 0, 1)
    monkeypatch.setattr(bridge, "_enumerated", lambda v, size: (odd,))
    two_element_tables.cache_clear()
    try:
        with pytest.raises(AlgebraError, match="fus"):
            two_element_tables(VarietyId("Msl"), 0)
    finally:
        two_element_tables.cache_clear()


def test_mask_width_is_bounded():
    """A mask has at most members * 2 ** _MODEL_VARIABLES bits, however
    many variables the goal has."""
    names = [f"v{i}" for i in range(20)]
    goal = parse_sequent(", ".join(names) + " => " + " * ".join(names))
    table, _ = encode_sequents((goal,))
    for preset in PRESET_NAMES:
        v = _variety_of(preset, "")
        meets, joins, values = _model(table, v)
        members = len(two_element_tables(v, _MODEL_VARIABLES).members)
        full = (1 << (members << _MODEL_VARIABLES)) - 1
        assert meets | joins == full
        assert all(0 <= x <= full for x in values)


def _verdicts(goals, monkeypatch, pruned):
    """The verdict text of each (goal, calculus) by `prove`, and the goals
    expanded by its searches without c: all of them, and those of the
    FL_{sigma - c} fallback of the bounded regime.  Unpruned, each search
    has its model taken away."""
    expanded = {"all": 0, "fallback": 0}

    class Search(_Search):
        def __init__(self, cal, table, *args, **kwargs):
            super().__init__(cal, table, *args, **kwargs)
            # a search without c in a call with c is the FL_{sigma - c} step
            self.kind = (None if "c" in cal.sigma
                         else "fallback" if "c" in called.sigma else "all")
            if not pruned:
                self.model = None

        def _expand(self, goal):
            if self.kind == "fallback":
                expanded["fallback"] += 1
            if self.kind is not None:
                expanded["all"] += 1
            return super()._expand(goal)

    monkeypatch.setattr(search, "_Search", Search)
    texts = []
    for goal, called in goals:
        texts.append(verdict_text(prove(goal, called)))
    return texts, expanded


def _pruning_corpus():
    """Random goals in every preset under every sigma without c, goals
    with many variables, and core goals in the bounded regime."""
    rng = random.Random(20261020)
    goals = []
    for preset in PRESET_NAMES:
        lang = Language.preset(preset)
        for sigma in C_FREE:
            cal = calculus(sigma, lang)
            goals += [(random_sequent(rng, depth=rng.choice((3, 4)),
                                      lang=lang), cal) for _ in range(40)]
    names = [f"v{i}" for i in range(12)]
    wide = [", ".join(names) + " => " + " * ".join(names),
            ", ".join(names) + " => " + " * ".join(reversed(names)),
            " * ".join(names) + " => " + " \\/ ".join(names[1:]) + " * v0"]
    goals += [(parse_sequent(text), calculus(sigma))
              for text in wide for sigma in ("", "e", "wl")]
    lang = Language.preset("core")
    for sigma in BOUNDED:
        cal = calculus(sigma, lang)
        goals += [(random_sequent(rng, depth=rng.choice((2, 3)), lang=lang,
                                  max_antecedent=3), cal)
                  for _ in range(150)]
    return goals


def test_pruning_changes_only_the_work(monkeypatch):
    goals = _pruning_corpus()
    pruned, work = _verdicts(goals, monkeypatch, pruned=True)
    unpruned, full_work = _verdicts(goals, monkeypatch, pruned=False)
    for (goal, cal), a, b in zip(goals, pruned, unpruned):
        assert a == b, (str(goal), cal.sigma)
    assert sum(text.startswith("(") for text in pruned) > 150
    assert work["all"] < 0.3 * full_work["all"]
    assert 0 < work["fallback"] < full_work["fallback"]
