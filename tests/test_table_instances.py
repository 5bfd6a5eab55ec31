"""The backward rule enumerator of the search against Sequent-level oracles.

The search enumerates rule instances on table sequents (tuples of
subformula numbers), with `calculus.table_instances_backward`.  The oracles
below enumerate on `Sequent`s and `Formula`s directly, as the search did
before it was compiled: decoded, the table instances must be the same, in
the same order once the oracle's list is stably sorted into the order in
which the search tries rules, and each must be a genuine rule instance by
`derive_conclusion`.
"""

import itertools
import random

from substrukt.syntax import Bin, Language, Neg, ONE, ZERO, formula_key, fus
from substrukt.syntax import join, subformulas, var
from substrukt.sequents import (Sequent, decode_sequent, encode_sequents,
                                parse_sequent)
from substrukt.calculus import (SUBMULTISET_CAP, RuleId, calculus,
                                check_leaf, decode_data, derive_conclusion,
                                format_proof_sexp, rule_instances_backward,
                                rules_of, table_instances_backward)
from substrukt.corpus import random_sequent
from substrukt.search import Proved, Refuted, Unknown, _Search, prove

SIGMAS = ["".join(c) for k in range(5)
          for c in itertools.combinations(("e,", "wl,", "wr,", "c,"), k)]


# ---------------------------------------------------------------------------
# Oracles: the Sequent-level enumerators
# ---------------------------------------------------------------------------

def oracle_rule_instances_backward(goal, rules, include_exchange=True):
    a, d = goal.antecedent, goal.succedent
    out = []

    def emit(rule, data, premises):
        if rule in rules:
            out.append((rule, data, tuple(premises)))

    if len(a) == 1 and d == a[0]:
        emit(RuleId.AXIOM, (), ())
    if a == () and d == ONE:
        emit(RuleId.ONE_R, (), ())
    if a == (ZERO,) and d is None:
        emit(RuleId.ZERO_L, (), ())

    for i, f in enumerate(a):
        rest_l, rest_r = a[:i], a[i + 1:]
        if isinstance(f, Bin):
            if f.op == "join":
                emit(RuleId.OR_L, (i,),
                     [Sequent(rest_l + (f.left,) + rest_r, d),
                      Sequent(rest_l + (f.right,) + rest_r, d)])
            elif f.op == "meet":
                emit(RuleId.AND_L1, (i, f.right),
                     [Sequent(rest_l + (f.left,) + rest_r, d)])
                emit(RuleId.AND_L2, (i, f.left),
                     [Sequent(rest_l + (f.right,) + rest_r, d)])
            elif f.op == "fus":
                emit(RuleId.FUS_L, (i,),
                     [Sequent(rest_l + (f.left, f.right) + rest_r, d)])
            elif f.op == "rimp":
                for j in range(i + 1):
                    emit(RuleId.RIMP_L, (j,),
                         [Sequent(a[j:i], f.left),
                          Sequent(a[:j] + (f.right,) + rest_r, d)])
            elif f.op == "limp":
                for k in range(i + 1, len(a) + 1):
                    emit(RuleId.LIMP_L, (i,),
                         [Sequent(a[i + 1:k], f.left),
                          Sequent(rest_l + (f.right,) + a[k:], d)])
        if f == ONE:
            emit(RuleId.ONE_L, (i,), [Sequent(rest_l + rest_r, d)])
        if RuleId.WEAK_L in rules:
            emit(RuleId.WEAK_L, (i, f), [Sequent(rest_l + rest_r, d)])
        if RuleId.CONTR_L in rules:
            emit(RuleId.CONTR_L, (i,),
                 [Sequent(a[:i + 1] + (f,) + a[i + 1:], d)])

    if d is not None:
        if isinstance(d, Bin):
            if d.op == "join":
                emit(RuleId.OR_R1, (d.right,), [Sequent(a, d.left)])
                emit(RuleId.OR_R2, (d.left,), [Sequent(a, d.right)])
            elif d.op == "meet":
                emit(RuleId.AND_R, (), [Sequent(a, d.left), Sequent(a, d.right)])
            elif d.op == "fus":
                for k in range(len(a) + 1):
                    emit(RuleId.FUS_R, (),
                         [Sequent(a[:k], d.left), Sequent(a[k:], d.right)])
            elif d.op == "rimp":
                emit(RuleId.RIMP_R, (), [Sequent((d.left,) + a, d.right)])
            elif d.op == "limp":
                emit(RuleId.LIMP_R, (), [Sequent(a + (d.left,), d.right)])
        elif isinstance(d, Neg):
            if d.op == "rneg":
                emit(RuleId.RNEG_R, (), [Sequent((d.child,) + a, None)])
            else:
                emit(RuleId.LNEG_R, (), [Sequent(a + (d.child,), None)])
        if d == ZERO:
            emit(RuleId.ZERO_R, (), [Sequent(a, None)])
        if RuleId.WEAK_R in rules:
            emit(RuleId.WEAK_R, (d,), [Sequent(a, None)])
    else:
        if len(a) >= 1 and isinstance(a[-1], Neg) and a[-1].op == "rneg":
            emit(RuleId.RNEG_L, (), [Sequent(a[:-1], a[-1].child)])
        if len(a) >= 1 and isinstance(a[0], Neg) and a[0].op == "lneg":
            emit(RuleId.LNEG_L, (), [Sequent(a[1:], a[0].child)])

    if include_exchange and RuleId.EXCH_L in rules:
        for i in range(len(a) - 1):
            emit(RuleId.EXCH_L, (i,),
                 [Sequent(a[:i] + (a[i + 1], a[i]) + a[i + 2:], d)])
    return out


def _canon(s):
    return Sequent(tuple(sorted(s.antecedent, key=formula_key)), s.succedent)


def _remove_once(ant, f):
    out = list(ant)
    out.remove(f)
    return tuple(out)


def _multiset_minus(whole, part):
    out = list(whole)
    for f in part:
        out.remove(f)
    return tuple(out)


def _sub_multisets(ant):
    groups = [(f, len(list(g))) for f, g in itertools.groupby(ant)]
    for pick in itertools.product(*[range(c + 1) for _, c in groups]):
        chosen = []
        for (f, _), k in zip(groups, pick):
            chosen.extend([f] * k)
        yield tuple(chosen)


def _sequent_key(s):
    succ = ("",) if s.succedent is None else ("f", formula_key(s.succedent))
    return (tuple(formula_key(f) for f in s.antecedent), succ)


def oracle_multiset_instances(goal, rules, cut_formulas=None):
    """(instances, complete) for a sorted goal; an instance is (rule, data,
    concrete conclusion, ((concrete premise, canonical premise), ...))."""
    a, d = goal.antecedent, goal.succedent
    out = []
    complete = True
    seen = set()

    def emit(rule, data, concl, prems):
        rec = (rule, data, tuple(_sequent_key(c) for _, c in prems))
        if rec in seen:
            return
        seen.add(rec)
        out.append((rule, data, concl, tuple(prems)))

    def canonp(s):
        return (s, _canon(s))

    split_ok = len(a) <= SUBMULTISET_CAP
    for f in sorted(set(a), key=formula_key):
        rest = _remove_once(a, f)
        tail = Sequent(rest + (f,), d)
        if isinstance(f, Bin):
            if f.op == "join" and RuleId.OR_L in rules:
                emit(RuleId.OR_L, (len(rest),), tail,
                     [canonp(Sequent(rest + (f.left,), d)),
                      canonp(Sequent(rest + (f.right,), d))])
            elif f.op == "meet" and RuleId.AND_L1 in rules:
                emit(RuleId.AND_L1, (len(rest), f.right), tail,
                     [canonp(Sequent(rest + (f.left,), d))])
                emit(RuleId.AND_L2, (len(rest), f.left), tail,
                     [canonp(Sequent(rest + (f.right,), d))])
            elif f.op == "fus" and RuleId.FUS_L in rules:
                emit(RuleId.FUS_L, (len(rest),), tail,
                     [canonp(Sequent(rest + (f.left, f.right), d))])
            elif f.op == "rimp" and RuleId.RIMP_L in rules:
                if split_ok:
                    for x in _sub_multisets(rest):
                        y = _multiset_minus(rest, x)
                        emit(RuleId.RIMP_L, (len(y),),
                             Sequent(y + x + (f,), d),
                             [canonp(Sequent(x, f.left)),
                              canonp(Sequent(y + (f.right,), d))])
                else:
                    complete = False
            elif f.op == "limp" and RuleId.LIMP_L in rules:
                if split_ok:
                    for x in _sub_multisets(rest):
                        y = _multiset_minus(rest, x)
                        emit(RuleId.LIMP_L, (len(y),),
                             Sequent(y + (f,) + x, d),
                             [canonp(Sequent(x, f.left)),
                              canonp(Sequent(y + (f.right,), d))])
                else:
                    complete = False
        if f == ONE:
            emit(RuleId.ONE_L, (len(rest),), tail,
                 [canonp(Sequent(rest, d))])
        if RuleId.WEAK_L in rules:
            emit(RuleId.WEAK_L, (len(rest), f), tail,
                 [canonp(Sequent(rest, d))])
        if RuleId.CONTR_L in rules:
            emit(RuleId.CONTR_L, (len(rest),), tail,
                 [canonp(Sequent(rest + (f, f), d))])
        if d is None and isinstance(f, Neg):
            if f.op == "rneg" and RuleId.RNEG_L in rules:
                emit(RuleId.RNEG_L, (), tail,
                     [canonp(Sequent(rest, f.child))])
            if f.op == "lneg" and RuleId.LNEG_L in rules:
                emit(RuleId.LNEG_L, (), Sequent((f,) + rest, d),
                     [canonp(Sequent(rest, f.child))])

    if d is not None:
        if isinstance(d, Bin):
            if d.op == "join" and RuleId.OR_R1 in rules:
                emit(RuleId.OR_R1, (d.right,), goal,
                     [canonp(Sequent(a, d.left))])
                emit(RuleId.OR_R2, (d.left,), goal,
                     [canonp(Sequent(a, d.right))])
            elif d.op == "meet" and RuleId.AND_R in rules:
                emit(RuleId.AND_R, (), goal,
                     [canonp(Sequent(a, d.left)),
                      canonp(Sequent(a, d.right))])
            elif d.op == "fus" and RuleId.FUS_R in rules:
                if split_ok:
                    for x in _sub_multisets(a):
                        y = _multiset_minus(a, x)
                        emit(RuleId.FUS_R, (), Sequent(x + y, d),
                             [canonp(Sequent(x, d.left)),
                              canonp(Sequent(y, d.right))])
                else:
                    complete = False
            elif d.op == "rimp" and RuleId.RIMP_R in rules:
                emit(RuleId.RIMP_R, (), goal,
                     [canonp(Sequent((d.left,) + a, d.right))])
            elif d.op == "limp" and RuleId.LIMP_R in rules:
                emit(RuleId.LIMP_R, (), goal,
                     [canonp(Sequent(a + (d.left,), d.right))])
        elif isinstance(d, Neg):
            if d.op == "rneg" and RuleId.RNEG_R in rules:
                emit(RuleId.RNEG_R, (), goal,
                     [canonp(Sequent((d.child,) + a, None))])
            if d.op == "lneg" and RuleId.LNEG_R in rules:
                emit(RuleId.LNEG_R, (), goal,
                     [canonp(Sequent(a + (d.child,), None))])
        if d == ZERO:
            emit(RuleId.ZERO_R, (), goal, [canonp(Sequent(a, None))])
        if RuleId.WEAK_R in rules:
            emit(RuleId.WEAK_R, (d,), goal, [canonp(Sequent(a, None))])

    if cut_formulas is not None and RuleId.CUT in rules:
        if split_ok:
            for chi in cut_formulas:
                for x in _sub_multisets(a):
                    y = _multiset_minus(a, x)
                    emit(RuleId.CUT, (len(y),), Sequent(y + x, d),
                         [canonp(Sequent(x, chi)),
                          canonp(Sequent(y + (chi,), d))])
        else:
            complete = False
    return out, complete


def oracle_cut_instances_seq(goal, cut_formulas):
    a, d = goal.antecedent, goal.succedent
    out = []
    for chi in cut_formulas:
        for i in range(len(a) + 1):
            for j in range(i, len(a) + 1):
                p1 = Sequent(a[i:j], chi)
                p2 = Sequent(a[:i] + (chi,) + a[j:], d)
                out.append((RuleId.CUT, (i,), goal, ((p1, p1), (p2, p2))))
    return out


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------

def corpus():
    """At least 500 seeded goals over core and full: random ones with up to
    four antecedent formulas over two variables (so that repeats occur),
    antecedents beyond SUBMULTISET_CAP, and antecedents of exactly
    SUBMULTISET_CAP and SUBMULTISET_CAP + 1 formulas whose rules split
    them: a left implication, a fusion succedent and, at the positions that
    `test_multiset_instances_match_the_oracle` runs with cut formulas
    (505 and 510), a cut."""
    rng = random.Random(20261018)
    goals = []
    for lang in ("core", "full"):
        language = Language.preset(lang)
        for _ in range(250):
            goals.append((lang, random_sequent(
                rng, depth=rng.choice((1, 2, 3)), variables=("p", "q"),
                lang=language, max_antecedent=4)))
    p, q = var("p"), var("q")
    many = (p,) * (SUBMULTISET_CAP + 1) + (join(p, q),)
    goals.append(("core", Sequent(many, fus(p, join(p, q)))))
    goals.append(("full", parse_sequent(
        ", ".join(["p \\ q"] * SUBMULTISET_CAP + ["p", "q / p"]) + " => q")))
    goals.append(("full", parse_sequent("rn(p), ln(q), 0, 1 =>")))
    cap = SUBMULTISET_CAP

    def at(k, succedent, *others):
        """A goal of k antecedent formulas: `others`, then copies of p."""
        ant = list(others) + ["p"] * (k - len(others))
        return parse_sequent(", ".join(ant) + " => " + succedent)

    # exactly SUBMULTISET_CAP formulas and one more; the multiset test runs
    # the goals at 505 and 510 with cut formulas
    goals += [("full", at(cap, "p", "q", "q \\ p")),
              ("full", at(cap + 1, "p", "q", "q \\ p")),
              ("core", at(cap, "p * q", "q")),
              ("core", at(cap, "q * p", "p \\/ q")),
              ("core", at(cap + 1, "q * p", "p \\/ q")),
              ("full", at(cap, "p", "p / q", "q")),
              ("full", at(cap + 1, "p", "p / q", "q")),
              ("core", at(cap + 1, "p * q", "q"))]
    return goals


CORPUS = corpus()


def decoded(table, instance):
    rule, data, concl, prems = instance
    return (rule, decode_data(table, rule, data),
            decode_sequent(table, concl),
            tuple((decode_sequent(table, c), decode_sequent(table, k))
                  for c, k in prems))


# The order in which the search tries rules; `rule_instances_backward`
# gives the leaf rules first.
ORDER = (RuleId.AXIOM, RuleId.ONE_R, RuleId.ZERO_L,
         RuleId.OR_L, RuleId.FUS_L, RuleId.AND_R, RuleId.RIMP_R,
         RuleId.LIMP_R, RuleId.RNEG_R, RuleId.LNEG_R, RuleId.ZERO_R,
         RuleId.ONE_L,
         RuleId.OR_R1, RuleId.OR_R2, RuleId.AND_L1, RuleId.AND_L2,
         RuleId.FUS_R, RuleId.RIMP_L, RuleId.LIMP_L, RuleId.RNEG_L,
         RuleId.LNEG_L, RuleId.WEAK_R, RuleId.WEAK_L, RuleId.CONTR_L,
         RuleId.EXCH_L, RuleId.CUT)


def in_search_order(instances):
    """An oracle's list, stably sorted into the search's rule order."""
    return sorted(instances, key=lambda instance: ORDER.index(instance[0]))


def check_instance(rule, data, conclusion, premises):
    if premises:
        assert derive_conclusion(rule, data, premises) == conclusion
    else:
        assert check_leaf(rule, conclusion, frozenset()) is None


def test_corpus_size():
    assert len(CORPUS) >= 500
    assert {lang for lang, _ in CORPUS} == {"core", "full"}
    assert len(SIGMAS) == 16


def test_sequence_instances_match_the_oracle():
    for lang, goal in CORPUS:
        for sigma in SIGMAS:
            cal = calculus(sigma, Language.preset(lang))
            rules = rules_of(cal)
            found = rule_instances_backward(goal, cal)
            assert found == in_search_order(oracle_rule_instances_backward(
                goal, rules)), (lang, sigma, str(goal))
            for rule, data, premises in found:
                check_instance(rule, data, goal, premises)


def _search(sigma, lang, goal, with_cut):
    """A search that expands a goal into every instance, as under {c}."""
    cal = calculus(sigma, Language.preset(lang))
    table, (encoded,) = encode_sequents((goal,))
    cuts = None
    if with_cut:
        cuts = tuple(range(len(table)))
    search = _Search(cal, table, cut_formulas=cuts)
    search.commit = False
    return cal, table, search, search.canon(encoded)


def _cut_formulas(goal):
    universe = set()
    for f in goal.antecedent + (() if goal.succedent is None
                                else (goal.succedent,)):
        universe |= subformulas(f)
    return tuple(sorted(universe, key=formula_key))


def test_multiset_instances_match_the_oracle():
    for n, (lang, goal) in enumerate(CORPUS):
        with_cut = n % 5 == 0
        for sigma in SIGMAS:
            if not sigma.startswith("e"):
                continue
            cal, table, search, start = _search(sigma, lang, goal, with_cut)
            found, flags = search._expand(start)
            canonical = _canon(goal)
            assert decode_sequent(table, start) == canonical
            expected, complete = oracle_multiset_instances(
                canonical, rules_of(cal),
                _cut_formulas(goal) if with_cut else None)
            expected = in_search_order(expected)
            assert [decoded(table, i) for i in found] == expected, \
                (lang, sigma, str(goal))
            assert (flags == 0) == complete
            for (_, _, concl, _), (rule, data, _, prems) in zip(found,
                                                                expected):
                # the concrete conclusion permutes the goal
                assert tuple(sorted(concl[0])) == start[0]
                check_instance(rule, data, decode_sequent(table, concl),
                               tuple(c for c, _ in prems))


def test_sequence_cut_instances_match_the_oracle():
    for lang, goal in CORPUS[::10]:
        for sigma in ("", "wl", "c"):
            cal, table, search, start = _search(sigma, lang, goal, True)
            steps, _ = search._expand(start)
            found = [step for step in steps if step[0] is RuleId.CUT]
            expected = in_search_order(
                oracle_cut_instances_seq(goal, _cut_formulas(goal)))
            assert [decoded(table, i) for i in found] == expected
            for rule, data, concl, prems in expected:
                check_instance(rule, data, concl, tuple(c for c, _ in prems))


# The rules that cut admissibility makes invertible in every sigma but {c}.
INVERTIBLE = {RuleId.OR_L, RuleId.FUS_L, RuleId.AND_R, RuleId.RIMP_R,
              RuleId.LIMP_R, RuleId.RNEG_R, RuleId.LNEG_R, RuleId.ZERO_R,
              RuleId.ONE_L}


def test_commit_is_the_first_invertible_instance():
    """A committing search expands a goal into one step: the first
    invertible step of the goal's expansion without commit, or, when that
    has none, the same expansion.  With cut formulas, the goal also runs
    under antecedent caps around its own length, as in `prove_with_hyps`,
    so that the cap removes some rules' instances."""
    committed = 0
    for n, (lang, goal) in enumerate(CORPUS):
        language = Language.preset(lang)
        table, (encoded,) = encode_sequents((goal,))
        for sigma in SIGMAS:
            cal = calculus(sigma, language)
            if cal.sigma == {"c"}:
                continue   # no commit without cut admissibility
            setups = [{}]
            if n % 4 == 0:
                setups.append({"cut_formulas": tuple(range(len(table))),
                               "max_antecedent": len(goal.antecedent)
                               + n // 4 % 3 - 1})
            for setup in setups:
                search = _Search(cal, table, **setup)
                start = search.canon(encoded)
                if search._leaf(start) is not None:
                    continue   # solve expands no leaf
                steps = search._expand(start)
                search.commit = False
                found, flags = search._expand(start)
                first = next((rec for rec in found if rec[0] in INVERTIBLE),
                             None)
                assert steps == (([first], 0) if first is not None
                                 else (found, flags)), \
                    (lang, sigma, str(goal), setup)
                committed += first is not None
    assert committed > 1000


def test_commit_ends_the_list_after_the_invertible_rules():
    """The enumerator gives the invertible rules' instances first; with
    `commit` it returns them alone, or, when there are none, everything."""
    for lang, goal in CORPUS[::3]:
        table, (encoded,) = encode_sequents((goal,))
        for sigma in SIGMAS:
            cal = calculus(sigma, Language.preset(lang))
            multiset = "e" in cal.sigma
            start = ((tuple(sorted(encoded[0])), encoded[1]) if multiset
                     else encoded)
            args = (table, start, rules_of(cal), multiset)
            everything = table_instances_backward(*args)
            block = [i for i in everything[0] if i[0] in INVERTIBLE]
            assert everything[0][:len(block)] == block
            assert table_instances_backward(*args, commit=True) == (
                (block, False) if block else everything)


# ---------------------------------------------------------------------------
# Equal subformulas that are distinct objects
# ---------------------------------------------------------------------------

# Verdicts and proofs as the search gave them on Formula sequents.
EQUAL_COPIES = {
    ("p, p => p", ""): "Refuted",
    ("p, p => p", "e"): "Refuted",
    ("p, p => p", "wl"): '(weak-l "p, p => p" (axiom "p => p"))',
    ("p, p => p", "c"): "Unknown",
    ("p, p => p", "e,c"): "Unknown",
    ("p, p => p * p", ""):
        '(fus-r "p, p => p * p" (axiom "p => p") (axiom "p => p"))',
    ("p, p => p * p", "e,wl,wr,c"):
        '(fus-r "p, p => p * p" (axiom "p => p") (axiom "p => p"))',
    ("p => p * p", "wl"): "Refuted",
    ("p => p * p", "c"): '(contr-l "p => p * p" (fus-r "p, p => p * p" '
                         '(axiom "p => p") (axiom "p => p")))',
    ("p => p * p", "e,c"): '(contr-l "p => p * p" (fus-r "p, p => p * p" '
                           '(axiom "p => p") (axiom "p => p")))',
    ("q \\/ p, p \\/ q => (p \\/ q) * (q \\/ p)", "c"):
        '(fus-r "q \\/ p, p \\/ q => (p \\/ q) * (q \\/ p)" '
        '(or-l "q \\/ p => p \\/ q" (or-r2 "q => p \\/ q" (axiom "q => q")) '
        '(or-r1 "p => p \\/ q" (axiom "p => p"))) '
        '(or-l "p \\/ q => q \\/ p" (or-r2 "p => q \\/ p" (axiom "p => p")) '
        '(or-r1 "q => q \\/ p" (axiom "q => q"))))',
}


def test_equal_subformula_copies_prove_as_before():
    for (text, sigma), expected in EQUAL_COPIES.items():
        goal = parse_sequent(text)
        # each formula the text names twice is one object
        if text.startswith("p, p"):
            assert goal.antecedent[0] is goal.antecedent[1]
        elif len(goal.antecedent) == 2:
            first, second = goal.antecedent
            assert first.left is second.right and first.right is second.left
        result = prove(goal, calculus(sigma))
        if isinstance(result, Proved):
            assert format_proof_sexp(result.tree) == expected, (text, sigma)
            assert result.tree.conclusion == goal
        else:
            assert type(result).__name__ == expected, (text, sigma)
            assert isinstance(result, (Refuted, Unknown))
