"""Backward proof search, hypothesis-admitting bounded search, and
`verdict`: search, scan FL_sigma's variety K for a countermodel, re-check
once with `check_verdict`.  By the paper's algebraizability (Gamma |- s in
FL_sigma iff tau[Gamma] |= tau(s) in K) a proof and a countermodel in K
are the two certificates; a plain refutation is a decision procedure's.

Which sigma `prove` decides:

- sigma without contraction: every backward step strictly shrinks the
  goal, so the search terminates and exhaustion refutes.
- sigma containing wl and c: every FL_{wl,c}-algebra is commutative
  (xy <= (xy)(xy) = x(yx)y <= yx), and syntactically exchange is a
  derived rule of FL_{wl,c} with cut, so FL_sigma proves what
  FL_{sigma + e} proves.  With exchange, weakening and contraction the
  multiplicity of an antecedent formula does not matter, so `_SetSearch`
  decides the goal on antecedent *sets* of subformulas, with contraction
  absorbed into the rules (G3 style; Troelstra and Schwichtenberg, Basic
  Proof Theory, ch. 3).  A set goal's need, the antecedent its rebuilt
  proof uses, is fixed when the goal is proved.  Its proofs are rebuilt as
  FL_sigma trees with explicit weakening, contraction and exchange steps;
  without e each exchange step becomes fus-l and two cuts
  (`_exchange_by_cut`), the only cuts in the proofs of `prove`.
- every other sigma with c (c without wl): a goal that fails in
  FL_{sigma + e + wl} fails in FL_sigma (whose proofs are FL_sigma'
  proofs for sigma within sigma'), and is refuted plainly; so is one that
  fails in a member of FL_sigma's variety (the paper's equivalent
  algebraic semantics) of at most COUNTERMODEL_SIZE elements, found by
  `bridge.countermodel` and re-checked by `check_verdict`.  The rest go
  to a depth-bounded, loop-checked search, then to the decided
  FL_{sigma - c}; when the bounded search's space closes, the verdict is
  Unknown.  FL_c itself is undecidable (Chvalovsky and Horcik, JSL 2016).
  The depth bound acts only in this case; the decided sigma ignore it.

Every search is one AND-OR search, `_AndOr.solve`, on an explicit stack,
which owns the memos, the node count and (with `_deepening`) deepening;
`_Search` expands sequences and multisets, `_SetSearch` sets.  Every
proof is rebuilt by one post-order walk, `calculus.postorder`, on an
explicit stack too, so no goal is too deep.

A goal false in the two-element Boolean algebra B2 (fusion = meet, 0 the
bottom, 1 the top) has no proof: B2 satisfies e, wl, wr and c, so it is a
member of every K_sigma, in which FL_sigma is sound (the easy half of
algebraizability).  So a `_Search` without c and without hypotheses
evaluates every formula of its table in B2 once, as bit masks over the
assignments of the goal's variables (`_boolean_model`), and `solve` fails
a goal that one of them falsifies, before expanding it.  That serves every
search of the shrinking regime and the bounded regime's FL_{sigma - c}.
A pruned goal has no proof, so the proofs do not change, only the work;
an Unknown(submultiset-cap) can become a refutation.  Not pruned:
`_SetSearch`, where a trial kept every proof, but its gain on the
`contraction` benchmark is not yet measured well enough to claim; the
bounded search with c, where a failure the depth bound cut would become absolute and Unknown
would name another limit; and `prove_with_hyps`, where a goal false in
B2 may follow from the hypotheses, and under its node cap a search that
visits fewer goals could prove what the capped one did not.

Goals are table sequents of one `SubformulaTable`: a tuple of formula
numbers and a succedent number, -1 when empty.  Numbers sort as formulas
do under `formula_key`, so with exchange a sorted antecedent is the
multiset normal form; proofs get explicit exchange steps.  A goal's
rule instances come from `calculus.table_instances_backward`, in the
order the search tries them.  In every sigma but {c} cut admissibility
makes or-l, fus-l, and-r, rimp-r, limp-r, rneg-r, lneg-r, zero-r and one-l
invertible, and the enumerator gives them first, so a goal commits to its
first invertible instance and the rest are not built.  A failure the loop
check caused is kept while the ancestor that cut it is searched; one that
hit the depth bound, only within its iteration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import bridge
from .syntax import same_formula
from .sequents import (Sequent, check_sequent_language, decode_sequent,
                       encode_sequents, tau_equation)
from .calculus import (CalculusId, ProofTree, _apply, _axiom, _cut,
                       _premises, check_proof, decode_data, postorder,
                       rules_of, table_instances_backward)
from .calculus import (AND_L1, AND_L2, AND_R, AXIOM, CONTR_L, EXCH_L, FUS_L,
                       FUS_R, HYPOTHESIS, LIMP_L, LIMP_R, LNEG_L, LNEG_R,
                       ONE_L, ONE_R, OR_L, OR_R1, OR_R2, RIMP_L, RIMP_R,
                       RNEG_L, RNEG_R, WEAK_L, WEAK_R, ZERO_L, ZERO_R)
from .algebra import (AlgebraError, VarietyId, check_variety,
                      family_of_language, holds)

DEFAULT_BOUND = 12
# the largest algebra searched for a countermodel in the bounded regime
COUNTERMODEL_SIZE = 3
# a bound at least this large is searched in one pass with no depth limit
_UNBOUNDED = 10 ** 6
_INFINITE = float("inf")
# the variables whose assignments a Boolean model spans, so its masks have
# 2 ** 8 bits at most; any set of assignments is sound
_MODEL_VARIABLES = 8

# Flags of a failed search below a goal.  A failure is bounded when one of
# the limits cut it; the bits name the limits, so Unknown can say which.
# The bits from _CUT on are the depths of the goals above whose repetition
# check cut the failure: it holds only while the deepest of them is
# searched.
_DEPTH = 1
_SPLIT_CAP = 2
_ANTECEDENT_CAP = 4
_NODE_CAP = 8
_BOUNDED = _DEPTH | _SPLIT_CAP | _ANTECEDENT_CAP | _NODE_CAP
_CUT = 4

_LIMIT_NAMES = ((_DEPTH, "depth-exhausted"),
                (_SPLIT_CAP, "submultiset-cap"),
                (_ANTECEDENT_CAP, "antecedent-cap"),
                (_NODE_CAP, "node-cap"))


def _limits(flags) -> str:
    """The limits named by the flags of a bounded failure, comma-separated."""
    return ", ".join(name for bit, name in _LIMIT_NAMES if flags & bit)


@dataclass(frozen=True)
class Proved:
    tree: ProofTree


@dataclass(frozen=True)
class Refuted:
    """A refutation: by a decision procedure, or by `countermodel`, a
    `bridge.Found` member of FL_sigma's variety in which tau(goal) fails."""
    countermodel: Optional[bridge.Found] = field(default=None, repr=False)


@dataclass(frozen=True)
class Unknown:
    """No verdict.  The reason names each limit that cut the search:
    depth-exhausted (the depth bound), submultiset-cap (an antecedent
    longer than calculus.SUBMULTISET_CAP, whose sub-multiset splits were
    not enumerated) and, with hypotheses, antecedent-cap and node-cap; or
    it says why no verdict was claimed."""
    reason: str = "depth-exhausted"


_RIGHT_UNARY = {"rimp": RIMP_R, "limp": LIMP_R, "rneg": RNEG_R, "lneg": LNEG_R}
_RIGHT_UNARY_RULES = frozenset(_RIGHT_UNARY.values())
# the left rules whose premise can prove a set goal's own antecedent
_REUSABLE = frozenset({ONE_L, FUS_L, AND_L1, OR_L, RIMP_L, LIMP_L})
_LEFT_INVERTIBLE = ("fus", "meet", "one", "join")
_LEFT_IMPLICATION = {"rimp": RIMP_L, "limp": LIMP_L}
_LEFT_NEGATION = {"rneg": RNEG_L, "lneg": LNEG_L}


def exchange_chain(tree: ProofTree, target_ant) -> ProofTree:
    """Permute the antecedent of a proved sequent into `target_ant` by a
    chain of adjacent exchanges."""
    cur = list(tree.conclusion.antecedent)
    target = list(target_ant)
    if cur == target:
        return tree
    succ = tree.conclusion.succedent
    for pos in range(len(target)):
        if cur[pos] == target[pos]:
            continue
        k = next(j for j in range(pos + 1, len(cur)) if cur[j] == target[pos])
        for j in range(k, pos, -1):
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            tree = ProofTree(Sequent(tuple(cur), succ), EXCH_L,
                             (tree,), (j - 1,))
    return tree


class _AndOr:
    """The AND-OR search of both provers, on an explicit stack.

    A subclass expands goals: `_leaf(goal)` is the memo entry of a goal a
    leaf rule closes, or None; `_expand(goal)` is (steps, limit flags), the
    steps in order, each a tuple ending in its premises, each premise
    (concrete, canonical goal); `_entry(goal, step, entries)` is the memo
    entry of a goal a step proved; with `loop_check`, `_loop_key(goal)` is
    (key, runs), and a goal repeats a goal being searched with the same
    key when it has at least as many copies in every run.

    `success` maps proved goals to entries, and `abs_fail` holds the goals
    that fail whatever the budget and the goals being searched;
    `bounded_fail` and `cut_failed` map a goal to the (budget, flags) of a
    failure that a limit or a repetition cut, and `frames` lists for each
    goal being searched the failures that hold only while it is.  The
    kept `expansions` map goals to (loop key, steps, flags).  Goals visited
    after `node_cap` (None: no cap) of them fail.  With `weakening`, goals
    are (antecedent bit set, succedent): `weaker` maps a succedent to the
    maximal antecedents that failed absolutely, and a goal that is a subset
    of one stops.  A `model` (see `_boolean_model`) fails a goal it
    falsifies absolutely, before expanding it."""

    loop_check = weakening = False
    model = None

    def __init__(self, keep_expansions):
        self.success, self.abs_fail = {}, set()
        self.bounded_fail, self.cut_failed, self.frames = {}, {}, []
        self.expansions = {} if keep_expansions else None
        self.weaker = {} if self.weakening else None
        self.nodes, self.node_cap = 0, None

    def solve(self, start, budget):
        """(memo entry of start, 0) when start is proved within `budget`
        steps (`_INFINITE`: no limit), else (None, flags)."""
        success, abs_fail, weaker = self.success, self.abs_fail, self.weaker
        bounded_fail, cut_failed = self.bounded_fail, self.cut_failed
        frames, expansions = self.frames, self.expansions
        loop_check, leaf, make_entry = self.loop_check, self._leaf, self._entry
        model = self.model
        cap = _INFINITE if self.node_cap is None else self.node_cap
        nodes = self.nodes
        ancestors = {}  # loop key -> [(runs, depth)] of the goals searched
        # `goal` is expanded with its budget, steps, the index, step and
        # premises being tried, the entries of those proved, the flags of
        # the failed steps and its list in `ancestors`; `stack` holds the
        # same of the goals above it
        stack = []
        goal = above = None
        visit = start
        while True:
            # answer `visit` from the memos, or expand it
            entry, fl = None, 0
            nodes += 1
            expansion = expansions and expansions.get(visit)
            if nodes > cap:
                fl = _NODE_CAP
            elif loop_check:
                key, runs = loop_key = (expansion[0] if expansion
                                        else self._loop_key(visit))
                for prior, depth in ancestors.get(key, ()):
                    if all(n >= m for n, m in zip(runs, prior)):
                        fl = 1 << depth + _CUT
                        break
            if fl or (entry := success.get(visit)) is not None \
                    or visit in abs_fail:
                pass
            elif ((failed := bounded_fail.get(visit)) is not None
                  and budget <= failed[0]):
                fl = failed[1]
            elif ((failed := cut_failed.get(visit)) is not None
                  and budget <= failed[0]):
                fl = failed[1]
            elif (entry := leaf(visit)) is not None:
                success[visit] = entry
            elif model is not None and _falsified(model, visit):
                abs_fail.add(visit)
            elif budget <= 0:
                fl = _DEPTH
            else:
                if goal is not None:
                    stack.append((goal, budget_of, steps, i, step, premises,
                                  subs, flags, above))
                if not expansion:
                    steps, flags = self._expand(visit)
                    if expansions is not None:
                        expansions[visit] = (loop_key if loop_check else None,
                                             steps, flags)
                else:
                    _, steps, flags = expansion
                goal, budget_of, i = visit, budget, -1
                if loop_check:
                    above = ancestors.setdefault(key, [])
                    above.append((runs, len(frames)))
                    frames.append([])
            # hand answers up until a goal needs its next premise
            while goal is not None:
                if entry is not None:
                    subs.append(entry)
                    if len(subs) < len(premises):
                        visit = premises[len(subs)][1]
                        break
                    entry = success[goal] = make_entry(goal, step, subs)
                else:
                    flags |= fl
                    i += 1
                    if i < len(steps) and not (
                            fl == 0 < i and weaker is not None
                            and _weakens(weaker, goal)):
                        step = steps[i]
                        premises, subs = step[-1], []
                        visit = premises[0][1]
                        break
                    # the steps ran out, or a weakening failed absolutely
                    fl = flags if i >= len(steps) else 0
                if loop_check:
                    above.pop()
                    for g in frames.pop():
                        cut_failed.pop(g, None)
                    fl &= ~(1 << len(frames) + _CUT)
                if entry is not None:
                    fl = 0
                elif fl == 0:
                    abs_fail.add(goal)
                    if weaker is not None and not _weakens(weaker, goal):
                        s, d = goal
                        weaker[d] = [f for f in weaker.get(d, ()) if f & ~s]
                        weaker[d].append(s)
                elif fl >> _CUT:
                    cut_failed[goal] = (budget_of, fl)
                    frames[(fl >> _CUT).bit_length() - 1].append(goal)
                elif budget_of > bounded_fail.get(goal, (-1,))[0]:
                    bounded_fail[goal] = (budget_of, fl)
                (goal, budget_of, steps, i, step, premises, subs, flags,
                 above) = stack.pop() if stack else (None,) * 9
            else:
                self.nodes = nodes
                return entry, fl
            budget = budget_of - 1


def _falsified(model, goal):
    """Whether some assignment of a `_boolean_model` makes every antecedent
    formula of a table goal true and its succedent false."""
    full, values = model
    ant, d = goal
    v = full ^ values[d]
    for f in ant:
        v &= values[f]
    return v != 0


def _weakens(weaker, goal):
    """Whether the antecedent of a set goal is a subset of one that failed
    absolutely with its succedent."""
    return any(not goal[0] & ~f for f in weaker.get(goal[1], ()))


def _deepening(search: _AndOr, start, bound):
    """Iterative deepening: shallow proofs are found before deep failures
    are explored.  It stops when the space closes below the bound or the
    node cap fires; a bound of at least _UNBOUNDED is one unlimited pass."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound >= _UNBOUNDED:
        return search.solve(start, _INFINITE)
    entry, flags = None, 0
    for budget in range(1, bound + 1):
        if search.loop_check:
            # under other ancestors the loop check may cut what hit the
            # budget; kept, such failures keep later iterations from closing
            search.bounded_fail.clear()
        entry, flags = search.solve(start, budget)
        if entry is not None or not flags & _BOUNDED or flags & _NODE_CAP:
            break
    return entry, flags


def _boolean_model(table):
    """(full, values): the value in the two-element Boolean algebra B2 of
    each formula of the table under 2 ** w assignments at once, one bit
    each; w is the number of variables, at most _MODEL_VARIABLES, and
    variable i takes the values of variable i % w.  In B2 fusion and meet
    are and, join is or, an implication with denominator x and numerator y
    is (not x) or y, a negation is not, 0 is false and 1 true.  full has
    every assignment's bit; values[-1] is 0, the value of an empty
    succedent."""
    op, left, right = table.op, table.left, table.right
    # formula_key sorts the variables first
    k = op.count("var")
    w = min(k, _MODEL_VARIABLES)
    full = (1 << (1 << w)) - 1
    values = [None] * len(op) + [0]
    for i in range(k):
        # the assignments whose bit i % w is set
        block = 1 << (1 << i % w)
        values[i] = full // (block + 1) * block
    for root in range(k, len(op)):
        stack = [root]
        while stack:
            f = stack[-1]
            a, b = left[f], right[f]
            if values[f] is not None:
                stack.pop()
            elif a >= 0 and values[a] is None:
                stack.append(a)
            elif b >= 0 and values[b] is None:
                stack.append(b)
            else:
                stack.pop()
                o = op[f]
                if o == "zero":
                    values[f] = 0
                elif o == "one":
                    values[f] = full
                elif o == "join":
                    values[f] = values[a] | values[b]
                elif o == "fus" or o == "meet":
                    values[f] = values[a] & values[b]
                elif o == "rimp" or o == "limp":
                    values[f] = full ^ values[a] | values[b]
                else:   # rneg, lneg
                    values[f] = full ^ values[a]
    return full, values


class _Search(_AndOr):
    """The expansion of the table sequents of one SubformulaTable, as
    sequences, or as multisets with e in sigma.  A proved goal's memo is a
    proof record (rule, data, concrete conclusion, goal antecedent,
    ((concrete premise antecedent, record), ...)); records refer to
    records, so a goal proved again later does not change the proofs
    already built on it."""

    def __init__(self, cal: CalculusId, table, hyps=(), cut_formulas=None,
                 max_antecedent=None, by_height=False):
        # no loop check by height ("provable within height b" is a pure
        # function of (goal, b)) or without c (every step shrinks the goal);
        # expansions are kept for deepening, as one pass meets most once
        self.loop_check = "c" in cal.sigma and not by_height
        super().__init__(keep_expansions=by_height or self.loop_check)
        self.table = table
        self.rules = rules_of(cal)
        self.multiset = "e" in cal.sigma
        # invertibility relies on cut admissibility, which FL_{c} alone lacks
        self.commit = cal.sigma != frozenset({"c"})
        self.cut_formulas = cut_formulas or ()  # (): cut-free
        self.max_antecedent = max_antecedent
        # exact canonical matching: the duplicate-collapsed key is only for
        # the ancestor loop check, never for hypothesis closure; of two
        # hypotheses with one canonical form, the first in sorted order wins
        self.hyp_by_key = {}
        for h in sorted(hyps):
            self.hyp_by_key.setdefault(self.canon(h), h)
        # B2 prunes neither with c, nor with hypotheses, nor by height
        # under prove_with_hyps' node cap (see the module docstring)
        if "c" not in cal.sigma and not hyps and not by_height:
            self.model = _boolean_model(table)

    def canon(self, s):
        if self.multiset:
            return (tuple(sorted(s[0])), s[1])
        return s

    def _loop_key(self, s):
        """(key, run lengths) of a canonical goal for the ancestor loop
        check.  The key collapses each run of three or more equal formulas
        to two, and the run lengths keep the true counts."""
        key, runs = [], []
        for f, run in itertools.groupby(s[0]):
            n = len(list(run))
            key += (f,) * min(n, 2)
            runs.append(n)
        return (tuple(key), s[1]), tuple(runs)

    def _expand(self, goal):
        """The steps of a canonical goal and the limits that left steps out.
        A step is (rule, data, concrete conclusion, ((concrete premise,
        canonical premise), ...)); the concrete parts form a sequence-level
        rule instance.  A committing search takes the first invertible
        instance whose premises fit max_antecedent, alone; otherwise every
        instance that fits."""
        cap, canon = self.max_antecedent, self.canon
        found, skipped = table_instances_backward(
            self.table, goal, self.rules, self.multiset, self.cut_formulas,
            self.commit)
        if self.commit and found and found[0][0].invertible:
            for rule, data, concl, prems in found:
                if cap is None or all(len(p[0]) <= cap for p in prems):
                    return [(rule, data, concl,
                             tuple([(p, canon(p)) for p in prems]))], 0
            found, skipped = table_instances_backward(
                self.table, goal, self.rules, self.multiset,
                self.cut_formulas)
        steps, flags = [], _SPLIT_CAP if skipped else 0
        for rule, data, concl, prems in found:
            if cap is not None and any(len(p[0]) > cap for p in prems):
                flags |= _ANTECEDENT_CAP
            else:
                steps.append((rule, data, concl,
                              tuple([(p, canon(p)) for p in prems])))
        return steps, flags

    def _entry(self, goal, rec, subs):
        rule, data, concl, prems = rec
        return (rule, data, concl, goal[0],
                tuple([(p[0][0], sub) for p, sub in zip(prems, subs)]))

    def _leaf(self, goal):
        a, d = goal
        if self.hyp_by_key:
            hyp = self.hyp_by_key.get(goal)
            if hyp is not None:
                return (HYPOTHESIS, (), hyp, a, ())
        if len(a) == 1 and d == a[0]:
            return (AXIOM, (), goal, a, ())
        op = self.table.op
        if not a and d >= 0 and op[d] == "one":
            return (ONE_R, (), goal, a, ())
        if len(a) == 1 and d < 0 and op[a[0]] == "zero":
            return (ZERO_L, (), goal, a, ())
        return None


def _proof_tree(table, record, target_ant) -> ProofTree:
    """The ProofTree of a proof record (see `_Search`), its antecedent
    permuted into the table antecedent `target_ant`; a record used twice
    gives one shared subtree."""
    def combine(rec, trees):
        rule, data, concl, goal_ant, premises = rec
        tree = ProofTree(decode_sequent(table, concl), rule,
                         tuple([_arrange(table, sub_tree, sub[3], ant)
                                for (ant, sub), sub_tree
                                in zip(premises, trees)]),
                         decode_data(table, rule, data))
        return _arrange(table, tree, concl[0], goal_ant)

    tree = postorder(record, _record_premises, combine)
    return _arrange(table, tree, record[3], target_ant)


def _record_premises(rec):
    return [sub for _, sub in rec[4]]


def _arrange(table, tree, ant, target_ant):
    """exchange_chain from the table antecedent `ant` of tree's conclusion
    to `target_ant`."""
    if ant == target_ant:
        return tree
    formulas = table.formulas
    return exchange_chain(tree, [formulas[i] for i in target_ant])


def _members(s):
    """The numbers in the bit set s, in increasing order."""
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return out


class _SetSearch(_AndOr):
    """The decision procedure for FL_sigma with e, wl and c in sigma, over
    the set sequents of one SubformulaTable: (antecedent, succedent), the
    antecedent a bit set of formula numbers, the succedent a number or -1.

    Each rule is the FL rule with the contraction it needs built in:
    fus-r and the two-premise rules give both premises the whole set,
    the left rules of join, meet and fusion replace their principal formula
    by its parts (meet by both conjuncts), the left rules of the negations
    keep it, and those of the implications keep it in the premise that
    proves the implication's antecedent.  Leaves weaken what they do not
    use.  The invertible rules are applied first and alone; cut
    admissibility makes them invertible, and with e, wl and c fusion is
    meet, so fus-r is invertible too.  A left rule that keeps its
    principal formula can lead back to its own goal, so a goal equal to
    one of its ancestors fails (a shortest proof never repeats a sequent
    on a branch).

    `success` maps each proved set sequent to (rule, principal formula or
    succedent, premises, need, used, skip); for the meet rule the rule is
    AND_L1.  The last three are fixed when the goal is proved, from the
    entries of its premises.  need is the antecedent of the rule that the
    rebuilt proof ends with, the formulas the rule's premises use, each as
    often as they use it, as bit sets whose multiset union it is; used is
    its bit set.  skip
    is the premise, or None, whose proof proves the goal's own antecedent
    with the same succedent, as it uses nothing the rule added: the goal's
    proof is then that premise's, need and used too.  `record` rebuilds an
    FL_sigma proof record for a concrete antecedent, with weakening,
    contraction and exchange steps only where proofs need them.
    """

    loop_check = weakening = True

    def __init__(self, table, weak_right):
        super().__init__(keep_expansions=False)
        self.table, self.weak_right = table, weak_right
        self.zero = table.op.index("zero") if "zero" in table.op else -1
        # bit sets of the formulas with an invertible left rule, of the
        # implications, and of the implications and negations
        of = {}
        for f, o in enumerate(table.op):
            of[o] = of.get(o, 0) | 1 << f
        self.left_invertible = sum(of.get(o, 0) for o in _LEFT_INVERTIBLE)
        self.left_implications = of.get("rimp", 0) | of.get("limp", 0)
        self.left_other = (self.left_implications | of.get("rneg", 0)
                           | of.get("lneg", 0))
        self.records = {}

    def _loop_key(self, goal):
        return goal, ()

    def _entry(self, goal, step, subs):
        """The memo entry of a goal that `step` proved, given the entries
        of its premises (see the class docstring)."""
        s, d = goal
        rule, f, premises = step
        premises = tuple([p for p, _ in premises])
        if rule in _REUSABLE:
            for p, (_, _, _, need, used, _) in zip(premises, subs):
                if p[1] == d and not used & ~s:
                    return rule, f, premises, need, used, p
        left, right = self.table.left, self.table.right
        used = [sub[4] for sub in subs]
        if rule in _RIGHT_UNARY_RULES:
            parts = [used[0] & ~(1 << left[f])]
        elif rule is AND_R:
            parts = [used[0] | used[1]]
        elif rule is FUS_L:
            parts = [1 << f, used[0] & ~(1 << left[f] | 1 << right[f])]
        elif rule is AND_L1:
            parts = [1 << f, used[0] & s]
        elif rule is OR_L:
            parts = [1 << f, used[0] & ~(1 << left[f])
                     | used[1] & ~(1 << right[f])]
        elif rule in (RIMP_L, LIMP_L):
            parts = [1 << f, used[0], used[1] & ~(1 << right[f])]
        elif rule in (RNEG_L, LNEG_L):
            parts = [1 << f, used[0]]
        else:   # OR_R1, OR_R2, ZERO_R, WEAK_R, FUS_R
            parts = used
        bits = 0
        for part in parts:
            bits |= part
        return rule, f, premises, tuple(parts), bits, None

    def _leaf(self, goal):
        s, d = goal
        if d >= 0:
            if s >> d & 1:
                return (AXIOM, d, (), (1 << d,), 1 << d, None)
            if self.table.op[d] == "one":
                return (ONE_R, d, (), (), 0, None)
        elif self.zero >= 0 and s >> self.zero & 1:
            bit = 1 << self.zero
            return (ZERO_L, self.zero, (), (bit,), bit, None)
        return None

    def _expand(self, goal):
        """The steps to try on a goal, and no limit flags: the first
        invertible one alone, or else every non-invertible one."""
        s, d = goal
        op, left, right = self.table.op, self.table.left, self.table.right
        joins = []
        for f in _members(s & self.left_invertible):
            o = op[f]
            rest = s & ~(1 << f)
            if o == "fus" or o == "meet":
                rule = FUS_L if o == "fus" else AND_L1
                return [_step(rule, f, (rest | 1 << left[f] | 1 << right[f],
                                        d))], 0
            if o == "one":
                return [_step(ONE_L, f, (rest, d))], 0
            if o == "join":
                joins.append(f)
        o = op[d] if d >= 0 else None
        if o in _RIGHT_UNARY:
            succ = right[d] if o == "rimp" or o == "limp" else -1
            return [_step(_RIGHT_UNARY[o], d, (s | 1 << left[d], succ))], 0
        if o == "zero":
            return [_step(ZERO_R, d, (s, -1))], 0
        if joins:
            f = joins[0]
            rest = s & ~(1 << f)
            return [_step(OR_L, f, (rest | 1 << left[f], d),
                          (rest | 1 << right[f], d))], 0
        if o == "meet" or o == "fus":
            rule = AND_R if o == "meet" else FUS_R
            return [_step(rule, d, (s, left[d]), (s, right[d]))], 0
        steps = []
        if o == "join":
            steps.append(_step(OR_R1, d, (s, left[d])))
            steps.append(_step(OR_R2, d, (s, right[d])))
        # the left rules of the negations need an empty succedent
        for f in _members(s & (self.left_other if d < 0
                               else self.left_implications)):
            o, p = op[f], (s, left[f])
            if o in _LEFT_IMPLICATION:
                q = (s & ~(1 << f) | 1 << right[f], d)
                steps.append((_LEFT_IMPLICATION[o], f, ((p, p), (q, q))))
            else:
                steps.append((_LEFT_NEGATION[o], f, ((p, p),)))
        if self.weak_right and d >= 0:
            steps.append(_step(WEAK_R, d, (s, -1)))
        return steps, 0

    # -- rebuilding FL_sigma proofs -------------------------------------

    def record(self, goal, ant):
        """A proof record (see `_Search`) of the table antecedent `ant`, in
        its order, with the goal's succedent; every formula the goal's
        proof uses occurs in `ant`.  Weakening drops the formulas the proof
        does not use, contraction doubles those it uses more often than
        `ant` has them, both in place."""
        plans = {}

        def premises(key):
            plans[key] = plan = self._plan(*key)
            return plan[0]

        def combine(key, subs):
            keys, head, wrappers = plans.pop(key)
            if head is None:
                return subs[0]
            rule, data, concl, cur = head
            d = key[0][1]
            rec = (rule, data, (concl, d), cur,
                   tuple([(k[1], sub) for k, sub in zip(keys, subs)]))
            for rule, data, a in wrappers:
                rec = (rule, data, (a, d), a, ((rec[3], rec),))
            return rec

        return postorder((goal, ant), premises, combine,
                         key=lambda key: key, done=self.records)

    def _plan(self, goal, ant):
        """The plan of the record of (goal, ant): (keys, head, wrappers).
        keys are the (premise, antecedent) keys of the records it is built
        on.  head is None when the record is that of the one key, else the
        (rule, data, conclusion antecedent, goal antecedent) of the rule
        with those premises, and wrappers are the one-premise steps from
        its conclusion down to the record's, each (rule, data,
        antecedent), innermost first."""
        _, _, _, need, _, skip = self.success[goal]
        if skip is not None:
            return [(skip, ant)], None, []
        cur, steps = ant, []
        for g in sorted(set(ant)):
            have = cur.count(g)
            want = sum([part >> g & 1 for part in need])
            for _ in range(want, have):
                i = cur.index(g)
                steps.append((WEAK_L, (i, g), cur))
                cur = cur[:i] + cur[i + 1:]
            for _ in range(have, want):
                i = cur.index(g)
                steps.append((CONTR_L, (i,), cur))
                cur = cur[:i + 1] + cur[i:]
        keys, head, wrappers = self._rule_plan(goal, cur)
        return keys, head, wrappers + steps[::-1]

    def _rule_plan(self, goal, cur):
        """The plan (see `_plan`) of the goal's rule with the antecedent
        `cur` (the goal's need, in some order); left rules act in place,
        and a rule that splits its antecedent deals it out in order."""
        d = goal[1]
        success, left, right = self.success, self.table.left, self.table.right
        rule, f, premises = success[goal][:3]
        if rule in (AXIOM, ZERO_L, ONE_R):
            return [], (rule, (), cur, cur), []
        if rule in _RIGHT_UNARY_RULES:
            a = left[f]
            pa = ((a,) + cur if rule in (RIMP_R, RNEG_R)
                  else cur + (a,))
            return [(premises[0], pa)], (rule, (), cur, cur), []
        if rule in (OR_R1, OR_R2, ZERO_R, WEAK_R, AND_R):
            data = {OR_R1: (right[d],), OR_R2: (left[d],),
                    WEAK_R: (d,)}.get(rule, ())
            return [(p, cur) for p in premises], (rule, data, cur, cur), []
        if rule is FUS_R:
            x, y = _deal(cur, [success[p][4] for p in premises])
            return ([(premises[0], x), (premises[1], y)],
                    (rule, (), x + y, cur), [])
        if rule is AND_L1:
            return self._meet_plan(goal, cur)
        if rule is FUS_L or rule is OR_L:
            i = cur.index(f)
            parts = (((left[f], right[f]),) if rule is FUS_L
                     else ((left[f],), (right[f],)))
            return ([(p, cur[:i] + part + cur[i + 1:])
                     for part, p in zip(parts, premises)],
                    (rule, (i,), cur, cur), [])
        if rule in (RIMP_L, LIMP_L):
            b = right[f]
            _, x, y = _deal(cur, [1 << f, success[premises[0]][4],
                                  success[premises[1]][4] & ~(1 << b)])
            concl = y + x + (f,) if rule is RIMP_L else y + (f,) + x
            return ([(premises[0], x), (premises[1], y + (b,))],
                    (rule, (len(y),), concl, cur), [])
        # RNEG_L, LNEG_L
        (p,) = premises
        _, x = _deal(cur, [1 << f, success[p][4]])
        concl = x + (f,) if rule is RNEG_L else (f,) + x
        return [(p, x)], (rule, (), concl, cur), []

    def _meet_plan(self, goal, cur):
        """The meet rule in place in `cur`: and-l1 or and-l2 for the
        conjunct the premise's proof uses that the goal lacks, or, when it
        uses both, a contraction and then both."""
        s = goal[0]
        _, f, (p,) = self.success[goal][:3]
        a, b = self.table.left[f], self.table.right[f]
        i = cur.index(f)
        used = self.success[p][4]
        wanted = [g for g in (a, b) if used >> g & 1 and not s >> g & 1]
        if len(wanted) == 1 or a == b:
            g = wanted[0]
            rule, side = ((AND_L1, b) if g == a
                          else (AND_L2, a))
            return ([(p, cur[:i] + (g,) + cur[i + 1:])],
                    (rule, (i, side), cur, cur), [])
        paf = cur[:i] + (a, f) + cur[i + 1:]
        pff = cur[:i] + (f, f) + cur[i + 1:]
        return ([(p, cur[:i] + (a, b) + cur[i + 1:])],
                (AND_L2, (i + 1, a), paf, paf),
                [(AND_L1, (i, b), pff), (CONTR_L, (i,), cur)])


def _step(rule, f, *goals):
    """A set search step: its rule, its principal formula or succedent,
    and its premises, each (goal, goal) as `_AndOr` takes them."""
    return rule, f, tuple([(g, g) for g in goals])


def _deal(ant, parts):
    """Deal the formulas of `ant`, in order, to the bit sets `parts`, each
    to the first part that holds it and has not had it yet; the parts
    together must hold exactly the formulas of `ant`."""
    out = [[] for _ in parts]
    parts = list(parts)
    for f in ant:
        bit = 1 << f
        k = next(k for k, part in enumerate(parts) if part & bit)
        parts[k] &= ~bit
        out[k].append(f)
    return [tuple(dealt) for dealt in out]


def _set_goal(encoded):
    return sum(1 << f for f in set(encoded[0])), encoded[1]


def regime(sigma) -> str:
    """How `prove` treats FL_sigma: "shrinking" (decided, no c),
    "sets" (decided on antecedent sets, wl and c in sigma; without e,
    exchange is derived with cut) or "bounded" (c without wl: a plain
    refutation when FL_{sigma + e + wl} refutes or a checked countermodel
    of size at most COUNTERMODEL_SIZE exists, else a depth-bounded
    search)."""
    if "c" not in sigma:
        return "shrinking"
    return "sets" if "wl" in sigma else "bounded"


def prove(goal: Sequent, cal: CalculusId, bound=None):
    """Backward search.  Decides derivability when c is not in sigma, and
    when wl and c both are (on antecedent sets); `bound` has no effect
    on these decided sigma, and a bound below 1 raises ValueError in every
    sigma.  The proofs are cut-free, but for those under wl and c without
    e, whose exchange steps are replaced by cuts.  With c but without wl,
    a goal unprovable in FL_{sigma + e + wl} is refuted; so is one that
    fails in a member of FL_sigma's variety of at most COUNTERMODEL_SIZE
    elements (the Refuted carries it); the others go to a search bounded
    by `bound` (12 by default), then, unproved, to the decided
    FL_{sigma - c}.  Unknown names the limits that cut the bounded search,
    or says that its space closed."""
    check_sequent_language(goal, cal.lang)
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1")
    sigma = cal.sigma
    kind = regime(sigma)
    table, (encoded,) = encode_sequents((goal,))
    if kind != "shrinking":
        decider = _SetSearch(table, "wr" in sigma)
        start = _set_goal(encoded)
        if _deepening(decider, start, _UNBOUNDED)[0] is None:
            return Refuted()
        if kind == "sets":
            tree = _proof_tree(table, decider.record(start, encoded[0]),
                               encoded[0])
            return Proved(tree if "e" in sigma else _exchange_by_cut(tree))
        variety = _variety(cal)
        found = variety and bridge.countermodel(goal, variety,
                                                COUNTERMODEL_SIZE)
        if found:
            return check_verdict(goal, cal, Refuted(countermodel=found))
    contraction = kind == "bounded"
    if not contraction:
        bound = _UNBOUNDED
    elif bound is None:
        bound = DEFAULT_BOUND
    search = _Search(cal, table)
    record, flags = _deepening(search, search.canon(encoded), bound)
    if record is None and contraction:
        # FL_{sigma - c} is decided, and its proofs are FL_sigma proofs
        lower = _Search(CalculusId(sigma - {"c"}, cal.lang), table)
        record, _ = _deepening(lower, lower.canon(encoded), _UNBOUNDED)
    if record is not None:
        return Proved(_proof_tree(table, record, encoded[0]))
    if flags & _BOUNDED:
        return Unknown(_limits(flags))
    if not contraction:
        return Refuted()
    return Unknown("search space closed under loop check; refutation is "
                   "not claimed for contraction without left-weakening")


def _exchange_by_cut(tree: ProofTree) -> ProofTree:
    """The tree with each exch-l step replaced by cuts, for FL_sigma with
    wl and c but without e.  From the premise Gamma, psi, phi, Delta =>
    chi, fus-l gives Gamma, psi * phi, Delta => chi; a cut with the proof
    of phi * psi => psi * phi from `_swap_proofs` gives Gamma, phi * psi,
    Delta => chi; and a cut with phi, psi => phi * psi gives the step's
    conclusion.  A shared subtree stays shared, and so do the proofs of
    one (phi, psi)."""
    swaps = {}

    def combine(node, premises):
        if node.rule is EXCH_L:
            (i,) = node.data
            psi, phi = premises[0].conclusion.antecedent[i:i + 2]
            key = id(phi), id(psi)
            if key not in swaps:
                swaps[key] = _swap_proofs(phi, psi)
            pair, swap = swaps[key]
            fused = _apply(FUS_L, (i,), *premises)
            return _cut(pair, _cut(swap, fused, i), i)
        if any(p is not q for p, q in zip(premises, node.premises)):
            return ProofTree(node.conclusion, node.rule, premises, node.data)
        return node

    return postorder(tree, _premises, combine)


def _swap_proofs(phi, psi):
    """(a proof of phi, psi => phi * psi, an FL_{wl,c} proof of phi * psi
    => psi * phi).  The second contracts phi * psi, splits both copies and
    proves psi * phi from phi, psi, phi, psi, each factor from its own
    copy by weakening the other away; 8 nodes."""
    pair = _apply(FUS_R, (), _axiom(phi), _axiom(psi))
    tree = _apply(FUS_R, (),
                  _apply(WEAK_L, (0, phi), _axiom(psi)),
                  _apply(WEAK_L, (1, psi), _axiom(phi)))
    for i in (2, 0):
        tree = _apply(FUS_L, (i,), tree)
    return pair, _apply(CONTR_L, (0,), tree)


def prove_with_hyps(goal: Sequent, hyps, cal: CalculusId, bound=DEFAULT_BOUND,
                    max_antecedent=None, node_cap=50_000):
    """Backward search with hypothesis leaves and Cut enabled, cut formulas
    restricted to subformulas of the goal and hypotheses.  Semidecision:
    never claims Refuted.  Antecedent growth is capped (a little above the
    goal and hypothesis lengths by default) to keep the cut space finite,
    and a deterministic node cap bounds the total effort.  Unknown names
    the limits that cut the last round of the search; `verdict` adds the
    countermodel scan that refutes."""
    check_sequent_language(goal, cal.lang)
    sequents = (goal,) + tuple(frozenset(hyps))
    # the table holds exactly the subformulas of the goal and hypotheses,
    # numbered in formula_key order: all of them are the cut formulas
    table, encoded = encode_sequents(sequents)
    if max_antecedent is None:
        max_antecedent = max(max(len(s.antecedent) for s in sequents) + 4, 6)
    search = _Search(cal, table, hyps=encoded[1:],
                     cut_formulas=tuple(range(len(table))),
                     max_antecedent=max_antecedent, by_height=True)
    search.node_cap = node_cap
    record, flags = _deepening(search, search.canon(encoded[0]), bound)
    if record is not None:
        return Proved(_proof_tree(table, record, encoded[0][0]))
    if flags & _BOUNDED:
        return Unknown(_limits(flags))
    return Unknown("search space closed without a proof; refutation is "
                   "not claimed with hypotheses and cut")


def _variety(cal: CalculusId) -> Optional[VarietyId]:
    """FL_sigma's variety K, or None for a language that names no variety."""
    try:
        return VarietyId(family_of_language(cal.lang), cal.sigma)
    except AlgebraError:
        return None


def check_verdict(goal: Sequent, cal: CalculusId, result, hyps=()):
    """Returns `result` if it checks as a verdict on hyps |- goal, else
    raises RuntimeError: a proof must conclude the goal and pass
    `check_proof`; a countermodel must pass `check_variety` in K and, by
    `holds`, satisfy tau of each hypothesis and falsify tau(goal); a
    refutation without one is allowed only without hypotheses."""
    if isinstance(result, Proved):
        got, want = (s.antecedent + (s.succedent,)
                     for s in (result.tree.conclusion, goal))
        if len(got) != len(want) or not all(map(same_formula, got, want)) \
                or not check_proof(result.tree, cal, hyps):
            raise RuntimeError(f"the proof does not check as one of {goal}")
    elif isinstance(result, Refuted) and result.countermodel is None:
        if hyps:
            raise RuntimeError("no decision procedure runs with hypotheses")
    elif isinstance(result, Refuted):
        a, variety = result.countermodel.algebra, _variety(cal)
        values = {name: a.elements.index(element)
                  for name, element in result.countermodel.assignment.items()}
        if variety is None or not check_variety(a, variety).ok or \
                holds(a, tau_equation(goal), values) or \
                not all(holds(a, tau_equation(h), values) for h in hyps):
            raise RuntimeError(f"countermodel {a.name} does not refute "
                               f"{goal} in {variety}")
    return result


def verdict(goal: Sequent, cal: CalculusId, hyps=(), max_size=None,
            bound=None):
    """`prove`, or `prove_with_hyps` at `bound` (DEFAULT_BOUND by default);
    then, unless that proved the goal or found a countermodel, a scan of K
    up to `max_size` elements (None, or a language with no variety: no
    scan); the result comes through `check_verdict`."""
    hyps = frozenset(hyps)
    result = prove(goal, cal, bound) if not hyps else prove_with_hyps(
        goal, hyps, cal, DEFAULT_BOUND if bound is None else bound)
    variety = _variety(cal)
    if max_size and variety and not isinstance(result, Proved) and \
            getattr(result, "countermodel", None) is None:
        found = bridge.countermodel(goal, variety, max_size, hyps)
        if found:
            result = Refuted(countermodel=found)
    return check_verdict(goal, cal, result, hyps)
