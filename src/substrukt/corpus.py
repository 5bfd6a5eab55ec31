"""Randomized corpus generation: formulas, sequents, forward derivations,
and random finite algebras.  The environment variable SUBSTRUKT_SEED pins
the RNG for reproducible corpora.
"""

from __future__ import annotations

import os
import random

from .syntax import (Bin, Const, Formula, Language, Neg, Var, FULL, ONE,
                     ZERO, var)
from .sequents import Sequent
from .calculus import CalculusId, ProofTree, derive_conclusion, rules_of
from .calculus import (AND_L1, AND_L2, AND_R, AXIOM, CONTR_L, EXCH_L, FUS_L,
                       FUS_R, LIMP_L, LIMP_R, LNEG_L, LNEG_R, ONE_L, ONE_R,
                       OR_L, OR_R1, OR_R2, RIMP_L, RIMP_R, RNEG_L, RNEG_R,
                       WEAK_L, WEAK_R, ZERO_L, ZERO_R)
from .algebra import FiniteAlgebra, _join_table_from_leq, monoid_tables

ENV_SEED = "SUBSTRUKT_SEED"


def rng_from_env(default_seed=0) -> random.Random:
    seed = os.environ.get(ENV_SEED)
    return random.Random(int(seed) if seed is not None else default_seed)


def formula_size(f: Formula) -> int:
    if isinstance(f, (Var, Const)):
        return 1
    if isinstance(f, Neg):
        return 1 + formula_size(f.child)
    return 1 + formula_size(f.left) + formula_size(f.right)


def random_formula(rng: random.Random, depth=3, variables=("p", "q", "r"),
                   lang: Language = FULL) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        pool = [var(v) for v in variables]
        if "zero" in lang:
            pool.append(ZERO)
        if "one" in lang:
            pool.append(ONE)
        return rng.choice(pool)
    ops = sorted(lang.connectives - {"zero", "one"})
    op = rng.choice(ops)
    if op in ("rneg", "lneg"):
        return Neg(op, random_formula(rng, depth - 1, variables, lang))
    return Bin(op, random_formula(rng, depth - 1, variables, lang),
               random_formula(rng, depth - 1, variables, lang))


def random_sequent(rng: random.Random, depth=3, variables=("p", "q", "r"),
                   lang: Language = FULL, max_antecedent=2) -> Sequent:
    ant = tuple(random_formula(rng, depth, variables, lang)
                for _ in range(rng.randint(0, max_antecedent)))
    succ = None if rng.random() < 0.2 else \
        random_formula(rng, depth, variables, lang)
    return Sequent(ant, succ)


# ---------------------------------------------------------------------------
# Forward random derivations (always-derivable sequents with proof trees)
# ---------------------------------------------------------------------------

def _apply_forward(rule, data, premises):
    concl = derive_conclusion(rule, data, tuple(p.conclusion for p in premises))
    return ProofTree(concl, rule, tuple(premises), data)


def random_derivation(rng: random.Random, cal: CalculusId, height=5,
                      pool=None, max_antecedent=4, max_formula=12,
                      steps=40) -> ProofTree:
    """Grow derivations forward from axioms by random rule applications and
    return a random resulting tree (its conclusion is derivable by
    construction).  Cut is never used, so the result is cut-free."""
    if pool is None:
        pool = [var("p"), var("q"), ZERO, ONE,
                Bin("join", var("p"), var("q"))]
    pool = [f for f in pool if f is not None]
    rules = rules_of(cal)

    def ok(tree):
        a = tree.conclusion.antecedent
        if len(a) > max_antecedent:
            return False
        sizes = [formula_size(f) for f in a]
        if tree.conclusion.succedent is not None:
            sizes.append(formula_size(tree.conclusion.succedent))
        return all(s <= max_formula for s in sizes)

    trees = [ProofTree(Sequent((f,), f), AXIOM) for f in pool]
    trees.append(ProofTree(Sequent((), ONE), ONE_R))
    trees.append(ProofTree(Sequent((ZERO,), None), ZERO_L))

    def heights(tree):
        return tree.height()

    for _ in range(steps):
        t = rng.choice(trees)
        if heights(t) >= height:
            continue
        a, d = t.conclusion.antecedent, t.conclusion.succedent
        side = rng.choice(pool)
        candidates = []
        if d is not None:
            if OR_R1 in rules:
                candidates.append((OR_R1, (side,), (t,)))
                candidates.append((OR_R2, (side,), (t,)))
            if RNEG_L in rules:
                candidates.append((RNEG_L, (), (t,)))
            if LNEG_L in rules:
                candidates.append((LNEG_L, (), (t,)))
            if a and RIMP_R in rules:
                candidates.append((RIMP_R, (), (t,)))
            if a and LIMP_R in rules:
                candidates.append((LIMP_R, (), (t,)))
        else:
            candidates.append((ZERO_R, (), (t,)))
            if a and RNEG_R in rules:
                candidates.append((RNEG_R, (), (t,)))
            if a and LNEG_R in rules:
                candidates.append((LNEG_R, (), (t,)))
            if WEAK_R in rules:
                candidates.append((WEAK_R, (side,), (t,)))
        if a:
            i = rng.randrange(len(a))
            if AND_L1 in rules:
                candidates.append((AND_L1, (i, side), (t,)))
                candidates.append((AND_L2, (i, side), (t,)))
        if len(a) >= 2:
            i = rng.randrange(len(a) - 1)
            candidates.append((FUS_L, (i,), (t,)))
            if EXCH_L in rules:
                candidates.append((EXCH_L, (i,), (t,)))
            if CONTR_L in rules and any(
                    a[k] == a[k + 1] for k in range(len(a) - 1)):
                k = next(k for k in range(len(a) - 1) if a[k] == a[k + 1])
                candidates.append((CONTR_L, (k,), (t,)))
        candidates.append((ONE_L, (rng.randint(0, len(a)),), (t,)))
        if WEAK_L in rules:
            candidates.append((WEAK_L, (rng.randint(0, len(a)), side),
                               (t,)))
        # binary rules against a second random tree
        t2 = rng.choice(trees)
        if heights(t2) < height:
            a2, d2 = t2.conclusion.antecedent, t2.conclusion.succedent
            if d is not None and d2 is not None:
                candidates.append((FUS_R, (), (t, t2)))
            if d is not None and a2:
                j = rng.randrange(len(a2))
                if RIMP_L in rules:
                    candidates.append((RIMP_L, (j,), (t, t2)))
                if LIMP_L in rules:
                    candidates.append((LIMP_L, (j,), (t, t2)))
            if a and OR_L in rules:
                i = rng.randrange(len(a))
                candidates.append((OR_L, (i,), (t, t)))
            if d is not None and AND_R in rules:
                candidates.append((AND_R, (), (t, t)))
        candidates = [c for c in candidates if c[0] in rules or
                      c[0] is AXIOM]
        if not candidates:
            continue
        rule, data, premises = rng.choice(candidates)
        try:
            new = _apply_forward(rule, data, premises)
        except Exception:
            continue
        if ok(new):
            trees.append(new)
    grown = [t for t in trees if t.height() > 1]
    return rng.choice(grown if grown else trees)


# ---------------------------------------------------------------------------
# Random finite algebras
# ---------------------------------------------------------------------------

def random_semilattice(rng: random.Random, n):
    """A random bottomed join-semilattice order on 0..n-1 (element 0 is the
    bottom; a bottom guarantees a monoid completion exists)."""
    while True:
        leq = [[i == j for j in range(n)] for i in range(n)]
        for j in range(1, n):
            leq[0][j] = True
        for i in range(1, n):
            for j in range(i + 1, n):
                leq[i][j] = rng.random() < 0.45
        # transitive closure (upper triangular, stays antisymmetric)
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        table = _join_table_from_leq(leq, n)
        if table is not None:
            return table, tuple(tuple(r) for r in leq)


def random_pomonoid(rng: random.Random, n, distributive=False,
                    name="random") -> FiniteAlgebra:
    """A random pointed monoid monotone over a random semilattice order;
    with distributive=True the result is a pointed sl-monoid."""
    jt, leq = random_semilattice(rng, n)
    units = list(range(n))
    rng.shuffle(units)
    for unit in units:
        order = list(range(n))
        rng.shuffle(order)
        for ft in monoid_tables(leq, unit, n, distributive=distributive,
                                value_order=order):
            zero = rng.randrange(n)
            names = tuple(f"e{i}" for i in range(n))
            return FiniteAlgebra(name, names, {"join": jt, "fus": ft},
                                 zero, unit)
    # fus = join with the bottom as unit always works on a bottomed order
    return FiniteAlgebra(name, tuple(f"e{i}" for i in range(n)),
                         {"join": jt, "fus": jt}, rng.randrange(n), 0)


def random_msl(rng: random.Random, n, name="random-msl") -> FiniteAlgebra:
    return random_pomonoid(rng, n, distributive=True, name=name)
