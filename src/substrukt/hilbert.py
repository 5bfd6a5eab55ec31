"""Hilbert systems over the substructural language: axiom-schema
instantiation, line-oriented proof checking, and cross-validation of every
schema and rule against the sequent prover.

Schema metavariables are the reserved identifiers phi, psi, gamma; object
variables in checked proofs are ordinary variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .syntax import (Formula, Language, FULL, ONE, ZERO, apply_subst, fus,
                     join, limp, lneg, match_formula, meet, parse_formula,
                     rimp, rneg, var)
from .sequents import rho_prime
from .calculus import CalculusId, calculus
from .search import Proved, verdict

_A, _B, _C = var("phi"), var("psi"), var("gamma")
METAVARIABLES = ("phi", "psi", "gamma")


@dataclass(frozen=True)
class HilbertRule:
    name: str
    premises: tuple
    conclusion: Formula


@dataclass(frozen=True)
class HilbertSystem:
    name: str
    lang: Language
    axioms: tuple  # (name, schema) pairs
    rules: tuple  # HilbertRule
    sigma: frozenset = frozenset()  # the matching calculus extension

    def axiom(self, name) -> Formula:
        for n, schema in self.axioms:
            if n == name:
                return schema
        raise KeyError(name)

    def rule(self, name) -> HilbertRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)


_HFL_AXIOMS = (
    ("id", rimp(_A, _A)),
    ("pf", rimp(rimp(_A, _B), rimp(rimp(_C, _A), rimp(_C, _B)))),
    ("as", rimp(_A, rimp(limp(_A, _B), _B))),
    ("a", rimp(limp(_A, rimp(_B, _C)), rimp(_B, limp(_A, _C)))),
    ("fus-imps", rimp(limp(_B, fus(_B, rimp(_B, _A))), limp(_B, _A))),
    ("fus-conj", rimp(fus(meet(_A, ONE), meet(_B, ONE)), meet(_A, _B))),
    ("conj-imp1", rimp(meet(_A, _B), _A)),
    ("conj-imp2", rimp(meet(_A, _B), _B)),
    ("imp-conj", rimp(meet(rimp(_C, _A), rimp(_C, _B)), rimp(_C, meet(_A, _B)))),
    ("imp-disj1", rimp(_A, join(_A, _B))),
    ("imp-disj2", rimp(_B, join(_A, _B))),
    ("disj-imp", rimp(meet(rimp(_A, _C), rimp(_B, _C)), rimp(join(_A, _B), _C))),
    ("imp-fus", rimp(_B, rimp(_A, fus(_A, _B)))),
    ("fus-imp", rimp(rimp(_B, rimp(_A, _C)), rimp(fus(_A, _B), _C))),
    ("unit", ONE),
    ("unit-imp", rimp(ONE, rimp(_A, _A))),
    ("imp-unit", rimp(_A, rimp(ONE, _A))),
    # negation-definition schemata, covering the full language
    ("rneg-def1", rimp(rneg(_A), rimp(_A, ZERO))),
    ("rneg-def2", rimp(rimp(_A, ZERO), rneg(_A))),
    ("lneg-def1", limp(limp(_A, ZERO), lneg(_A))),
    ("lneg-def2", limp(lneg(_A), limp(_A, ZERO))),
)

_HFL_RULES = (
    HilbertRule("mp", (_A, rimp(_A, _B)), _B),
    HilbertRule("adj-u", (_A,), meet(_A, ONE)),
    HilbertRule("pn-r", (_A,), rimp(_B, fus(_A, _B))),
    HilbertRule("pn-l", (_A,), limp(_B, fus(_B, _A))),
)

_HFLE_AXIOMS = (
    ("id", rimp(_A, _A)),
    ("pf", rimp(rimp(_A, _B), rimp(rimp(_C, _A), rimp(_C, _B)))),
    ("per", rimp(rimp(_A, rimp(_B, _C)), rimp(_B, rimp(_A, _C)))),
    ("fus-conj", rimp(fus(meet(_A, ONE), meet(_B, ONE)), meet(_A, _B))),
    ("conj-imp1", rimp(meet(_A, _B), _A)),
    ("conj-imp2", rimp(meet(_A, _B), _B)),
    ("imp-conj", rimp(meet(rimp(_C, _A), rimp(_C, _B)), rimp(_C, meet(_A, _B)))),
    ("imp-disj1", rimp(_A, join(_A, _B))),
    ("imp-disj2", rimp(_B, join(_A, _B))),
    ("disj-imp", rimp(meet(rimp(_A, _C), rimp(_B, _C)), rimp(join(_A, _B), _C))),
    ("imp-fus", rimp(_B, rimp(_A, fus(_A, _B)))),
    ("fus-imp", rimp(rimp(_B, rimp(_A, _C)), rimp(fus(_A, _B), _C))),
    ("unit", ONE),
    ("unit-imp", rimp(ONE, rimp(_A, _A))),
    ("neg-def1", rimp(rneg(_A), rimp(_A, ZERO))),
    ("neg-def2", rimp(rimp(_A, ZERO), rneg(_A))),
)

_HFLE_RULES = (
    HilbertRule("mp", (_A, rimp(_A, _B)), _B),
    HilbertRule("adj-u", (_A,), meet(_A, ONE)),
)

_VAR_AXIOMS = (
    ("id", rimp(_A, _A)),
    ("pf", rimp(rimp(_A, _B), rimp(rimp(_C, _A), rimp(_C, _B)))),
    ("per", rimp(rimp(_A, rimp(_B, _C)), rimp(_B, rimp(_A, _C)))),
    ("imp-disj1", rimp(_A, join(_A, _B))),
    ("imp-disj2", rimp(_B, join(_A, _B))),
    ("conj-imp1", rimp(meet(_A, _B), _A)),
    ("conj-imp2", rimp(meet(_A, _B), _B)),
    ("imp-conj", rimp(meet(rimp(_C, _A), rimp(_C, _B)), rimp(_C, meet(_A, _B)))),
    ("fus-imp", rimp(rimp(_B, rimp(_A, _C)), rimp(fus(_A, _B), _C))),
    ("imp-fus", rimp(_B, rimp(_A, fus(_A, _B)))),
    ("unit", ONE),
    ("unit-imp", rimp(ONE, rimp(_A, _A))),
)

_VAR_RULES = (
    HilbertRule("mp", (_A, rimp(_A, _B)), _B),
    HilbertRule("dis", (rimp(_A, _C), rimp(_B, _C)), rimp(join(_A, _B), _C)),
    HilbertRule("adj", (_A, _B), meet(_A, _B)),
)

SIGMA_SCHEMATA = {
    "wl": ("sigma-wl", rimp(_A, rimp(_B, _A))),
    "wr": ("sigma-wr", rimp(ZERO, _A)),
    "c": ("sigma-c", rimp(rimp(_A, rimp(_A, _B)), rimp(_A, _B))),
}


def preset_hfl() -> HilbertSystem:
    return HilbertSystem("HFL", FULL, _HFL_AXIOMS, _HFL_RULES)


def preset_hfle() -> HilbertSystem:
    return HilbertSystem("HFLe", FULL, _HFLE_AXIOMS, _HFLE_RULES,
                         sigma=frozenset({"e"}))


def preset_van_alten_raftery() -> HilbertSystem:
    return HilbertSystem("vanAlten-Raftery", FULL, _VAR_AXIOMS, _VAR_RULES,
                         sigma=frozenset({"e"}))


def hilbert_system(sigma) -> HilbertSystem:
    """HFL_sigma: HFL (or HFLe when e is in sigma) extended with the
    structural schemata coded by sigma."""
    sigma = frozenset(sigma)
    base = preset_hfle() if "e" in sigma else preset_hfl()
    extra = tuple(SIGMA_SCHEMATA[code] for code in ("wl", "wr", "c")
                  if code in sigma)
    suffix = ",".join(s for s in ("e", "wl", "wr", "c") if s in sigma)
    return HilbertSystem(f"HFL[{suffix}]" if suffix else "HFL", FULL,
                         base.axioms + extra, base.rules, sigma=sigma)


PRESETS = {
    "hfl": preset_hfl,
    "hfle": preset_hfle,
    "van-alten-raftery": preset_van_alten_raftery,
}


# ---------------------------------------------------------------------------
# Proof objects and checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: tuple
    # ("axiom", name, subst-or-None) | ("hyp",) | ("rule", name, indices)


@dataclass(frozen=True)
class HilbertProof:
    lines: tuple


@dataclass(frozen=True)
class HilbertCheckResult:
    ok: bool
    reason: Optional[str] = None
    line: Optional[int] = None

    def __bool__(self):
        return self.ok


def check_hilbert_proof(proof: HilbertProof, sys: HilbertSystem,
                        hyps=frozenset()) -> HilbertCheckResult:
    hyps = frozenset(hyps)
    formulas = []
    for lineno, line in enumerate(proof.lines):
        kind = line.justification[0]
        if kind == "axiom":
            _, name, subst = line.justification
            try:
                schema = sys.axiom(name)
            except KeyError:
                return HilbertCheckResult(False, f"unknown-axiom: {name}", lineno)
            if subst is not None:
                if apply_subst(subst, schema) != line.formula:
                    return HilbertCheckResult(False, "bad-instance", lineno)
            elif match_formula(schema, line.formula) is None:
                return HilbertCheckResult(False, "bad-instance", lineno)
        elif kind == "hyp":
            if line.formula not in hyps:
                return HilbertCheckResult(False, "hypothesis-not-declared",
                                          lineno)
        elif kind == "rule":
            _, name, indices = line.justification
            try:
                rule = sys.rule(name)
            except KeyError:
                return HilbertCheckResult(False, f"unknown-rule: {name}", lineno)
            if len(indices) != len(rule.premises):
                return HilbertCheckResult(False, "bad-instance", lineno)
            if any(not 0 <= k < lineno for k in indices):
                return HilbertCheckResult(False, "bad-index", lineno)
            binding = match_formula(rule.conclusion, line.formula, {})
            if binding is not None:
                for pattern, k in zip(rule.premises, indices):
                    binding = match_formula(pattern, formulas[k], binding)
                    if binding is None:
                        break
            if binding is None:
                return HilbertCheckResult(False, "bad-instance", lineno)
        else:
            return HilbertCheckResult(False, f"unknown-justification: {kind}",
                                      lineno)
        formulas.append(line.formula)
    return HilbertCheckResult(True)


_LINE_RE = re.compile(r"^\s*(\d+)\.\s*(.*\S)\s*\[\s*([^\]]+?)\s*\]\s*$")


def parse_hilbert_proof(text, lang=FULL) -> HilbertProof:
    """Line-oriented form: ``n. <formula> [axiom <name> | hyp | <rule> m1 m2]``
    with 1-based line references."""
    lines = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        m = _LINE_RE.match(raw)
        if m is None:
            raise ValueError(f"malformed proof line: {raw!r}")
        formula = parse_formula(m.group(2), lang)
        parts = m.group(3).split()
        if parts[0] == "axiom":
            if len(parts) != 2:
                raise ValueError(f"malformed axiom justification: {raw!r}")
            just = ("axiom", parts[1], None)
        elif parts[0] == "hyp":
            just = ("hyp",)
        else:
            just = ("rule", parts[0], tuple(int(p) - 1 for p in parts[1:]))
        lines.append(ProofLine(formula, just))
    return HilbertProof(tuple(lines))


# ---------------------------------------------------------------------------
# Cross-validation against the sequent prover
# ---------------------------------------------------------------------------

_FRESH = {"phi": var("p"), "psi": var("q"), "gamma": var("r")}


def instantiate_schema(schema: Formula) -> Formula:
    return apply_subst(_FRESH, schema)


@dataclass(frozen=True)
class AxiomReport:
    system: str
    calculus: CalculusId
    verdicts: tuple  # (axiom name, "proved" | "unknown")

    @property
    def all_proved(self):
        return all(v == "proved" for _, v in self.verdicts)


def _proved(schema, cal, premises=(), bound=None) -> str:
    """The `verdict` on the instantiated schemas: "proved" or "unknown"."""
    result = verdict(rho_prime(instantiate_schema(schema)), cal,
                     [rho_prime(instantiate_schema(p)) for p in premises],
                     bound=bound)
    return "proved" if isinstance(result, Proved) else "unknown"


def axioms_to_sequents(sys: HilbertSystem, cal: CalculusId,
                       bound=None) -> AxiomReport:
    """Instantiate every axiom schema with fresh object variables and run
    the sequent prover on its theoremhood sequent."""
    return AxiomReport(sys.name, cal, tuple(
        (name, _proved(schema, cal, bound=bound))
        for name, schema in sys.axioms))


def rules_to_sequents(sys: HilbertSystem, cal: CalculusId, bound=None):
    """Validate each Hilbert rule by bounded hypothesis-admitting search."""
    return [(rule.name, _proved(rule.conclusion, cal, rule.premises, bound))
            for rule in sys.rules]


def matching_calculus(sys: HilbertSystem) -> CalculusId:
    return calculus(sys.sigma, sys.lang)
