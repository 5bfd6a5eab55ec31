"""Sequents of type omega x {0,1}, equations, and the four translations.

Text form of a sequent: ``f1, f2 => g`` with an optional right side
(``f1 =>`` has an empty succedent, ``=>`` is entirely empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .syntax import (Formula, FormulaSyntaxError, Language, FULL, ZERO, ONE,
                     SubformulaTable, fus, join, rimp, check_language,
                     format_formula, mirror_formula, parse_formula,
                     variables_of)


@dataclass(frozen=True)
class Sequent:
    antecedent: tuple
    succedent: Optional[Formula] = None

    def __str__(self):
        return format_sequent(self)


@dataclass(frozen=True)
class Equation:
    """lhs = rhs; an inequation lhs <= rhs is stored as join(lhs, rhs) = rhs."""

    lhs: Formula
    rhs: Formula

    def __str__(self):
        return format_equation(self)


def seq(antecedent: Sequence[Formula], succedent: Optional[Formula] = None) -> Sequent:
    return Sequent(tuple(antecedent), succedent)


def ineq(lhs, rhs) -> Equation:
    return Equation(join(lhs, rhs), rhs)


def equation_variables(e: Equation) -> frozenset:
    return variables_of(e.lhs) | variables_of(e.rhs)


def check_sequent_language(s: Sequent, lang: Language):
    for f in s.antecedent:
        check_language(f, lang)
    if s.succedent is not None:
        check_language(s.succedent, lang)


def fuse(gamma: Sequence[Formula]) -> Formula:
    """The fused antecedent: 1 when empty, otherwise a left-nested fusion."""
    gamma = tuple(gamma)
    if not gamma:
        return ONE
    out = gamma[0]
    for f in gamma[1:]:
        out = fus(out, f)
    return out


def tau(s: Sequent) -> frozenset:
    """Sequent-to-equation translation; always a singleton set.

    Gamma => phi becomes (prod Gamma) \\/ phi = phi; an empty succedent plays
    the role of 0.
    """
    return frozenset({tau_equation(s)})


def tau_equation(s: Sequent) -> Equation:
    """The one member of tau(s)."""
    target = s.succedent if s.succedent is not None else ZERO
    return Equation(join(fuse(s.antecedent), target), target)


def rho(e: Equation) -> frozenset:
    """Equation-to-sequent translation: both directed sequents."""
    return frozenset({Sequent((e.lhs,), e.rhs), Sequent((e.rhs,), e.lhs)})


def tau_prime(s: Sequent) -> Formula:
    """Sequent-to-formula translation (right-nested implications).

    Gamma => delta becomes phi_{m-1} \\ (... \\ (phi_0 \\ delta)), with delta
    the succedent formula or 0.  Requires rimp in the ambient language.
    """
    delta = s.succedent if s.succedent is not None else ZERO
    out = delta
    for f in s.antecedent:
        out = rimp(f, out)
    return out


def rho_prime(f: Formula) -> Sequent:
    """Formula-to-sequent translation: the theoremhood sequent (=> f)."""
    return Sequent((), f)


def mirror_sequent(s: Sequent) -> Sequent:
    ant = tuple(mirror_formula(f) for f in reversed(s.antecedent))
    succ = None if s.succedent is None else mirror_formula(s.succedent)
    return Sequent(ant, succ)


def mirror_equation(e: Equation) -> Equation:
    return Equation(mirror_formula(e.lhs), mirror_formula(e.rhs))


def encode_sequents(sequents):
    """Compile sequents into one SubformulaTable.  Returns the table and
    each sequent as a table sequent: (antecedent numbers, succedent number
    or -1 for an empty succedent)."""
    roots = []
    for s in sequents:
        roots.extend(s.antecedent)
        if s.succedent is not None:
            roots.append(s.succedent)
    table = SubformulaTable(roots)
    ids = iter(table.roots)
    encoded = []
    for s in sequents:
        ant = tuple(next(ids) for _ in s.antecedent)
        encoded.append((ant, -1 if s.succedent is None else next(ids)))
    return table, encoded


def decode_sequent(table: SubformulaTable, s) -> Sequent:
    ant, succ = s
    formulas = table.formulas
    return Sequent(tuple([formulas[i] for i in ant]),
                   None if succ < 0 else formulas[succ])


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def parse_sequent(text, lang=FULL) -> Sequent:
    if text.count("=>") != 1:
        raise FormulaSyntaxError("a sequent needs exactly one '=>'", text.find("=>"))
    left, right = text.split("=>")
    antecedent = tuple(parse_formula(part, lang)
                       for part in left.split(",") if part.strip())
    succedent = parse_formula(right, lang) if right.strip() else None
    return Sequent(antecedent, succedent)


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(f) for f in s.antecedent)
    right = format_formula(s.succedent) if s.succedent is not None else ""
    return f"{left} => {right}".strip()


def parse_equation(text, lang=FULL) -> Equation:
    """Parse ``lhs = rhs``, or the inequation sugar ``lhs <= rhs``."""
    if "<=" in text:
        left, right = text.split("<=", 1)
        return ineq(parse_formula(left, lang), parse_formula(right, lang))
    if text.count("=") != 1:
        raise FormulaSyntaxError("an equation needs exactly one '='", text.find("="))
    left, right = text.split("=")
    return Equation(parse_formula(left, lang), parse_formula(right, lang))


def format_equation(e: Equation) -> str:
    return f"{format_formula(e.lhs)} = {format_formula(e.rhs)}"
