import pytest
from hypothesis import given
import hypothesis.strategies as st

from substrukt.syntax import (Language, LanguageError, ZERO, ONE, fus, join,
                              limp, lneg, meet, rimp, rneg, var)
from substrukt.sequents import (Equation, Sequent, check_sequent_language,
                                format_sequent, fuse, ineq, mirror_sequent,
                                parse_sequent, rho, rho_prime, seq, tau,
                                tau_prime)
from tests.test_syntax import formulas

p, q, r = var("p"), var("q"), var("r")


def test_fuse():
    assert fuse([]) == ONE
    assert fuse([p]) == p
    assert fuse([p, q, r]) == fus(fus(p, q), r)  # left association


@pytest.mark.parametrize("preset, s, message", [
    ("core", seq([p, fus(rneg(p), meet(q, r))], limp(p, q)), "meet"),
    ("core", seq([p], meet(lneg(p), rimp(q, r))), "lneg"),
    ("core", seq([meet(p, q), rneg(p)], lneg(q)), "meet"),
    ("core-meet", seq([meet(p, q)], join(rneg(p), lneg(q))), "lneg"),
    ("core-neg", seq([rneg(p), q], rimp(p, meet(p, q))), "meet"),
    ("core-meet-neg", seq([], limp(p, rneg(q))), "limp"),
])
def test_check_sequent_language_names_the_first_formula_outside(
        preset, s, message):
    # the first formula outside, antecedent first, and its first connective
    # outside in sorted order
    with pytest.raises(LanguageError) as err:
        check_sequent_language(s, Language.preset(preset))
    assert str(err.value) == f"{message} not in language"
    check_sequent_language(s, Language.preset("full"))


def test_tau_cases():
    assert tau(seq([p, q], r)) == {Equation(join(fus(p, q), r), r)}
    assert tau(seq([], p)) == {Equation(join(ONE, p), p)}
    assert tau(seq([], None)) == {Equation(join(ONE, ZERO), ZERO)}
    assert tau(seq([p, q], None)) == {Equation(join(fus(p, q), ZERO), ZERO)}


def test_tau_singleton_rhs_is_succedent():
    for s in [seq([p], q), seq([p, q, r], p), seq([], r)]:
        (eq,) = tau(s)
        assert eq.rhs == s.succedent
        assert eq.lhs == join(fuse(s.antecedent), s.succedent)


def test_rho():
    assert rho(Equation(p, q)) == {seq([p], q), seq([q], p)}
    assert rho(Equation(p, p)) == {seq([p], p)}  # duplicate collapse
    assert rho(ineq(p, q)) == {seq([join(p, q)], q), seq([q], join(p, q))}


def test_tau_prime():
    assert tau_prime(seq([p, q], r)) == rimp(q, rimp(p, r))
    assert tau_prime(seq([], p)) == p
    assert tau_prime(seq([p], None)) == rimp(p, ZERO)


def test_rho_prime():
    assert rho_prime(p) == seq([], p)
    assert rho_prime(ONE) == seq([], ONE)
    assert rho_prime(rneg(p)) == seq([], rneg(p))


def test_mirror_sequent():
    assert mirror_sequent(seq([p, q], r)) == seq([q, p], r)
    assert mirror_sequent(seq([], None)) == seq([], None)
    assert mirror_sequent(seq([rimp(p, q)], None)) == seq([limp(p, q)], None)


def test_sequent_text_forms():
    assert parse_sequent("p, q => r") == seq([p, q], r)
    assert parse_sequent("p =>") == seq([p], None)
    assert parse_sequent("=>") == seq([], None)
    assert parse_sequent("  p ,q=>r ") == seq([p, q], r)


@given(st.lists(formulas(), max_size=4),
       st.one_of(st.none(), formulas()))
def test_sequent_roundtrip_and_mirror_involution(ant, succ):
    s = Sequent(tuple(ant), succ)
    assert parse_sequent(format_sequent(s)) == s
    assert mirror_sequent(mirror_sequent(s)) == s
