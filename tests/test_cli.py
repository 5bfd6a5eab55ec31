import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import substrukt
from substrukt.algebra import (VarietyId, check_variety, from_json_dict,
                               holds, to_json_dict)
from substrukt.cli import main
from substrukt.corpus import random_sequent
from substrukt.sequents import format_sequent, parse_sequent, tau_equation
from substrukt.syntax import PRESET_NAMES, Language
from substrukt import fixtures


def dump_algebra(a, path):
    with open(path, "w") as fh:
        json.dump(to_json_dict(a), fh, indent=2)
        fh.write("\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prove_exit_codes(capsys):
    code, out, _ = run(capsys, "--sigma", "e", "--lang", "core",
                       "prove", "p * q => q * p")
    assert code == 0 and out.startswith("proved")
    code, out, _ = run(capsys, "--lang", "core", "prove", "p => p * p")
    assert code == 1 and out.startswith("refuted")
    code, out, _ = run(capsys, "--sigma", "c", "prove", "p => q")
    assert code == 1 and out.startswith("refuted")
    code, out, _ = run(capsys, "--sigma", "c", "prove", "p, p => p")
    assert code == 2 and out.startswith("unknown")


def test_decide_countermodel(capsys):
    code, out, _ = run(capsys, "--sigma", "", "--lang", "core",
                       "decide", "p => p * p")
    assert code == 1
    assert "assignment" in out


def test_decide_reports_a_decided_refutation_without_a_countermodel(capsys):
    # no countermodel of size 1; the prover decides sigma = {} and refutes
    code, out, _ = run(capsys, "--lang", "core", "--max-size", "1",
                       "decide", "p => p * p")
    assert code == 1
    assert out.startswith("refuted") and "decision procedure" in out
    code, out, _ = run(capsys, "--format", "json", "--lang", "core",
                       "--max-size", "1", "decide", "p => p * p")
    assert code == 1
    assert json.loads(out) == {"verdict": "refuted",
                               "by": "decision procedure", "model_bound": 1}
    # p => q fails in the decided FL_{e,wl,c}, so also under wl,c
    code, out, _ = run(capsys, "--sigma", "wl,c", "--lang", "core",
                       "--max-size", "1", "decide", "p => q")
    assert code == 1
    assert out.startswith("refuted (by the decision procedure")


@pytest.mark.parametrize("size", ["-1", "0", "6", "x"])
def test_max_size_outside_the_enumeration_cap_is_a_usage_error(capsys, size):
    code, out, err = run(capsys, "--lang", "core", "--max-size", size,
                         "decide", "p => p * p")
    assert code == 64
    assert out == "" and "--max-size" in err


def test_decide_proved(capsys):
    code, out, _ = run(capsys, "--lang", "core", "decide", "p => p \\/ q")
    assert code == 0


def test_mirror(capsys):
    code, out, _ = run(capsys, "mirror", "p, q => rn(p)")
    assert code == 0 and out.strip() == "q, p => ln(p)"


def test_translate_modes(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "tau", "p, q => r")
    assert out.strip() == "p * q \\/ r = r"
    code, out, _ = run(capsys, "translate", "--mode", "tau-prime", "p, q => r")
    assert out.strip() == "q \\ (p \\ r)"
    code, out, _ = run(capsys, "translate", "--mode", "rho-prime", "p")
    assert out.strip() == "=> p"


def test_json_output_is_schema_stable(capsys):
    args = ("--format", "json", "--lang", "core", "decide", "p => p * p")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "refuted"
    assert set(payload) == {"verdict", "countermodel", "assignment"}


def test_algebra_check(tmp_path, capsys):
    path = tmp_path / "diamond.json"
    dump_algebra(fixtures.diamond(), path)
    code, out, _ = run(capsys, "algebra", str(path), "--variety", "Msl")
    assert code == 1 and "distrib" in out
    path2 = tmp_path / "chain4.json"
    dump_algebra(fixtures.chain4_min(), path2)
    code, _, _ = run(capsys, "--sigma", "e,wl,wr,c", "algebra", str(path2),
                     "--variety", "Ml")
    assert code == 0


def test_algebra_derive_and_properties(tmp_path, capsys):
    path = tmp_path / "c4.json"
    dump_algebra(fixtures.chain4_min(), path)
    code, out, _ = run(capsys, "algebra", str(path), "--derive", "residuals")
    assert code == 0 and "rimp" in out
    code, out, _ = run(capsys, "algebra", str(path), "--properties")
    assert code == 0 and "agree=True" in out


def test_complete_command(tmp_path, capsys):
    path = tmp_path / "c3.json"
    dump_algebra(fixtures.chain3_nilpotent(), path)
    code, out, _ = run(capsys, "complete", str(path))
    assert code == 0
    payload = json.loads(out)
    assert "embedding" in payload and "ops" in payload


def test_filters_command(tmp_path, capsys):
    path = tmp_path / "b2.json"
    dump_algebra(fixtures.boolean2(), path)
    code, out, _ = run(capsys, "--sigma", "e,wl,wr,c", "filters", str(path),
                       "--variety", "Ml")
    assert code == 0 and "filters=2" in out


def test_enumerate_command(capsys):
    code, out, err = run(capsys, "enumerate", "Msl", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    json.loads(lines[0])


def test_hilbert_validate(capsys):
    code, out, _ = run(capsys, "--sigma", "e", "hilbert", "--system", "sigma",
                       "--validate")
    assert code == 0 and "proved" in out


def test_hilbert_check_proof(tmp_path, capsys):
    proof = tmp_path / "proof.txt"
    proof.write_text("1. p \\ p [axiom id]\n")
    code, out, _ = run(capsys, "hilbert", "--system", "hfl",
                       "--check", str(proof))
    assert code == 0 and "accepted" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("1. p \\ q [axiom id]\n")
    code, out, _ = run(capsys, "hilbert", "--check", str(bad))
    assert code == 1 and "rejected" in out


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "prove")[0] == 64
    # missing file is a data error
    assert run(capsys, "algebra", "/nonexistent.json")[0] == 65
    # malformed sigma
    assert run(capsys, "--sigma", "zz", "prove", "p => p")[0] == 65


DEEP_NEGATION = "rn(" * 3000 + "p" + ")" * 3000


def test_deep_nesting_is_parsed_and_proved(capsys):
    # the parser keeps explicit stacks, and `prove` checks its proof
    code, out, err = run(capsys, "prove", "(" * 3000 + "p" + ")" * 3000 + " => p")
    assert code == 0 and out == 'proved\n(axiom "p => p")\n' and err == ""
    for sigma in ("", "e", "wl", "e,wl,c"):
        code, out, err = run(capsys, "--sigma", sigma, "prove",
                             f"{DEEP_NEGATION} => {DEEP_NEGATION}")
        assert code == 0 and out.startswith("proved\n") and err == ""


def test_deep_nesting_is_a_data_error(capsys):
    # tau's equations are hashed, and hashing a formula recurses
    code, out, err = run(capsys, "translate", f"{DEEP_NEGATION} => p")
    assert code == 65
    assert out == "" and err == "error: input nested too deeply\n"


def test_unknown_names_the_limit_that_fired(capsys):
    # depth is unbounded for sigma = {e}; the sub-multiset cap cut the search
    goal = "p,p,p,p,p,p,p,p,p,p,p,q => p * (p \\/ q)"
    code, out, _ = run(capsys, "--sigma", "e", "prove", goal)
    assert code == 2 and out == "unknown (submultiset-cap)\n"
    code, out, _ = run(capsys, "--sigma", "e", "--format", "json",
                       "prove", goal)
    assert code == 2
    assert json.loads(out) == {"verdict": "unknown",
                               "reason": "submultiset-cap"}


CONTRACTION_GOAL = "q * (1 \\/ q) * (q * q \\/ (r \\/ r)) => q"


def test_a_contraction_goal_is_refuted_by_a_countermodel():
    # the bounded search alone ran for minutes on this goal under sigma = c
    src = str(Path(substrukt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "substrukt.cli", "--sigma", "c", "prove",
         CONTRACTION_GOAL], capture_output=True, text=True, timeout=5,
        env=env)
    assert done.returncode == 1
    assert done.stdout.startswith("refuted (countermodel)\n")
    assert "assignment: " in done.stdout


def test_prove_reports_the_countermodel_in_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "--sigma", "c", "prove",
                       CONTRACTION_GOAL)
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"verdict", "caveat", "countermodel"}
    assert payload["verdict"] == "refuted" and payload["caveat"] is None
    witness = payload["countermodel"]
    a = from_json_dict(witness["algebra"])
    assert check_variety(a, VarietyId("FL", frozenset({"c"}))).ok
    values = {name: a.elements.index(element)
              for name, element in witness["assignment"].items()}
    assert not holds(a, tau_equation(parse_sequent(CONTRACTION_GOAL)), values)
    # a refutation by a decision procedure has no countermodel
    code, out, _ = run(capsys, "--format", "json", "--sigma", "c", "prove",
                       "p => q")
    assert code == 1
    assert json.loads(out) == {"verdict": "refuted", "caveat": None,
                               "countermodel": None}


def test_wl_c_is_decided_with_exchange_by_cut(capsys):
    # FL_{wl,c} proves what FL_{e,wl,c} proves: its proof of a swap of
    # factors replaces exchange with cuts
    args = ("--sigma", "wl,c", "--lang", "core")
    code, out, _ = run(capsys, *args, "prove", "p * q => q * p")
    assert code == 0 and out.startswith("proved") and "(cut " in out
    code, out, _ = run(capsys, *args, "decide", "p * q => q * p")
    assert code == 0 and out.startswith("proved")
    code, out, _ = run(capsys, "--format", "json", *args, "prove", "p => q")
    assert code == 1
    assert json.loads(out) == {"verdict": "refuted", "caveat": None,
                               "countermodel": None}


def test_decide_reports_the_provers_countermodel(capsys):
    # the prover's countermodel has 3 elements: above --max-size, but found
    code, out, _ = run(capsys, "--sigma", "c", "--lang", "core",
                       "--max-size", "1", "decide", "p, p => p")
    assert code == 1
    assert out.startswith("refuted\n") and "assignment: {'p'" in out


def test_decide_in_a_language_that_names_no_variety(capsys):
    # the prover decides sigma = {}: no countermodel scan is needed
    code, out, err = run(capsys, "--lang", "meet,rneg", "decide", "p => q")
    assert code == 1 and err == ""
    assert out.startswith("refuted (by the decision procedure")
    code, out, _ = run(capsys, "--lang", "meet,rneg", "prove", "p => q")
    assert code == 1
    # the bounded regime ends unknown; decide names the limit
    args = ("--lang", "rimp,limp", "--sigma", "c", "--format", "json",
            "decide", "p * q => q * p")
    code, out, err = run(capsys, *args)
    assert code == 2 and err == ""
    assert json.loads(out) == {"verdict": "unknown", "prover_bound": "default",
                               "model_bound": 4, "reason": "depth-exhausted"}


def test_decide_unknown_names_the_reason(capsys):
    code, out, _ = run(capsys, "--sigma", "c", "--max-size", "1",
                       "decide", "p, p => p")
    assert code == 2
    assert out == ("unknown (prover bound default, models up to 1; search "
                   "space closed under loop check; refutation is not "
                   "claimed for contraction without left-weakening)\n")


def test_prove_with_hypotheses_refutes_with_a_countermodel(capsys):
    code, out, _ = run(capsys, "--lang", "core", "prove", "--hyp", "p => q",
                       "q => p")
    assert code == 1
    assert out.startswith("refuted (countermodel)\n")
    assert "assignment: " in out
    code, out, _ = run(capsys, "--lang", "core", "--format", "json", "prove",
                       "--hyp", "p => q", "q => p")
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"verdict", "caveat", "countermodel"}
    a = from_json_dict(payload["countermodel"]["algebra"])
    assert check_variety(a, VarietyId("Msl")).ok
    assignment = payload["countermodel"]["assignment"]
    values = {name: a.elements.index(element)
              for name, element in assignment.items()}
    assert holds(a, tau_equation(parse_sequent("p => q")), values)
    assert not holds(a, tau_equation(parse_sequent("q => p")), values)
    # --max-size bounds the scan: no member of one element refutes it
    code, out, _ = run(capsys, "--lang", "core", "--max-size", "1", "prove",
                       "--hyp", "p => q", "q => p")
    assert code == 2 and out.startswith("unknown")


def test_prove_with_hypotheses_claims_no_refutation_of_a_consequence(capsys):
    # derivable by cuts on 1, but the search's commit to one-l loses the
    # proof; no countermodel exists, so none is claimed
    code, out, _ = run(capsys, "--lang", "core", "prove", "--hyp",
                       "1, 1 => q", "=> q * p \\/ q")
    assert code == 2 and out == "unknown (depth-exhausted)\n"


def test_prove_with_hypotheses_keeps_the_search_reason(capsys):
    # no named variety: no scan, and the reason is the search's own
    lang = Language.of("rimp", "limp")
    expected = substrukt.prove_with_hyps(
        parse_sequent("=> q", lang), {parse_sequent("=> p", lang)},
        substrukt.calculus("", lang))
    code, out, _ = run(capsys, "--lang", "rimp,limp", "--format", "json",
                       "prove", "--hyp", "=> p", "=> q")
    assert code == 2
    assert json.loads(out) == {"verdict": "unknown",
                               "reason": expected.reason}
    assert expected.reason == "depth-exhausted, antecedent-cap"


def test_a_depth_below_one_is_a_data_error(capsys):
    # the empty search at depth 0 refuted p => p
    for verb, sigma in itertools.product(("prove", "decide"), ("", "e,wl,c")):
        code, out, err = run(capsys, "--depth", "0", "--lang", "core",
                             "--sigma", sigma, verb, "p => p")
        assert code == 65 and out == ""
        assert err == "error: bound must be at least 1\n"


def test_depth_bounds_only_the_bounded_regime(capsys):
    goal = "p, q => q * p \\/ p * q"
    code, out, _ = run(capsys, "--depth", "1", "prove", goal)
    assert code == 0 and out == run(capsys, "prove", goal)[1]
    assert out.startswith("proved\n")
    code, out, _ = run(capsys, "--depth", "1", "--sigma", "c", "prove",
                       "p => p * p")
    assert code == 2 and out == "unknown (depth-exhausted)\n"


# every sigma but those with c and without wl, where the bounded search of
# FL_c may run for minutes
FUZZ_SIGMAS = [",".join(c) for k in range(5)
               for c in itertools.combinations(("e", "wl", "wr", "c"), k)
               if "c" not in c or "wl" in c]
FUZZ_LANGS = list(PRESET_NAMES) + ["meet,rneg", "rimp,limp"]


@st.composite
def _fuzz_item(draw):
    """A random sequent as text, one of its formulas, or garbage."""
    lang = draw(st.sampled_from(FUZZ_LANGS))
    kind = draw(st.sampled_from(("sequent", "sequent", "formula", "garbage")))
    if kind == "garbage":
        return lang, draw(st.text(alphabet="pq01*/\\=>(), ~-x", max_size=20)
                          | st.text(max_size=8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    goal = random_sequent(rng, depth=rng.randint(1, 3),
                          lang=Language.preset(lang) if lang in PRESET_NAMES
                          else Language.of(*lang.split(",")))
    text = format_sequent(goal)
    return lang, text if kind == "sequent" else text.split("=>")[-1].strip()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(item=_fuzz_item(),
       verb=st.sampled_from(("prove", "decide", "translate", "mirror")),
       sigma=st.sampled_from(FUZZ_SIGMAS), size=st.sampled_from("123"))
def test_exit_codes_hold_on_any_input(item, verb, sigma, size):
    lang, text = item
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--sigma", sigma, "--lang", lang, "--max-size", size,
                     verb, text])
    assert code in (0, 1, 2, 64, 65)
    assert "Traceback" not in err.getvalue()
