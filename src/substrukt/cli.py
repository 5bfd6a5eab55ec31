"""Command-line front end.

Exit codes: 0 proved/valid, 1 refuted/invalid, 2 unknown, 64 usage error,
65 data/file error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .syntax import Language, PRESET_NAMES, format_formula, mirror_formula, parse_formula
from .sequents import (format_sequent, mirror_sequent, parse_equation,
                       parse_sequent, rho, rho_prime, tau, tau_prime)
from .calculus import calculus, format_proof_sexp, parse_sigma
from .search import Proved, Refuted, verdict
from .algebra import (MAX_ENUMERATION_SIZE, VarietyId,
                      check_property_equivalences, check_variety,
                      derive_pseudocomplements, derive_residuals,
                      enumerate_algebras, family_of_language, load_algebra,
                      opposite, to_json_dict)
from .bridge import filter_congruence_correspondence
from .completion import embedding_json, ideal_completion
from .hilbert import (PRESETS, axioms_to_sequents, check_hilbert_proof,
                      hilbert_system, matching_calculus, parse_hilbert_proof,
                      rules_to_sequents)

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65

# `algebra --derive`: the algebra each choice prints
_DERIVE = {"residuals": derive_residuals,
           "pseudocomplements": derive_pseudocomplements,
           "opposite": opposite}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _lang(spec: str) -> Language:
    if spec in PRESET_NAMES:
        return Language.preset(spec)
    return Language.of(*(part.strip() for part in spec.split(",") if part.strip()))


def _calculus(args):
    return calculus(parse_sigma(args.sigma), _lang(args.lang))


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _max_size(text):
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= size <= MAX_ENUMERATION_SIZE:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {MAX_ENUMERATION_SIZE}, the enumeration "
            "cap")
    return size


def _build_parser():
    top = _Parser(prog="substrukt",
                  description="substructural sequent calculi and their "
                              "ordered-algebra semantics")
    top.add_argument("--sigma", default="",
                     help="structural rules: comma list of e,wl,wr,c "
                          "(w expands to wl,wr)")
    top.add_argument("--lang", default="full",
                     help=f"language preset ({', '.join(PRESET_NAMES)}) "
                          "or an explicit connective list")
    top.add_argument("--depth", type=int, default=None,
                     help="depth bound for bounded searches")
    top.add_argument("--max-size", type=_max_size, default=4,
                     help="maximum countermodel size "
                          f"(1..{MAX_ENUMERATION_SIZE})")
    top.add_argument("--format", choices=("text", "json", "sexp"),
                     default="text")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="prove or refute a sequent")
    p.add_argument("sequent")
    p.add_argument("--hyp", action="append", default=[],
                   help="hypothesis sequent (may repeat)")

    p = sub.add_parser("decide", help="prover and countermodel together")
    p.add_argument("sequent")

    p = sub.add_parser("translate", help="translate sequents and equations")
    p.add_argument("--mode", choices=("tau", "rho", "tau-prime", "rho-prime"),
                   default="tau")
    p.add_argument("item")

    p = sub.add_parser("mirror", help="mirror image of a sequent or formula")
    p.add_argument("item")

    p = sub.add_parser("algebra", help="inspect an algebra JSON file")
    p.add_argument("path")
    p.add_argument("--variety", default=None,
                   help="family name (Msl, Ml, PMsl, PMl, RL, FL)")
    p.add_argument("--derive", choices=tuple(_DERIVE), default=None)
    p.add_argument("--properties", action="store_true",
                   help="report the structural property equivalences")

    p = sub.add_parser("complete", help="ideal completion of an algebra")
    p.add_argument("path")

    p = sub.add_parser("filters", help="filters, congruences, correspondence")
    p.add_argument("path")
    p.add_argument("--variety", default=None)

    p = sub.add_parser("enumerate", help="enumerate variety members")
    p.add_argument("family")
    p.add_argument("size", type=int)

    p = sub.add_parser("hilbert", help="Hilbert systems")
    p.add_argument("--system", default="hfl",
                   help="hfl | hfle | van-alten-raftery | sigma (uses --sigma)")
    p.add_argument("--check", default=None, help="proof file to check")
    p.add_argument("--hyp", action="append", default=[],
                   help="hypothesis formula for proof checking")
    p.add_argument("--validate", action="store_true",
                   help="prove every axiom and rule in the matching calculus")
    return top


def _cmd_prove(args):
    cal = _calculus(args)
    goal = parse_sequent(args.sequent, cal.lang)
    hyps = [parse_sequent(h, cal.lang) for h in args.hyp]
    # without hypotheses the verdict is the prover's; `decide` adds the scan
    result = verdict(goal, cal, hyps, max_size=args.max_size if hyps else None,
                     bound=args.depth)
    if isinstance(result, Proved):
        sexp = format_proof_sexp(result.tree)
        if args.format == "sexp":
            print(sexp)
        else:
            _emit(args, {"verdict": "proved", "proof": sexp},
                  f"proved\n{sexp}")
        return EXIT_PROVED
    if isinstance(result, Refuted):
        witness = result.countermodel
        # "caveat" stays in the schema; no refutation carries one
        payload = {"verdict": "refuted", "caveat": None, "countermodel": None}
        text = "refuted"
        if witness is not None:
            payload["countermodel"] = {
                "algebra": to_json_dict(witness.algebra),
                "assignment": witness.assignment}
            text = ("refuted (countermodel)\n"
                    + json.dumps(payload["countermodel"]["algebra"])
                    + f"\nassignment: {witness.assignment}")
        _emit(args, payload, text)
        return EXIT_REFUTED
    _emit(args, {"verdict": "unknown", "reason": result.reason},
          f"unknown ({result.reason})")
    return EXIT_UNKNOWN


def _cmd_decide(args):
    cal = _calculus(args)
    goal = parse_sequent(args.sequent, cal.lang)
    result = verdict(goal, cal, max_size=args.max_size, bound=args.depth)
    if isinstance(result, Proved):
        sexp = format_proof_sexp(result.tree)
        _emit(args, {"verdict": "proved", "proof": sexp}, f"proved\n{sexp}")
        return EXIT_PROVED
    if isinstance(result, Refuted):
        witness = result.countermodel
        if witness is not None:
            payload = {"verdict": "refuted",
                       "countermodel": to_json_dict(witness.algebra),
                       "assignment": witness.assignment}
            _emit(args, payload,
                  "refuted\n" + json.dumps(payload["countermodel"]) +
                  f"\nassignment: {witness.assignment}")
        else:
            _emit(args, {"verdict": "refuted", "by": "decision procedure",
                         "model_bound": args.max_size},
                  f"refuted (by the decision procedure; no countermodel up "
                  f"to size {args.max_size})")
        return EXIT_REFUTED
    bound = args.depth if args.depth is not None else "default"
    _emit(args, {"verdict": "unknown", "prover_bound": str(bound),
                 "model_bound": args.max_size, "reason": result.reason},
          f"unknown (prover bound {bound}, models up to {args.max_size}; "
          f"{result.reason})")
    return EXIT_UNKNOWN


def _cmd_translate(args):
    lang = _lang(args.lang)
    if args.mode == "tau":
        eqs = sorted(str(e) for e in tau(parse_sequent(args.item, lang)))
        _emit(args, {"equations": eqs}, "\n".join(eqs))
    elif args.mode == "rho":
        seqs = sorted(format_sequent(s)
                      for s in rho(parse_equation(args.item, lang)))
        _emit(args, {"sequents": seqs}, "\n".join(seqs))
    elif args.mode == "tau-prime":
        f = tau_prime(parse_sequent(args.item, lang))
        _emit(args, {"formula": format_formula(f)}, format_formula(f))
    else:
        s = rho_prime(parse_formula(args.item, lang))
        _emit(args, {"sequent": format_sequent(s)}, format_sequent(s))
    return EXIT_PROVED


def _cmd_mirror(args):
    lang = _lang(args.lang)
    if "=>" in args.item:
        out = format_sequent(mirror_sequent(parse_sequent(args.item, lang)))
    else:
        out = format_formula(mirror_formula(parse_formula(args.item, lang)))
    _emit(args, {"mirror": out}, out)
    return EXIT_PROVED


def _variety(args, algebra):
    if args.variety:
        family = args.variety
    else:
        family = family_of_language(algebra.language())
    return VarietyId(family, parse_sigma(args.sigma))


def _cmd_algebra(args):
    a = load_algebra(args.path)
    if args.derive:
        payload = to_json_dict(_DERIVE[args.derive](a))
        _emit(args, payload, json.dumps(payload, indent=2))
        return EXIT_PROVED
    if args.properties:
        rep = check_property_equivalences(a)
        _emit(args, rep, "\n".join(f"{k}: quasi={v['quasi']} "
                                   f"equation={v['equation']} agree={v['agree']}"
                                   for k, v in rep.items()))
        return EXIT_PROVED
    v = _variety(args, a)
    rep = check_variety(a, v)
    payload = {"variety": str(v), "ok": rep.ok,
               "missing_ops": list(rep.missing_ops),
               "violations": [{"equation": name,
                               "witnesses": list(wits)}
                              for name, wits in rep.violations]}
    lines = [f"{v}: {'ok' if rep.ok else 'FAIL'}"]
    for name, wits in rep.violations:
        lines.append(f"  {name}: {list(wits[:3])}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_PROVED if rep.ok else EXIT_REFUTED


def _cmd_complete(args):
    a = load_algebra(args.path)
    comp, emb = ideal_completion(a)
    payload = to_json_dict(comp)
    payload.update(embedding_json(a))
    _emit(args, payload, json.dumps(payload, indent=2))
    return EXIT_PROVED


def _cmd_filters(args):
    a = load_algebra(args.path)
    v = _variety(args, a)
    rep = filter_congruence_correspondence(a, v)
    payload = {"variety": str(v), "ok": rep.ok, "filters": rep.n_filters,
               "congruences": rep.n_congruences,
               "failures": list(rep.failures)}
    _emit(args, payload,
          f"{v}: filters={rep.n_filters} congruences={rep.n_congruences} "
          f"{'ok' if rep.ok else 'FAIL'}")
    return EXIT_PROVED if rep.ok else EXIT_REFUTED


def _cmd_enumerate(args):
    v = VarietyId(args.family, parse_sigma(args.sigma))
    count = 0
    for a in enumerate_algebras(v, args.size):
        print(json.dumps(to_json_dict(a)))
        count += 1
    print(f"# {count} algebras in {v} of size {args.size}", file=sys.stderr)
    return EXIT_PROVED


def _cmd_hilbert(args):
    if args.system in PRESETS:
        sys_ = PRESETS[args.system]()
    elif args.system == "sigma":
        sys_ = hilbert_system(parse_sigma(args.sigma))
    else:
        raise _UsageError(f"unknown Hilbert system {args.system!r}")
    if args.check:
        with open(args.check) as fh:
            proof = parse_hilbert_proof(fh.read(), sys_.lang)
        hyps = frozenset(parse_formula(h, sys_.lang) for h in args.hyp)
        res = check_hilbert_proof(proof, sys_, hyps)
        if res.ok:
            _emit(args, {"verdict": "accepted"}, "accepted")
            return EXIT_PROVED
        _emit(args, {"verdict": "rejected", "reason": res.reason,
                     "line": res.line},
              f"rejected at line {res.line + 1}: {res.reason}")
        return EXIT_REFUTED
    cal = matching_calculus(sys_)
    axioms = axioms_to_sequents(sys_, cal, bound=args.depth)
    rules = rules_to_sequents(sys_, cal, bound=args.depth)
    payload = {"system": sys_.name, "calculus": str(cal),
               "axioms": dict(axioms.verdicts), "rules": dict(rules)}
    lines = [f"{sys_.name} against {cal}:"]
    lines += [f"  axiom {n}: {v}" for n, v in axioms.verdicts]
    lines += [f"  rule {n}: {v}" for n, v in rules]
    _emit(args, payload, "\n".join(lines))
    ok = axioms.all_proved and all(v == "proved" for _, v in rules)
    return EXIT_PROVED if ok else EXIT_UNKNOWN


_COMMANDS = {
    "prove": _cmd_prove,
    "decide": _cmd_decide,
    "translate": _cmd_translate,
    "mirror": _cmd_mirror,
    "algebra": _cmd_algebra,
    "complete": _cmd_complete,
    "filters": _cmd_filters,
    "enumerate": _cmd_enumerate,
    "hilbert": _cmd_hilbert,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
