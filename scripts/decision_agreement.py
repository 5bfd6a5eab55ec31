#!/usr/bin/env python3
"""Compare prover verdicts with bounded countermodel search on a random
sequent corpus, and name the regime in which `prove` treats the calculus:
decided by the shrinking search (no c), decided on antecedent sets (wl and
c; without e, exchange is derived with cut), or bounded (c without wl; a
plain refutation comes from the decided calculus with e and wl added, or
from a checked countermodel of at most search.COUNTERMODEL_SIZE
elements).

The corpus is drawn in the language preset --lang (core by default), and
the countermodels are sought in FL_sigma's variety over it.  Set
SUBSTRUKT_SEED to pin the corpus.
"""

import argparse
import time

from substrukt.algebra import VarietyId, family_of_language
from substrukt.bridge import Found, countermodel
from substrukt.calculus import calculus, parse_sigma
from substrukt.corpus import random_sequent, rng_from_env
from substrukt.search import (COUNTERMODEL_SIZE, Proved, Refuted, prove,
                              regime)
from substrukt.syntax import PRESET_NAMES, Language


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", type=int, default=100)
    ap.add_argument("--max-size", type=int, default=4)
    ap.add_argument("--sigma", default="wl")
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--lang", choices=PRESET_NAMES, default="core")
    args = ap.parse_args()

    rng = rng_from_env(default_seed=0)
    lang = Language.preset(args.lang)
    sigma = parse_sigma(args.sigma)
    cal = calculus(sigma, lang)
    variety = VarietyId(family_of_language(lang), sigma)
    label = {"shrinking": "decided (shrinking search)",
             "sets": "decided (on antecedent sets)" if "e" in sigma else
                     "decided (on antecedent sets; exchange derived by cut)",
             "bounded": "bounded (plain refutation from sigma + e + wl "
                        f"or a countermodel up to size {COUNTERMODEL_SIZE})"
             }[regime(sigma)]
    tally = {"proved+nomodel": 0, "refuted+model": 0,
             "refuted+nomodel": 0, "proved+model": 0, "unknown": 0}
    t0 = time.time()
    for _ in range(args.corpus):
        s = random_sequent(rng, depth=args.depth, lang=lang)
        verdict = prove(s, cal)
        witness = countermodel(s, variety, args.max_size)
        if isinstance(verdict, Proved):
            key = "proved+model" if isinstance(witness, Found) \
                else "proved+nomodel"
        elif isinstance(verdict, Refuted):
            key = "refuted+model" if isinstance(witness, Found) \
                else "refuted+nomodel"
        else:
            key = "unknown"
        tally[key] += 1
    matched = tally["proved+nomodel"] + tally["refuted+model"]
    print(f"sigma={{{args.sigma}}} regime: {label}")
    for key, count in tally.items():
        print(f"  {key:16} {count}")
    print(f"matched verdicts: {matched}/{args.corpus} "
          f"(soundness violations: {tally['proved+model']}) "
          f"in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
