"""substrukt: a workbench for substructural sequent calculi and their
ordered-algebra semantics.

Core entry points:

- syntax / sequents: formulas, sequents, the four translations, mirrors
- calculus / search: proof checking and backward proof search
- algebra / completion / bridge: finite algebras, ideal completions,
  countermodels and the filter-congruence correspondence
- hilbert: Hilbert systems cross-validated against the sequent prover
- cli: the ``substrukt`` command-line front end
"""

from .syntax import (Language, Formula, Var, Const, Bin, Neg, ZERO, ONE,
                     parse_formula, format_formula, mirror_formula,
                     apply_subst, subformulas, var, join, meet, fus, rimp,
                     limp, rneg, lneg)
from .sequents import (Sequent, Equation, seq, ineq, fuse, tau, rho,
                       tau_prime, rho_prime, mirror_sequent, parse_sequent,
                       format_sequent)
from .calculus import (CalculusId, RuleId, ProofTree, calculus, check_proof,
                       rule_instances_backward, mirror_proof,
                       format_proof_sexp, parse_proof_sexp)
from .search import (Proved, Refuted, Unknown, prove, prove_with_hyps,
                     verdict, check_verdict)
from .algebra import (FiniteAlgebra, VarietyId, eval_term,
                      satisfies_equation, satisfies_quasi, check_variety,
                      derive_residuals, derive_pseudocomplements, opposite,
                      check_property_equivalences, enumerate_algebras)
from .completion import (ideal_generated, all_ideals, nucleus_completion,
                         ideal_completion, verify_embedding,
                         ClosureOperatorSpec, ideal_closure)
from .bridge import (FilterSlices, canonical_filter, countermodel,
                     leibniz_congruence, filter_congruence_correspondence)
from .hilbert import (HilbertSystem, preset_hfl, preset_hfle,
                      preset_van_alten_raftery, hilbert_system,
                      check_hilbert_proof, parse_hilbert_proof,
                      axioms_to_sequents)

__version__ = "0.1.0"
