"""The text of a verdict that the pinned digests of the search tests hash."""

from substrukt.calculus import format_proof_sexp
from substrukt.search import Proved, Refuted, Unknown


def verdict_text(res):
    """A proof as `format_proof_sexp` prints it; any other verdict with its
    fields written out one by one, as its repr read when the digests were
    taken, so that a field added to a verdict class later moves no
    digest."""
    if isinstance(res, Proved):
        return format_proof_sexp(res.tree)
    if isinstance(res, Refuted):
        # Refuted had one field in its repr then, a caveat since removed
        return "Refuted(caveat=None)"
    if isinstance(res, Unknown):
        return f"Unknown(reason={res.reason!r})"
    raise TypeError(f"not a verdict: {res!r}")
