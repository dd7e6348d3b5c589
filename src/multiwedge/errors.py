"""Domain errors shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures to distinct JSON error fields.
"""


class MultiWedgeError(Exception):
    code = "error"


class NotMultiBoundedAbove(MultiWedgeError):
    """The family has no multi-upper bound (the translate intersection is empty)."""

    code = "not_multi_bounded_above"


class NotMultiBoundedBelow(MultiWedgeError):
    """The family has no multi-lower bound."""

    code = "not_multi_bounded_below"


class NoMultiSupremum(MultiWedgeError):
    """A multi-bounded value set admits no multi-supremum in the codomain wedge.

    Signals that the codomain ordered by the given wedge is not Dedekind
    complete for the set at hand, which violates a caller-side hypothesis
    of the operator supremum formulas.
    """

    code = "no_multi_supremum"


class InconsistentValues(MultiWedgeError):
    """Generator values do not extend to any linear map (additivity fails)."""

    code = "inconsistent_values"


class RDPViolated(MultiWedgeError):
    """The decomposition hypothesis required by an operator supremum is false."""

    code = "rdp_violated"


class InvalidInstance(MultiWedgeError):
    """A decomposition instance violates its structural invariants."""

    code = "invalid_instance"


class ZeroSpace(MultiWedgeError):
    """An operation requires nonzero ambient spaces."""

    code = "zero_space"


class NotInSumWedge(MultiWedgeError):
    """The evaluation point lies outside the sum of the domain wedges."""

    code = "not_in_sum_wedge"


class InternalInvariantError(MultiWedgeError):
    """A result that the mathematics rules out was returned by an inner step.

    Signals a defect in the package, not in the input.
    """

    code = "internal_invariant"
