"""Exception types shared across the toolkit.

Checks that are part of an operation's *contract* raise one of these;
report-style validators return `Violation` records instead (see report.py).
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class SingularMatrix(ToolkitError):
    """Matrix inversion requested for a rank-deficient square matrix."""


class DimensionMismatch(ToolkitError):
    """Operands have incompatible shapes or degrees."""


class DuplicateAssignment(ToolkitError):
    """A cochain value was assigned twice to the same basis tuple."""


class IndexOutOfRange(ToolkitError):
    """A basis index lies outside the declared dimension."""


class InvalidStructure(ToolkitError):
    """Construction-time validation failed (non-Lie bracket, bad representation,
    non-cocycle twisting term, inconsistent instance file)."""


class InternalInconsistency(ToolkitError):
    """Two routes that must agree on every input disagreed: a bug, not bad input."""


class NotNijenhuis(ToolkitError):
    """Operator fails the Nijenhuis identity."""


class NotTwistedRB(ToolkitError):
    """Operator fails the twisted Rota-Baxter identity."""


class NotDerivation(ToolkitError):
    """Endomorphism fails the Leibniz rule."""


class NotNilpotent(ToolkitError):
    """No power of the endomorphism vanishes within the scanned range."""


class NotCocycle(ToolkitError):
    """Cochain expected to be closed has nonzero differential."""


class NotAdmissible(ToolkitError):
    """The perturbed identity map (id + B∘T or id - h∘T) is singular."""


class NotNsLie(ToolkitError):
    """Pair of products fails the NS-Lie axioms."""


class NotAssocNs(ToolkitError):
    """Triple of products fails the associative NS-algebra identities."""


class NotGcs(ToolkitError):
    """Block operator fails the generalized complex structure conditions."""


class NotSkew(ToolkitError):
    """Matrix expected to be skew-symmetric is not."""


class NonzeroH(ToolkitError):
    """Construction requires an untwisted setup (H = 0)."""
