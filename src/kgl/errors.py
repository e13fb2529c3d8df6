"""Exception hierarchy shared by all kgl modules.

Every error raised on purpose by this package derives from :class:`KglError`,
so callers can catch one type at the boundary. The leaf classes mirror the
failure modes of the individual modules (bad input tables, non-Hermitian
matrices, failed dominance, ...) and carry a human-readable message,
usually with a witness of the violation.
"""


class KglError(Exception):
    """Base class for all errors raised by kgl."""


# ---------------------------------------------------------------- numlin

class NonFinite(KglError):
    """Matrix or vector contains NaN or Inf entries."""


class NotHermitian(KglError):
    """Hermitian input required; residual above tolerance."""


# ---------------------------------------------------------------- bundle

class UnknownPoint(KglError):
    """Point label not present in the bundle base set."""


class DimMismatch(KglError):
    """Vector length does not match the fiber dimension."""


class BundleMismatch(KglError):
    """Operation mixing sections over different bundles."""


class SupportOutsidePart(KglError):
    """Section supported outside the part being stacked."""


# ---------------------------------------------------------------- sgpd

class MalformedTable(KglError):
    """Composition/star/action table references an unknown label."""


class InvalidSemigroupoid(KglError):
    """Operation requires a semigroupoid that passes validation."""


class BadFamilyParams(KglError):
    """Generator family parameters are out of range or malformed."""


# ---------------------------------------------------------------- kernel

class ShapeMismatch(KglError):
    """Matrix block has a shape inconsistent with the declared dims."""


class CrossPartSupport(KglError):
    """Sections must be supported inside one common partition part."""


class OrbitBundleNotTrivial(KglError):
    """Fiber dimension varies along an action orbit."""


class NotPSD(KglError):
    """Positive semidefinite matrix required."""


# ---------------------------------------------------------------- hilbert_lin

class NotPartiallyPSD(KglError):
    """Kernel is not positive semidefinite on every partition part."""


class NotInvariant(KglError):
    """Kernel is not invariant under the given action."""


class RankMismatch(KglError):
    """Linearisations have different ranks on some part."""


# ---------------------------------------------------------------- krein

class KernelNotDominated(KglError):
    """Dominance of the definite kernel over the Hermitian one fails."""


class PairingViolated(KglError):
    """A shift does not descend to the quotient of a linearisation, or an
    operator pair fails the compatibility identity and has no lift."""


# ---------------------------------------------------------------- cli_io

class ParseError(KglError):
    """Input document is syntactically malformed."""


class CrossRefError(KglError):
    """Document references a label that does not resolve."""


class AxiomError(KglError):
    """Loaded instance fails axiom validation; message carries a witness."""


class UnsupportedFamily(KglError):
    """Requested generator mode is not available for this structure."""
