"""Exception hierarchy shared across the library.

Every error names the violated precondition or invariant; callers are
expected to catch the specific class, not a generic Exception.
"""


class WittenLabError(Exception):
    """Base class for all library errors."""


# -- eigensolve ---------------------------------------------------------------

class DegenerateInput(WittenLabError):
    """Structurally invalid request (e.g. more eigenpairs than matrix dimension)."""


class NoConvergence(WittenLabError):
    """Iteration budget exhausted; signals grid or shift misconfiguration."""


class SingularShift(WittenLabError):
    """Shifted solve hit a pivot below the machine-safe threshold; re-shift."""


# -- oscillator1d -------------------------------------------------------------

class DomainTooSmall(WittenLabError):
    """Eigenvector mass reaches the truncation boundary; enlarge the interval."""


class PositivityViolation(WittenLabError):
    """Sign-normalized ground vector has a non-positive interior entry."""


# -- circle_lab ---------------------------------------------------------------

class MeanZeroUnreachable(WittenLabError):
    """Root-finding could not move the designated zero to enforce a periodic f."""


class DegenerateClassification(WittenLabError):
    """A critical point has both |f''| and |f'''| below threshold."""


class NotAffinelySelfIndexable(WittenLabError):
    """Minima (or maxima) do not share a common value; affine rescale insufficient."""


class GridTooCoarse(WittenLabError):
    """n_grid violates the resolution rule for the requested deformation parameter."""


class WeightOverflow(GridTooCoarse):
    """t times the change of f over a half cell puts a Witten weight beyond double range."""


class ClusterOverlap(WittenLabError):
    """Spectral cluster intervals collided; deformation parameter too small."""


class AssumptionViolated(WittenLabError):
    """Separation hypothesis between the first and second model levels fails."""


class ProjectionDegenerate(WittenLabError):
    """Quasimode Gram matrix is numerically singular; clusters not resolved."""


# -- morse_complex ------------------------------------------------------------

class PairEntryNotUnit(WittenLabError):
    """Coboundary entry of a birth-death pair is not +1."""


class NotAComplex(WittenLabError):
    """delta o delta != 0; the input or an elimination step is corrupted."""


class DegreeMismatch(WittenLabError):
    """Incidence requested between cells of incompatible degrees."""


class NotMorseSmale(WittenLabError):
    """Gradient-flow data violates the Morse-Smale hypotheses."""


# -- whs_compare --------------------------------------------------------------

class NotSelfIndexed(WittenLabError):
    """Chain-map comparison requires an (affinely) self-indexed function."""


class MissingConstants(WittenLabError):
    """Model-operator constants are unavailable; run the constants command first."""


class CellOutsideGrid(WittenLabError):
    """A cell of the complex cannot be located on the discretization grid."""
