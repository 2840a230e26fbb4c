"""Exception types shared across the package."""


class GdwellError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceDomainError(GdwellError):
    """Parameters outside the domain where the iteration is defined (mixing
    coefficient not positive, i.e. g*a <= sqrt(1+a))."""


class GridError(GdwellError):
    """Computational grid unfit for the run: malformed (x_max not above 1,
    too few or too many points, ...), too short for the trial function's
    tail (the tail beyond x_max above 1e-10 of the phi^2 integral of w), or
    too coarse for it (a step of 2 log phi between adjacent nodes above the
    solver's STEP_CAP of 2 ln(2 + sqrt 3) ~ 2.634 in size, where the rule's
    inner integral of a positive integrand can turn negative).  A too-coarse
    grid's message names an n_per_panel that passes or, when none up to
    MAX_N_PER_PANEL does, the panel that needs more: [0, 1], whose steps no
    x_max changes, or the outer one, which a smaller x_max shortens."""


class GridMismatchError(GdwellError):
    """Sampled values do not have the shape of the grid's node values or
    panel arrays (Grid.panels)."""


class DegenerateDenominatorError(GdwellError):
    """The normalization integral of the energy functional is not positive;
    signals corrupted iteration state upstream."""


class PositivityLossError(GdwellError):
    """An iterate f_n dropped to <= 0 somewhere; the iteration left its
    validity domain and must not be continued."""


class DiscretizationError(GdwellError):
    """The reference solver cannot resolve the ground state within its
    configuration: extending its half-domain by 1.25x moves the energy by
    more than 1e-3 (the domain cap L is too short), a node-count growth step
    fails to halve the previous energy gap (L too short for that check to
    see), or the node count reaches its cap n before two successive energies
    agree."""


class NonFiniteOutputError(GdwellError, ValueError):
    """A float bound for a JSON report is inf or nan: a computation produced
    a number that JSON cannot hold.  Also a ValueError, as any bad input to
    the writer is."""


class BracketError(GdwellError):
    """A root bracket does not enclose a sign change, or no root of a
    discriminant factor is a fold of its curve."""


class NonConvergenceWarning(UserWarning):
    """The iteration hit max_iter before reaching the energy tolerance."""


class OutsideRegionWarning(UserWarning):
    """Parameters violate the monotone-convergence region (a <= critical
    shape value); the iteration may still run but convergence is not
    guaranteed."""
