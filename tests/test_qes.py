"""Exact ground energies on the quasi-exactly-solvable curves of the sextic
(A. V. Turbiner, Commun. Math. Phys. 118, 467, 1988).  With psi = P(x^2)
exp(-g x^4/4 - beta x^2/2), beta = g (a - 2)/2, the Hamiltonian maps the
polynomials P of degree J into themselves when g = 4(4J + 3)/(a(a + 4)); on
P = sum c_k y^k it acts as the tridiagonal recurrence

    -(k+1)(2k+1) c_{k+1} + 2 beta k c_k + 2g(k - 1 - J) c_{k-1} = eps c_k,

with E = g^2 a/2 + beta/2 + eps and the ground state at the lowest eps.  The
J = 0 curve holds the paper's exact case (1, 2)."""

import math

import numpy as np
import pytest

from gdwell import PotentialParams
from gdwell.solver import solve
from gdwell.trial import Grid


def qes_g(j: int, a: float) -> float:
    return 4.0 * (4 * j + 3) / (a * (a + 4.0))


def exact_energy(j: int, g: float, a: float) -> float:
    """The closed-form ground energy on the J = 0 or J = 1 curve."""
    if j == 0:
        return 3.0 * (a * a + 2.0 * a + 16.0) / (a * (a + 4.0) ** 2)
    beta = g * (a - 2.0) / 2.0
    return g * g * a / 2.0 + 1.5 * beta - math.sqrt(beta * beta + 2.0 * g)


def matrix_energy(j: int, g: float, a: float) -> float:
    """The ground energy from the lowest eigenvalue of the recurrence's
    (J+1)-square matrix."""
    beta = g * (a - 2.0) / 2.0
    m = np.zeros((j + 1, j + 1))
    for k in range(j + 1):
        m[k, k] = 2.0 * beta * k
        if k + 1 <= j:
            m[k, k + 1] = -(k + 1) * (2 * k + 1)
        if k >= 1:
            m[k, k - 1] = 2.0 * g * (k - 1 - j)
    return g * g * a / 2.0 + beta / 2.0 + float(np.linalg.eigvals(m).real.min())


POINTS = [(0, 2.0), (0, 1.0), (0, 0.7), (1, 4.0), (1, 2.0), (1, 1.0)]


@pytest.mark.parametrize("j, a", POINTS)
def test_closed_forms_are_the_lowest_eigenvalue_of_the_recurrence(j, a):
    g = qes_g(j, a)
    assert exact_energy(j, g, a) == pytest.approx(matrix_energy(j, g, a), rel=1e-14, abs=0.0)
    if (j, a) == (0, 2.0):
        assert (g, exact_energy(j, g, a)) == (1.0, 1.0)


@pytest.mark.parametrize("bc", ["I", "II"])
@pytest.mark.parametrize("j, a", POINTS)
def test_iteration_reaches_the_exact_energy(j, a, bc):
    # the float g lies off the curve by at most half an ulp, which moves E
    # by about 1e-15 relative; the largest gap measured at these points on
    # this grid was 2.4e-14 (BC I at a = 0.7), while Grid(4, 2000) reaches
    # 3.9e-12 at (5.6, 1), so 1e-13 separates the converged rule from a
    # coarse one; BC I needs up to 23 iterations here, beyond the default 20
    g = qes_g(j, a)
    rep = solve(PotentialParams(g, a), Grid(4.0, 8000), bc, tol=1e-13, max_iter=60)
    assert rep.converged and rep.violations == []
    assert abs(rep.energies[-1] - exact_energy(j, g, a)) <= 1e-13
