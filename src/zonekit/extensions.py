"""Clifford-module dimensions, two-particle sub-zones, zonal Coulomb Galerkin operator."""

from __future__ import annotations

import numpy as np

from .algebra import ZonePolynomial, _moment_sum
from .params import PhysParams
from .zones import zone_basis

# minimal module dimensions for r = 8p + s, s = 0..7, relative to the 2^{4p} factor
_CLIFF_TABLE = (1, 2, 4, 4, 8, 8, 8, 8)


def clifford_dimension(r: int) -> tuple[int, int]:
    """Minimal Clifford-module dimension n_r and the count of irreducibles.

    Period-8 table: for r = 8p + s the dimension is 2^{4p} times
    (1, 2, 4, 4, 8, 8, 8, 8)[s]; exactly two inequivalent irreducible modules
    exist iff r = 3 (mod 4), otherwise one.
    """
    if r < 1:
        raise ValueError(f"center dimension must be >= 1, got {r}")
    p, s = divmod(r, 8)
    n_r = (1 << (4 * p)) * _CLIFF_TABLE[s]
    count = 2 if r % 4 == 3 else 1
    return n_r, count


def swap_coordinates(f: ZonePolynomial) -> ZonePolynomial:
    """Exchange the two complex coordinates (k = 4 only)."""
    if f.params.k != 4:
        raise ValueError("coordinate exchange needs exactly two complex coordinates (k = 4)")
    return ZonePolynomial({(key[1], key[0]): c for key, c in f.coefficients.items()}, f.params)


def symmetrize_subzone(f: ZonePolynomial, kind: str) -> ZonePolynomial:
    """Project onto the bosonic (symmetric) or fermionic (antisymmetric) sub-zone."""
    if kind not in ("bosonic", "fermionic"):
        raise ValueError(f"kind must be 'bosonic' or 'fermionic', got {kind!r}")
    sgn = 1.0 if kind == "bosonic" else -1.0
    return 0.5 * (f + sgn * swap_coordinates(f))


# ---- zonal Coulomb operator ---------------------------------------------------


def coulomb_inner_product(f: ZonePolynomial, g: ZonePolynomial, Q: float) -> complex:
    """<f, (Q/r) g> over the Gaussian density, k = 2.

    Only monomial pairs of one angular class (p - v = q - w) survive the
    angular integral, and each leaves the radial integral in closed form:

        int_0^inf r^{2n} (1/r) e^{-lam r^2} 2 pi r dr = pi Gamma(n + 1/2) / lam^{n + 1/2}

    with n = (p + v + q + w) / 2; the substitution u = lam r^2 turns it into
    Euler's integral for Gamma(n + 1/2), so it is exact up to the rounding of
    math.gamma and the power.  This is the inner product's moment sum with
    s = 1/2 in place of 1 (`algebra._moment`); a moment beyond the float range
    raises OverflowError.
    """
    if f.params.k != 2:
        raise ValueError("the zonal Coulomb operator is built on the plane (k = 2)")
    return Q * _moment_sum(f, g, 0.5)


def zonal_coulomb_matrix(a: int, Q: float, basis_size: int, params: PhysParams):
    """Galerkin matrices of the zone-compressed Coulomb interaction.

    Returns a dict with the potential matrix M_ij = <phi_i, (Q/r) phi_j> over
    the orthonormal zone basis, the matrix of H (field term included) plus
    the compressed potential, its eigenvalues, and a multiplicity report
    grouping eigenvalues closer than 1e-8.
    """
    params.require_algebra_dim()
    if params.k != 2:
        raise ValueError("the zonal Coulomb operator is built on the plane (k = 2)")
    max_degree = a + basis_size - 1
    basis = zone_basis(a, max_degree, params)
    if len(basis) < basis_size:
        raise ValueError(f"zone {a} truncation provides only {len(basis)} elements")
    return _galerkin(basis[:basis_size], Q, params)


def unprojected_coulomb_matrix(Q: float, max_zone: int, basis_size_per_zone: int,
                               params: PhysParams):
    """Galerkin matrix over a cross-zone truncation (no zone projection).

    Exploratory contrast to the compressed operator: the Coulomb term couples
    different zones, so this spectrum differs from the zone-by-zone one.
    """
    if params.k != 2:
        raise ValueError("k = 2 only")
    basis = []
    for a in range(max_zone + 1):
        basis.extend(zone_basis(a, a + basis_size_per_zone - 1, params)[:basis_size_per_zone])
    return _galerkin(basis, Q, params)


def _galerkin(basis, Q: float, params: PhysParams):
    """Coulomb matrix M over `basis`, H = field-term Zeeman spectrum + M, and its eigenvalues."""
    n = len(basis)
    M = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            val = coulomb_inner_product(basis[i], basis[j], Q)
            M[i, j] = val
            M[j, i] = np.conj(val)
    diag = np.array([params.zeeman_eigenvalue(vec.zeeman_degree(), field_term=True)
                     for vec in basis])
    H = np.diag(diag) + M
    eigvals = np.linalg.eigvalsh(H)
    return {
        "potential": M,
        "hamiltonian": H,
        "eigenvalues": eigvals,
        "multiplicity_groups": group_multiplicities(eigvals),
    }


def group_multiplicities(eigvals: np.ndarray):
    """Group sorted eigenvalues within 1e-8 absolute; report (value, count)."""
    groups = []
    for ev in np.sort(np.asarray(eigvals).real):
        if groups and abs(ev - groups[-1][0] / groups[-1][1]) <= 1e-8:
            s, c = groups[-1]
            groups[-1] = (s + ev, c + 1)
        else:
            groups.append((ev, 1))
    return [(s / c, c) for s, c in groups]
