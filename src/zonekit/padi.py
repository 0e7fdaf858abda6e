"""Pauli-Dirac operator on 2-component spinors over the plane.

Spinor components are weighted-space polynomials at k = 2 and charge_sign +1 (at -1
the square identity below fails).  The operator is built from the component rewrites

    D1 = (1 + i) (d/dzbar - lam z .)        (up   <- down)
    D2 = (-1 + i) d/dz                      (down <- up)

normalized so that the square is exactly the Pauli form H_Z - lam sigma0.
The raw canonically-conjugate component operators carry an extra sqrt(2);
`d1`/`d2` expose those directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ZonePolynomial, apply_rep, apply_zeeman, inner_product, norm
from .params import PhysParams
from .special import laguerre
from .zones import pairing, zone_basis

SQRT2 = math.sqrt(2.0)


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonically conjugate spin matrices (sigma1, sigma2, sigma0).

    sigma1 and sigma2 = conj(sigma1) anticommute and square to the identity;
    sigma0 is the diagonal charge matrix.
    """
    s1 = (np.array([[0, 1], [1, 0]], dtype=complex)
          + 1j * np.array([[0, -1], [1, 0]], dtype=complex)) / SQRT2
    s2 = np.conj(s1)
    s0 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s0


@dataclass(frozen=True)
class SpinorField:
    """Ordered pair of weighted-space polynomial components (up, down)."""

    up: ZonePolynomial
    down: ZonePolynomial

    def __post_init__(self) -> None:
        if self.up.params != self.down.params:
            raise ValueError("spinor components carry different parameters")
        if self.up.params.k != 2:
            raise ValueError("spinor algebra is built on the plane (k = 2)")
        if self.up.params.charge_sign != 1:
            raise ValueError("padi spinors are built at charge_sign +1 only")

    @property
    def params(self) -> PhysParams:
        return self.up.params

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(self.up + other.up, self.down + other.down)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(self.up - other.up, self.down - other.down)

    def __rmul__(self, c: complex) -> "SpinorField":
        return SpinorField(c * self.up, c * self.down)

    def is_zero(self) -> bool:
        return self.up.is_zero() and self.down.is_zero()

    @classmethod
    def zero(cls, params: PhysParams) -> "SpinorField":
        return cls(ZonePolynomial({}, params), ZonePolynomial({}, params))


def spinor_inner_product(phi: SpinorField, gam: SpinorField) -> complex:
    return inner_product(phi.up, gam.up) + inner_product(phi.down, gam.down)


def spinor_norm(phi: SpinorField) -> float:
    return math.sqrt(max(spinor_inner_product(phi, phi).real, 0.0))


def d1(f: ZonePolynomial) -> ZonePolynomial:
    """Raw component operator sqrt(2)(1+i)(d/dzbar - lam z .) on the weighted space."""
    return (-SQRT2 * (1.0 + 1j)) * apply_rep("z", f)


def d2(f: ZonePolynomial) -> ZonePolynomial:
    """Raw component operator sqrt(2)(-1+i) d/dz on the weighted space."""
    return (SQRT2 * (-1.0 + 1j)) * apply_rep("zbar", f)


def apply_padi(phi: SpinorField, variant: str = "Z") -> SpinorField:
    """Apply the spinor square root of the Pauli Hamiltonian.

    variant "Z" maps (phi1, phi2) -> (D1 phi2, D2 phi1); variant "Zf" adds
    the field contribution (+2 lam phi1, -2 lam phi2).  The components use
    the 1/sqrt(2)-scaled operators so that the square identity

        PD_Z^2 = H_Z - lam sigma0,   PD_Zf^2 = H_Zf - lam sigma0

    holds exactly on polynomials (the raw `d1`/`d2` would double it).
    """
    if variant not in ("Z", "Zf"):
        raise ValueError(f"variant must be 'Z' or 'Zf', got {variant!r}")
    lam = phi.params.lam
    up = (1.0 / SQRT2) * d1(phi.down)
    down = (1.0 / SQRT2) * d2(phi.up)
    if variant == "Zf":
        up = up + (2.0 * lam) * phi.up
        down = down - (2.0 * lam) * phi.down
    return SpinorField(up, down)


def padi_square_residual(phi: SpinorField, variant: str = "Z") -> float:
    """Norm of PD^2(phi) - (H phi1 - lam phi1, H phi2 + lam phi2).

    Zero (to coefficient arithmetic) on every polynomial spinor; `variant`
    selects the bare or field-augmented Hamiltonian on both sides.
    """
    lam = phi.params.lam
    include = variant == "Zf"
    sq = apply_padi(apply_padi(phi, variant), variant)
    target_up = apply_zeeman(phi.up, include_field_term=include) - lam * phi.up
    target_down = apply_zeeman(phi.down, include_field_term=include) + lam * phi.down
    return spinor_norm(sq - SpinorField(target_up, target_down))


def eigenspinors(base: ZonePolynomial, j: int, sign: int):
    """Eigenspinors psi_{j,+-} of the bare operator PD_Z, built from a scalar eigenfunction.

    `base` must be an eigenfunction of the scalar operator (validated to
    1e-10); j=1 places it in the up slot, j=2 in the down slot.  Returns
    (SpinorField, eigenvalue) with PD(psi) = sign * sqrt(mu_j) * psi and
    ||psi|| = 1.  The zero mode (j=1 on the bottom scalar level) returns the
    bare spinor for sign=+1 and the zero field for sign=-1.
    """
    if j not in (1, 2):
        raise ValueError(f"j must be 1 or 2, got {j}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    params = base.params
    lam = params.lam
    tol = 1e-10
    hb = apply_zeeman(base)
    nb = norm(base)
    if nb == 0.0:
        raise ValueError("base state is zero")
    nu = inner_product(hb, base) / nb**2
    if norm(hb - nu * base) > tol * nb:
        raise ValueError("base state is not an eigenfunction of the scalar operator")
    nu = nu.real
    mu = nu - lam if j == 1 else nu + lam
    if mu < -tol:
        raise ValueError(f"squared eigenvalue came out negative: {mu}")
    phi_j = SpinorField(base, ZonePolynomial({}, params)) if j == 1 \
        else SpinorField(ZonePolynomial({}, params), base)
    if mu <= tol:
        # zero mode: the bare spinor is the + eigenspinor, the - one vanishes
        if sign == 1:
            psi = (1.0 / nb) * phi_j
            return psi, 0.0
        return SpinorField.zero(params), 0.0
    root = math.sqrt(mu)
    psi = phi_j + (sign / root) * apply_padi(phi_j)
    psi = (1.0 / spinor_norm(psi)) * psi
    return psi, sign * root


def anomalous_kernel(a: int, j: int, X: np.ndarray, Y: np.ndarray,
                     params: PhysParams) -> np.ndarray:
    """Matrix kernel of the anomalous-zone projections, shape (..., 2, 2).

    Off-diagonal components vanish; the 11-components carry +/- the bottom
    rank-one term (lam Xbar Y)^a on top of the common Laguerre-Bergman part,
    the 22-components just the common part.  Each Q_(j) alone is a scaled
    projection; the j-sum Q_(1) + Q_(2) is the exact projection onto the
    product zone and is idempotent under quadrature composition.
    """
    if j not in (1, 2):
        raise ValueError(f"j must be 1 or 2, got {j}")
    if params.k != 2:
        raise ValueError("anomalous kernels are built on the plane (k = 2)")
    lam = params.lam
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    pair = pairing(X, Y, params)
    anti = pairing(Y, X, params)               # Xbar.Y under the charge convention
    dist2 = np.sum(np.abs(X - Y) ** 2, axis=-1)
    gauss = np.exp(-0.5 * lam * (np.sum(np.abs(X) ** 2, axis=-1)
                                 + np.sum(np.abs(Y) ** 2, axis=-1)))
    common = laguerre(a, 0.0, lam * dist2) * np.exp(lam * pair)
    bottom = (lam * anti) ** a
    sgn = 1.0 if j == 1 else -1.0
    pref = lam / (2.0 * np.pi)
    out = np.zeros(np.broadcast(common, gauss).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = pref * (common + sgn * bottom) * gauss
    out[..., 1, 1] = pref * common * gauss
    return out


def anomalous_zone_kernel(a: int, X: np.ndarray, Y: np.ndarray,
                          params: PhysParams) -> np.ndarray:
    """Projection kernel onto the full anomalous zone: the j-sum Q_(1) + Q_(2)."""
    return anomalous_kernel(a, 1, X, Y, params) + anomalous_kernel(a, 2, X, Y, params)


def normalization_report(a: int, params: PhysParams) -> dict:
    """Compare the enforced eigenspinor normalization against the printed constants.

    Returns the numerically enforced constant (coefficient of phi_j in the
    normalized eigenspinor) together with the two closed-form candidates,
    1/sqrt((1 - 2(-1)^j lam)^2 + 1) and 1/sqrt(2), for each j and the first
    five scalar levels of zone a.
    """
    lam = params.lam
    rows = []
    for j in (1, 2):
        basis = zone_basis(a, a + 4, params)
        for vec in basis:
            p = vec.zeeman_degree()
            nu = params.zeeman_eigenvalue(p)
            mu = nu - lam if j == 1 else nu + lam
            if mu <= 1e-12:
                continue
            psi, _ = eigenspinors(vec, j, +1)
            comp = psi.up if j == 1 else psi.down
            enforced = abs(inner_product(comp, vec))
            rows.append({
                "j": j, "p": p,
                "enforced_Q": enforced,
                "candidate_level_dependent": 1.0 / math.sqrt((1 - 2 * (-1) ** j * lam) ** 2 + 1),
                "candidate_half": 1.0 / math.sqrt(2.0),
            })
    return {"zone": a, "rows": rows}
