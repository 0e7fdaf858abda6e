"""Model parameters shared by every zonekit module."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysParams:
    """Magnetic coupling and configuration-space dimension.

    Parameters
    ----------
    lam : float
        Magnetic coupling constant, strictly positive.  Macroscopic units
        (hbar = mass = 1) are assumed throughout; the microscopic operator
        is obtained by substituting lam -> lam/hbar and rescaling the
        period, which callers can do by hand.
    k : int
        Real dimension of configuration space, even and >= 2.  The exact
        polynomial algebra supports k in {2, 4}; closed-form kernels accept
        any even k.
    charge_sign : int
        +1 couples the particle to the complex structure J, -1 to -J
        (opposite charge).  Only the sign of angular/phase terms changes.
    """

    lam: float = 1.0
    k: int = 2
    charge_sign: int = 1

    def __post_init__(self) -> None:
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"k must be an even integer >= 2, got {self.k}")
        if self.charge_sign not in (1, -1):
            raise ValueError(f"charge_sign must be +1 or -1, got {self.charge_sign}")

    @property
    def m(self) -> int:
        """Number of complex coordinates, k/2."""
        return self.k // 2

    def zeeman_eigenvalue(self, p: int, field_term: bool = False) -> float:
        """Zeeman eigenvalue (2p + k/2) lam of degree p, plus 2 k lam^2 with the field term."""
        lam, k = self.lam, self.k
        mu = (2 * p + k / 2) * lam
        if field_term:
            mu += 2 * k * lam * lam
        return mu

    def require_algebra_dim(self) -> None:
        """The exact algebra engine only handles one or two complex coordinates."""
        if self.k not in (2, 4):
            raise ValueError(f"polynomial algebra engine supports k in {{2, 4}}, got k={self.k}")
