"""Reference velocity distribution for initial data.

The laboratory normalises the reference measure so that velocities are
centred with unit kinetic energy, ``<v> = 0`` and ``<|v|^2> = 1``.  The
isotropic Gaussian with per-coordinate variance ``1/d`` satisfies this, and
its squared speed ``s = |v|^2`` is Gamma(d/2, 2/d), which gives every
exponential-moment quantity in closed form (regularised incomplete gamma
functions).  The exponential-moment blow-up threshold is ``z2 = d/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ReferenceMeasure:
    """Isotropic Gaussian on R^d with unit second moment.

    ``z2`` is the exact blow-up threshold of ``E_z = int exp(z|v|^2)``.
    """

    d: int = 3
    z2: float = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        object.__setattr__(self, "z2", self.d / 2.0)
        # construction-time sanity: <|v|^2> = a*theta must be 1 to 1e-8
        if abs(self.shape * self.scale - 1.0) > 1e-8:
            raise AssertionError("reference measure is not unit-energy")

    # squared speed s = |v|^2 is Gamma(shape, scale)
    @property
    def shape(self) -> float:
        return self.d / 2.0

    @property
    def scale(self) -> float:
        return 2.0 / self.d

    def gaussian_moment(self, z: float) -> float:
        """E_z = int exp(z|v|^2) dmu; finite iff z < z2."""
        if z >= self.z2:
            return np.inf
        return (1.0 - z / self.z2) ** (-self.d / 2.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. velocities, shape (n, d)."""
        return rng.standard_normal((n, self.d)) / np.sqrt(self.d)

    # ---- radial helpers (all in terms of s = |v|^2) -------------------

    def speed2_cdf(self, s, scale: float | None = None):
        from scipy.special import gammainc

        scale = self.scale if scale is None else scale
        return gammainc(self.shape, np.asarray(s, dtype=float) / scale)

    def speed2_sf(self, s, scale: float | None = None):
        from scipy.special import gammaincc

        scale = self.scale if scale is None else scale
        return gammaincc(self.shape, np.asarray(s, dtype=float) / scale)

    def speed2_ppf(self, q, scale: float | None = None):
        from scipy.special import gammaincinv

        scale = self.scale if scale is None else scale
        return scale * gammaincinv(self.shape, np.asarray(q, dtype=float))

    def speed2_isf(self, q, scale: float | None = None):
        from scipy.special import gammainccinv

        scale = self.scale if scale is None else scale
        return scale * gammainccinv(self.shape, np.asarray(q, dtype=float))

    def partial_m2(self, s, scale: float | None = None):
        """int_{0}^{s} x dGamma(shape, scale)(x) = shape*scale*P(shape+1, s/scale)."""
        from scipy.special import gammainc

        scale = self.scale if scale is None else scale
        return self.shape * scale * gammainc(self.shape + 1, np.asarray(s, dtype=float) / scale)

    def sample_direction(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.standard_normal((n, self.d))
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        # renormalise the (measure-zero) underflow rows
        bad = norms[:, 0] < 1e-300
        while np.any(bad):
            u[bad] = rng.standard_normal((int(bad.sum()), self.d))
            norms[bad] = np.linalg.norm(u[bad], axis=1, keepdims=True)
            bad = norms[:, 0] < 1e-300
        return u / norms
