"""Geometry of the spherical shell ``{x in R^d : r <= |x| <= 1}`` and uniform sampling on it.

The shell with inner radius ``r = 0`` is the whole unit ball.  Sampling
factorizes into a uniform direction (normalized Gaussian vector) and a radius
drawn by inverting the radial CDF ``F(rho) = (rho^d - r^d) / (1 - r^d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import peak
from .errors import DomainError, check_int, check_points, check_real

__all__ = [
    "LayerSpec",
    "PointCloud",
    "radius_inverse_cdf",
    "sample_layer",
    "unit_ball_volume",
    "log_unit_ball_volume",
]

# Slack for re-checking norms of stored float64 coordinates.  Empirically the
# normalize-then-rescale construction drifts at most 3 ulp from the assigned
# radius, independent of d (numpy reduces each row pairwise, whatever block it
# is in).  One range check, _check_in_shell, applies it to all clouds alike.
_NORM_SLACK_ULPS = 4.0
NORM_BLOCK = 1 << 15  # float64 squares _row_norms holds at once: 256 KiB


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: the floats ``np.linalg.norm(pts, axis=1)`` gives.
    The squares pass through one buffer of ``NORM_BLOCK`` floats (or one row), a
    block of rows at a time, so no norm needs a second array the size of ``pts``."""
    n, d = pts.shape
    rows = max(NORM_BLOCK // d, 1)
    squares, norms = np.empty((min(rows, n), d)), np.empty(n)
    for start in range(0, n, rows):
        block = pts[start : start + rows]
        np.multiply(block, block, out=squares[: len(block)])
        np.add.reduce(squares[: len(block)], axis=1, out=norms[start : start + rows])
    return np.sqrt(norms, out=norms)


def _check_in_shell(norms: np.ndarray, layer: LayerSpec) -> None:
    """Raise unless every norm lies in ``[r, 1]`` up to ``_NORM_SLACK_ULPS``."""
    if not norms.size:
        return
    hi = 1.0 + _NORM_SLACK_ULPS * np.spacing(1.0)
    lo = layer.r - _NORM_SLACK_ULPS * np.spacing(max(layer.r, 1.0))
    if norms.max() > hi or norms.min() < lo:
        raise DomainError(
            "point norms leave the shell: "
            f"range [{norms.min()}, {norms.max()}] vs [{layer.r}, 1]"
        )


@dataclass(frozen=True)
class LayerSpec:
    """Spherical shell in ``R^d`` between radii ``r`` and 1.

    Attributes:
        d: ambient dimension, integer >= 1.
        r: inner radius, 0 <= r < 1.  r = 0 degenerates to the unit ball.
    """

    d: int
    r: float

    def __post_init__(self):
        object.__setattr__(self, "d", check_int(self.d, "d", 1))
        object.__setattr__(self, "r", check_real(self.r, "r", 0.0, 1.0, low_closed=True))


@dataclass(frozen=True)
class PointCloud:
    """Immutable batch of points that all live in one shell.

    Attributes:
        layer: the shell the points were drawn from / must lie in.
        points: (n, d) float64 array, one point per row; made read-only.
        seed: 64-bit seed that reproduces the cloud via :func:`sample_layer`
            (callers constructing clouds from external data may pass any
            marker value; reproducibility is then their business).
    """

    layer: LayerSpec
    points: np.ndarray
    seed: int

    def __post_init__(self):
        pts, _ = check_points(self.points)
        if pts.shape[1] != self.layer.d:
            raise DomainError(
                f"points have dimension {pts.shape[1]}, layer has d={self.layer.d}"
            )
        _check_in_shell(_row_norms(pts), self.layer)
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def _from_sampler(cls, layer: LayerSpec, points: np.ndarray, seed: int) -> PointCloud:
        """Wrap :func:`sample_layer`'s own read-only array without checking or copying it.

        The sampler checks its output itself; only it may call this.
        """
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "layer", layer)
        object.__setattr__(cloud, "points", points)
        object.__setattr__(cloud, "seed", seed)
        return cloud

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _radii(u: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Unchecked radius_inverse_cdf, into a new array, without the pin of u = 1: as
    fl(u fl(1 - r^d)) <= fl(1 - r^d) and fl(r^d + fl(1 - r^d)) <= 1, t never
    exceeds 1, and only the lower clamp and the pin of u = 0 to r remain."""
    r, d = layer.r, layer.d
    rd = math.pow(r, d) if r > 0.0 else 0.0
    rho = u * (1.0 - rd)
    rho += rd
    np.power(rho, 1.0 / d, out=rho)
    np.maximum(rho, r, out=rho)
    rho[u == 0.0] = r
    return rho


def radius_inverse_cdf(u, layer: LayerSpec):
    """Invert the radial CDF of the uniform shell distribution.

    ``rho = (r^d + u * (1 - r^d))^(1/d)``, mapping Uniform[0,1] variates to
    radii whose d-volume between shells is uniform.  Scalar in, scalar out;
    array in, array out.

    Args:
        u: uniform variate(s) in [0, 1].
        layer: target shell.

    Returns:
        Radii in [r, 1]; exactly r at u=0 and exactly 1 at u=1.
    """
    arr = np.array(u, dtype=np.float64, ndmin=1)
    if arr.size and not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        raise DomainError("u must lie in [0, 1]")
    rho = _radii(arr, layer)
    rho[arr == 1.0] = 1.0
    return float(rho[0]) if np.ndim(u) == 0 else rho


def sample_layer(layer: LayerSpec, n: int, seed: int) -> PointCloud:
    """Draw ``n`` points i.i.d. uniform on the shell.

    Directions come from normalized standard Gaussians (zero vectors are
    redrawn; at d=1 the direction degenerates to a uniform sign), radii from
    :func:`radius_inverse_cdf`.  Identical ``(layer, n, seed)`` triples yield
    bit-identical clouds.
    """
    n = check_int(n, "n", 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, layer.d))
    norms = _row_norms(g)
    while True:
        bad = np.flatnonzero(norms == 0.0)
        if bad.size == 0:
            break
        g[bad] = rng.standard_normal((bad.size, layer.d))
        norms[bad] = _row_norms(g[bad])
    # the draws lie in [0, 1) by construction, so they skip radius_inverse_cdf's checks
    scale = _radii(rng.random(n), layer)
    scale /= norms
    # |g_ij| <= norms_i, so a row's coordinates are finite exactly when its scale is
    if not math.isfinite(peak(scale)):
        raise DomainError("sampled points must be finite")
    g *= scale[:, None]
    _check_in_shell(_row_norms(g), layer)
    g.flags.writeable = False
    return PointCloud._from_sampler(layer, g, int(seed))


def log_unit_ball_volume(d: int) -> float:
    """Natural log of the d-dimensional unit ball volume pi^(d/2)/Gamma(d/2+1)."""
    d = check_int(d, "d", 1)
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional unit ball (2 at d=1, pi at d=2, ...).

    Evaluated in log space so large d degrades to graceful underflow instead
    of Gamma-function overflow.
    """
    return math.exp(log_unit_ball_volume(d))
