"""Synthetic coil-array models and the pivoted dipole's torque rows.

Each coil is modeled as a point magnetic dipole with a fixed position, unit
axis, and a moment-per-ampere scale.  The magnetic field and its spatial
gradient at a point are linear in the coil currents; the stacked response is
summarized by a position-dependent actuation matrix with three field rows and
five gradient rows (zero divergence and zero curl leave only five independent
gradient components).

The module also provides the pivoted dipole's frames (``body_frames``, for
arrays of tilts), its body-frame tilt-torque rows ``torque_rows`` (the map
from field and gradient to the torque about the pivot, direct magnetic
torque plus the lever-arm torque of the gradient force) that every torque
solve and the workspace torque box use, and the one pseudoinverse every
allocation and workspace solve uses.  A dipole is plain values: its tilts
(alpha about +y, then beta about +x) and its signed magnitude mag_pol =
polarity * |m|, with the moment mag_pol * axis.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

_MU0_OVER_4PI = 1.0e-7

#: Positions closer than this to a coil center are rejected as singular [m].
MIN_COIL_DISTANCE = 1.0e-6

#: Relative singular-value cutoff shared by every pseudoinverse/rank check.
RANK_RTOL = 1.0e-10

#: Largest certified bound on cond(T)^2 at which a solve takes the normal
#: equations (``alloc.solve_torque_gram``, ``pinv_rank``) or, for a square T,
#: its inverse (``pinv_rank``).  G = T T^T squares the condition number, so
#: a Cholesky solve of G errs by about n u cond(T)^2 relative, u = 1.1e-16
#: (Golub & Van Loan, Matrix Computations, 5.3; Higham, Accuracy and
#: Stability of Numerical Algorithms, ch. 10): ~1e-8 here; an LU inverse of
#: T errs by about u cond(T) (ch. 14).  For G = L L^T, trace(G) >= lambda_max
#: and ||L^-1||_F^2 = trace(G^-1) >= 1 / lambda_min, so trace(G) ||L^-1||_F^2
#: >= cond(T)^2.  ``pinv_rank`` bounds it by a residual: if ||I - T P|| <= r
#: < 1, then 1 - r <= sigma_min(T P) <= sigma_min(T) ||P||, so T has full row
#: rank and cond(T) <= ||T|| ||P|| / (1 - r).  A certified T has sigma_min /
#: sigma_max >= 1e-4 >> RANK_RTOL: full rank.
GRAM_COND_BOUND = 1.0e8

#: Points per batched evaluation (workspace grids, alloc-bench samples).
#: Bounds the (block, rows, coils) stacks: one whole-input batch would hold
#: every actuation matrix at once.
BLOCK = 256


class SingularPositionError(ValueError):
    """Raised when a field evaluation point coincides with a coil center."""


@dataclass(frozen=True)
class CoilSpec:
    """One electromagnet, reduced to an equivalent point dipole.

    Attributes:
        position: Coil center in world coordinates [m].
        axis: Unit vector along the coil's magnetic axis.
        moment_per_ampere: Equivalent dipole moment per unit current [A·m²/A].
    """

    position: tuple[float, float, float]
    axis: tuple[float, float, float]
    moment_per_ampere: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        ax = np.asarray(self.axis, dtype=float)
        if pos.shape != (3,) or ax.shape != (3,):
            raise ValueError("coil position and axis must be 3-vectors")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(ax))):
            raise ValueError("coil position and axis must be finite")
        norm = math.hypot(*ax)  # no overflow warning for huge entries
        if abs(norm - 1.0) > 1.0e-9:
            raise ValueError(f"coil axis must be unit length, got |axis| = {norm:.3e}")
        if not self.moment_per_ampere > 0.0:
            raise ValueError("moment_per_ampere must be strictly positive")
        object.__setattr__(self, "position", tuple(float(c) for c in pos))
        object.__setattr__(self, "axis", tuple(float(c) for c in ax))


@dataclass(frozen=True)
class ActuationModel:
    """A named collection of coils acting on a shared workspace."""

    name: str
    coils: tuple[CoilSpec, ...]
    #: Coil centers and dipole moments per ampere (n_coils, 3), built once.
    positions: NDArray[np.floating] = field(init=False, repr=False, compare=False)
    moments: NDArray[np.floating] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.coils) == 0:
            raise ValueError("an actuation model needs at least one coil")
        object.__setattr__(self, "coils", tuple(self.coils))
        positions = np.array([c.position for c in self.coils])
        moments = np.array([np.multiply(c.axis, c.moment_per_ampere)
                            for c in self.coils])
        positions.flags.writeable = moments.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "moments", moments)

    @property
    def n_coils(self) -> int:
        return len(self.coils)


def actuation_matrix(
    model: ActuationModel, p: NDArray[np.floating]
) -> NDArray[np.floating]:
    """Stacked field/gradient response to unit coil currents.

    Args:
        model: Coil array.
        p: Evaluation point in world coordinates [m].

    Returns:
        An (8, n_coils) matrix whose column j holds [b; g] produced by one
        ampere in coil j: three field components on top, five packed gradient
        components below.

    Raises:
        SingularPositionError: If p is within MIN_COIL_DISTANCE of a coil.
    """
    return actuation_matrices(model, np.asarray(p, dtype=float)[None, :])[0]


def coil_offsets(
    model: ActuationModel, points: NDArray[np.floating]
) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Offsets from every coil center to every point, and their squares.

    Returns:
        ``r`` of shape (N, n_coils, 3), point minus coil center, and the
        squared distances ``d2`` of shape (N, n_coils).

    Raises:
        SingularPositionError: If a point is within MIN_COIL_DISTANCE of a
            coil.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    r = points[:, None, :] - model.positions[None, :, :]  # (N, n, 3)
    d2 = np.einsum("pnk,pnk->pn", r, r)  # (N, n)
    if np.any(d2 < MIN_COIL_DISTANCE**2):
        bad = np.argwhere(d2 < MIN_COIL_DISTANCE**2)
        p_idx, c_idx = bad[0]
        raise SingularPositionError(
            f"evaluation point {p_idx} coincides with coil {c_idx} "
            f"of model '{model.name}'"
        )
    return r, d2


def actuation_matrices(
    model: ActuationModel, points: NDArray[np.floating]
) -> NDArray[np.floating]:
    """Vectorized actuation matrices for a batch of points: (N, 8, n_coils)."""
    r, d2 = coil_offsets(model, points)
    moments = model.moments  # (n, 3)
    d = np.sqrt(d2)
    inv_d3 = d**-3
    inv_d5 = d**-5
    inv_d7 = d**-7
    mr = np.einsum("nk,pnk->pn", moments, r)  # (N, n)

    b_cols = _MU0_OVER_4PI * (
        3.0 * r * (mr * inv_d5)[:, :, None] - moments[None, :, :] * inv_d3[:, :, None]
    )  # (N, n, 3)

    n = model.n_coils
    out = np.empty((points.shape[0], 8, n))
    out[:, 0:3, :] = np.swapaxes(b_cols, 1, 2)
    # Packed gradient rows (db_x/dx, db_x/dy, db_x/dz, db_y/dy, db_y/dz): the
    # entries (i, j) of 3 (mr I + r m^T + m r^T)/d^5 - 15 mr r r^T / d^7, one
    # (N, n) entry at a time rather than the whole (N, n, 3, 3) tensor.
    mr15 = 15.0 * mr
    for row, (i, j) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2)), 3):
        sym = (
            mr * float(i == j) + r[:, :, i] * moments[:, j] + r[:, :, j] * moments[:, i]
        )
        out[:, row, :] = _MU0_OVER_4PI * (
            3.0 * sym * inv_d5 - mr15 * (r[:, :, i] * r[:, :, j]) * inv_d7
        )
    return out


def pinv_rank(
    stack: NDArray[np.floating],
) -> tuple[NDArray[np.floating], NDArray[np.integer]]:
    """Pseudoinverse and numerical rank of a matrix or a stack of matrices.

    A k x n entry, k <= n, takes P0 = S^T (S S^T)^-1 (a square one S^-1, no
    Gram matrix) and one Newton step P = P0 + P0 E, E = I - S P0: an error
    of about u cond(S) (Higham, ch. 14).  Certified, rank k, when ||E||_F <=
    1/2 and ||S||_F ||P0||_F / (1 - ||E||_F) <= sqrt(``GRAM_COND_BOUND``)
    (see there); a 2 x 2 Gram matrix is inverted in closed form.  Other
    entries (one whose own ``inv`` raises) and a tall stack take
    ``_pinv_rank_svd``; non-finite entries fail, so numpy need not warn.
    """
    k, n = stack.shape[-2:]
    if k > n:
        return _pinv_rank_svd(stack)
    stack_t = np.swapaxes(stack, -1, -2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k == 2 < n:  # [[a, b], [b, d]]^-1 = [[d, -b], [-b, a]] / (a d - b^2)
            gram = stack @ stack_t
            a, b, d = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
            adj = np.stack([d, -b, -b, a], axis=-1).reshape(gram.shape)
            p0 = stack_t @ (adj / (a * d - b * b)[..., None, None])
        else:
            gram = stack if k == n else stack @ stack_t  # S itself when square
            try:
                inv = np.linalg.inv(gram)
            except np.linalg.LinAlgError:  # entry by entry; a singular one is NaN
                inv = np.full(gram.shape, math.nan)
                for idx in np.ndindex(gram.shape[:-2]):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        inv[idx] = np.linalg.inv(gram[idx])
            p0 = inv if k == n else stack_t @ inv
        resid = np.eye(k) - stack @ p0
        r = np.linalg.norm(resid, axis=(-2, -1))
        cond = np.linalg.norm(stack, axis=(-2, -1)) * np.linalg.norm(p0, axis=(-2, -1))
        bad = ~((r <= 0.5) & (cond <= math.sqrt(GRAM_COND_BOUND) * (1.0 - r)))
        pinv, rank = p0 + p0 @ resid, np.full(r.shape, k)
    if np.any(bad):
        pinv[bad], rank[bad] = _pinv_rank_svd(stack[bad])
    return pinv, rank


def _pinv_rank_svd(stack: NDArray[np.floating]) -> tuple[NDArray, NDArray]:
    """``pinv_rank`` by one SVD, formed as ``np.linalg.pinv(rcond=RANK_RTOL)``
    forms it; the rank counts the singular values above ``RANK_RTOL`` of the
    largest."""
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    large = s > RANK_RTOL * s[..., :1]
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., :, None] * np.swapaxes(u, -1, -2))
    return pinv, large.sum(axis=-1)


# ---------------------------------------------------------------------------
# The pivoted dipole's frames and torque rows
# ---------------------------------------------------------------------------

def body_frames(
    alpha: NDArray[np.floating], beta: NDArray[np.floating]
) -> NDArray[np.floating]:
    """Body-to-world rotations R^T = Ry(alpha) Rx(beta) for arrays (or
    scalars) of tilt angles, shape (N, 3, 3).

    The columns are the body axes e_x, e_y and the dipole axis in world
    coordinates, from which the frame quantities follow: the moment
    ``mag_pol * axis`` and the lever-0 rows ``mag_pol * (-e_y; e_x)`` of
    :func:`torque_rows`.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    zero = np.zeros_like(ca)
    return np.stack(
        [ca, sa * sb, sa * cb, zero, cb, -sb, -sa, ca * sb, ca * cb], axis=-1
    ).reshape(-1, 3, 3)


def torque_rows(
    alpha: float, beta: float, mag_pol: float, lever: float
) -> NDArray[np.floating]:
    """Body-frame tilt-torque rows of a pivoted dipole, shape (2, 8).

    The map from [b; g] at the magnet to the body-frame x and y torque about
    the pivot: ``(R J M)[:2]``, with M the wrench map [b; g] -> [m x b;
    (m . grad) b], J = [I | lever skew(axis)] the lever-arm map to pivot
    torque and R the world-to-body rotation (the transpose of a
    ``body_frames`` frame), written out from the sines and cosines
    of the tilt angles.  The body-z row is dropped: the field torque m x b
    and the lever-arm torque lever axis x f are both perpendicular to the
    dipole axis.  The world-frame maps are the
    test suite's oracle (``tests/helpers.py``: ``wrench_maps``,
    ``composed_torque_map``).

    With e_x, e_y the body axes in world coordinates and axis the dipole
    axis, the rows are

        tau_x = -mag_pol (e_y . b + lever e_y . M_g(axis) g),
        tau_y = +mag_pol (e_x . b + lever e_x . M_g(axis) g).

    Args:
        alpha, beta: Tilt angles [rad]: rotations about +y and +x.
        mag_pol: Signed dipole magnitude, polarity * |m| [A·m²].
        lever: Pivot-to-magnet distance [m]; 0 gives the pure field-torque
            rows (gradient columns zero).
    """
    return np.array(torque_row_values(alpha, beta, mag_pol, lever))


def torque_row_values(alpha: float, beta: float, mag_pol: float, lever: float) -> list:
    """``torque_rows`` as lists of floats, to make many agents' one array."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    k = mag_pol * lever
    c2a = ca * ca - sa * sa
    c2b = cb * cb - sb * sb
    scb = sb * cb
    return [
        [
            -mag_pol * sa * sb, -mag_pol * cb, -mag_pol * ca * sb,
            k * scb * c2a, -k * sa * c2b, -2.0 * k * sa * ca * scb,
            k * scb * (1.0 + ca * ca), -k * ca * c2b,
        ],
        [
            mag_pol * ca, 0.0, -mag_pol * sa,
            2.0 * k * sa * ca * cb, -k * ca * sb, k * cb * c2a,
            k * sa * ca * cb, k * sa * sb,
        ],
    ]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Moment-per-ampere of the octomag8 preset, calibrated so that the stacked
#: task [65 mT along +z; zero gradient] at the workspace center costs 15 A
#: in the infinity norm.
_OCTOMAG8_MOMENT_PER_AMPERE = 53.33931497882237

#: Moment-per-ampere of the navion3 preset, calibrated so that a 25 mT axial
#: field at 10 cm stand-off from the coil plane costs 25 A.
_NAVION3_MOMENT_PER_AMPERE = 10.803484520180415


def octomag8() -> ActuationModel:
    """Eight-coil hemispherical array around a central workspace.

    Two interleaved four-coil cones below the workspace, all axes pointing at
    the center.  Eight coils make the full stacked field/gradient response
    controllable at the center.
    """
    radius = 0.20
    coils = []
    for polar_deg, azimuths in ((30.0, (0, 90, 180, 270)), (75.0, (45, 135, 225, 315))):
        theta = math.radians(polar_deg)
        for az_deg in azimuths:
            phi = math.radians(az_deg)
            direction = np.array(
                [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    -math.cos(theta),
                ]
            )
            position = radius * direction
            coils.append(
                CoilSpec(
                    position=tuple(position),
                    axis=tuple(-direction),
                    moment_per_ampere=_OCTOMAG8_MOMENT_PER_AMPERE,
                )
            )
    return ActuationModel(name="octomag8", coils=tuple(coils))


def navion3() -> ActuationModel:
    """Three parallel coils in a triangle, workspace along their common axis.

    Coil centers sit in the z = 0 plane, 15 cm apart (triangle side), with
    all axes along +z; the stand-off axis is +z.
    """
    side = 0.15
    circumradius = side / math.sqrt(3.0)
    coils = []
    for az_deg in (90.0, 210.0, 330.0):
        phi = math.radians(az_deg)
        coils.append(
            CoilSpec(
                position=(
                    circumradius * math.cos(phi),
                    circumradius * math.sin(phi),
                    0.0,
                ),
                axis=(0.0, 0.0, 1.0),
                moment_per_ampere=_NAVION3_MOMENT_PER_AMPERE,
            )
        )
    return ActuationModel(name="navion3", coils=tuple(coils))


#: The preset actuation models by name.  Models are immutable, so every
#: caller shares one instance.
PRESETS = {"octomag8": octomag8(), "navion3": navion3()}


def get_model(name: str) -> ActuationModel:
    """Look up a preset actuation model by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown model '{name}'; available presets: {sorted(PRESETS)}"
        ) from None
