"""Pendulum-on-actuator mechanics: the plant the simulator integrates, the
linear model the gains are designed on, and its finite-difference check.

The plant is a pivoted actuator rod (carrying the magnet stack) with an
inverted pendulum balanced on top of it, or the actuator alone.  Planar
motion is described by the actuator tilt (alpha) and the pendulum tilt
(phi); the full 3D plant is two such planar systems, one per tilt direction,
coupled only through the shared magnetics.

Two actuation paradigms are linearized:

* ``field``: the input is the commanded field angle u_alpha; the magnetic
  torque on the actuator is |m||b| sin(u_alpha - alpha).
* ``torque``: the input is the torque applied to the actuator directly.

The plant's derivative is written once per state layout (pendulum attached:
8 states; actuator only: 4) as a source-text template, and compiled per
plant, with its constants inlined, into one function: the fused tick
(:func:`make_tick`).  The simulator runs it, :func:`linearize` reads the
linear model off one control period of it by complex step, and the
finite-difference check differentiates that period too: one plant model.
The tick inlines the twelve stages of every eighth-order Runge-Kutta step
(DOP853) as straight-line code on plain Python floats, bit-identical to
stage-by-stage RK over the hand-written derivative of tests/helpers.py,
where the analytic linearization is the oracle of the linear model.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
import types
from dataclasses import dataclass

import numpy as np

PARADIGMS = ("field", "torque")


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of the actuator/pendulum plant.

    Attributes:
        pend_mass: Pendulum mass M [kg].
        arm_length: Pivot-to-pendulum-support distance l [m].
        pend_length: Pendulum length L [m] (uniform rod, mass at centroid L/2).
        magnet_offset: Pivot-to-magnet-center distance l_m [m].
        eta: Actuator first mass moment about the pivot [kg·m].
        inertia: Actuator moment of inertia about the pivot J [kg·m²].
        gravity: Gravitational acceleration [m/s²].
        dipole_magnitude: Magnet dipole moment |m| [A·m²].
        damping: Viscous damping coefficient applied per joint [N·m·s/rad].
    """

    pend_mass: float = 0.02
    arm_length: float = 0.10
    pend_length: float = 0.20
    magnet_offset: float = 0.05
    eta: float = 0.01
    inertia: float = 5.0e-4
    gravity: float = 9.81
    dipole_magnitude: float = 0.5
    damping: float = 0.0

    def __post_init__(self) -> None:
        positive = (
            "pend_mass",
            "arm_length",
            "pend_length",
            "magnet_offset",
            "eta",
            "inertia",
            "gravity",
            "dipole_magnitude",
        )
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.damping < 0.0:
            raise ValueError("damping must be non-negative")


def _check_paradigm(paradigm: str) -> None:
    if paradigm not in PARADIGMS:
        raise ValueError(f"paradigm must be one of {PARADIGMS}, got '{paradigm}'")


# ---------------------------------------------------------------------------
# The simulated plant
# ---------------------------------------------------------------------------

# The plant derivative, written once per state layout as Python source.  The
# state names are the layout's (alpha: a, ad; phi: ph, phd; beta: b, bd;
# theta: th, thd), the field and packed gradient at the evaluation time are
# bx, by, bz and g1..g5 (one [b; g] grid entry), and bias_a/bias_b are the
# constant generalized forces on the two actuator joints.  The template
# assigns each rate's derivative, an acceleration; an angle's derivative is
# its rate.  Upper-case names are the plant's constants, which _compile
# inlines as literals, hoisted in the same operation order as the per-call
# formula (tests/helpers.py: coupled_accelerations_per_call).
_WRENCH = """\
sa = sin(a)
ca = cos(a)
sb = sin(b)
cb = cos(b)
ax = sa * cb
ay = -sb
az = ca * cb
mx = MAG_POL * ax
my = MAG_POL * ay
mz = MAG_POL * az
fx = g1 * mx + g2 * my + g3 * mz
fy = g2 * mx + g4 * my + g5 * mz
fz = g3 * mx + g5 * my - (g1 + g4) * mz
tx = my * bz - mz * by + LEVER * (ay * fz - az * fy)
ty = mz * bx - mx * bz + LEVER * (az * fx - ax * fz)
tz = mx * by - my * bx + LEVER * (ax * fy - ay * fx)
qa = ty + bias_a
qb = tx * ca - tz * sa + bias_b
"""

# Each channel's 2x2 coupled solve of the mass matrix [[A11, a12], [a12, A22]].
_COUPLED = """\
c = cos(a - ph)
s = sin(a - ph)
a12 = HALF_ML_L * c
rhs1 = K1 * sa - HALF_ML_L * (phd * phd) * s + qa - DAMPING * ad
rhs2 = K2 * sin(ph) + HALF_ML_L * (ad * ad) * s - DAMPING * phd
det = A11_A22 - a12 * a12
add = (A22 * rhs1 - a12 * rhs2) / det
phdd = (A11 * rhs2 - a12 * rhs1) / det
c = cos(b - th)
s = sin(b - th)
a12 = HALF_ML_L * c
rhs1 = K1 * sb - HALF_ML_L * (thd * thd) * s + qb - DAMPING * bd
rhs2 = K2 * sin(th) + HALF_ML_L * (bd * bd) * s - DAMPING * thd
det = A11_A22 - a12 * a12
bdd = (A22 * rhs1 - a12 * rhs2) / det
thdd = (A11 * rhs2 - a12 * rhs1) / det
"""

_ACTUATOR = """\
add = (ETA_G * sa + qa - DAMPING * ad) / INERTIA
bdd = (ETA_G * sb + qb - DAMPING * bd) / INERTIA
"""

# Per layout (pendulum attached or not): the template, and the state in
# tuple order with each entry's derivative.
_LAYOUTS = {
    True: (_WRENCH + _COUPLED, (
        ("a", "ad"), ("ph", "phd"), ("ad", "add"), ("phd", "phdd"),
        ("b", "bd"), ("th", "thd"), ("bd", "bdd"), ("thd", "thdd"),
    )),
    False: (_WRENCH + _ACTUATOR, (
        ("a", "ad"), ("ad", "add"), ("b", "bd"), ("bd", "bdd"),
    )),
}
_NAME = re.compile(r"\b[A-Za-z_]\w*\b")


def _constants(params: PendulumParams) -> dict[str, float]:
    """The template constants of one plant but its signed dipole MAG_POL, in
    the per-call operation order."""
    p = params
    m_pend = p.pend_mass
    a11 = p.inertia + m_pend * p.arm_length**2
    a22 = 0.25 * m_pend * p.pend_length**2
    return {
        "LEVER": p.magnet_offset,
        "DAMPING": p.damping,
        "HALF_ML_L": 0.5 * m_pend * p.arm_length * p.pend_length,
        "A11": a11,
        "A22": a22,
        "A11_A22": a11 * a22,
        "K1": (p.eta + m_pend * p.arm_length) * p.gravity,
        "K2": m_pend * p.gravity * 0.5 * p.pend_length,
        "ETA_G": p.eta * p.gravity,
        "INERTIA": p.inertia,
    }


# The plant step: DOP853, the eighth-order Dormand-Prince pair (Prince &
# Dormand, J. Comput. Appl. Math. 7, 1981; Hairer, Norsett & Wanner, Solving
# ODEs I, Sec. II.10), at a fixed step with its eighth-order weights only: the
# 12 stages and weights of scipy.integrate's DOP853, to the last bit.  Row s:
# node c_s, weights a_sj.  The last row's state (weights b_j) is the step's
# result.
_TABLEAU = (
    (0.0, ()),
    (0.05260015195876773, (0.05260015195876773,)),
    (0.0789002279381516, (0.0197250569845379, 0.0591751709536137)),
    (0.1183503419072274, (0.02958758547680685, 0.0, 0.08876275643042054)),
    (0.2816496580927726, (
        0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    )),
    (0.3333333333333333, (
        0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242,
    )),
    (0.25, (
        0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    )),
    (0.3076923076923077, (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    )),
    (0.6512820512820513, (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    )),
    (0.6, (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627,
    )),
    (0.8571428571428571, (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    )),
    (1.0, (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    )),
    (1.0, (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
        0.20136540080403034, 0.04471061572777259,
    )),
)
#: The nodes below 1: a tick of n steps of size dt reads the field and
#: gradient at (j + c) * dt for each step j and node c, then at n * dt.
NODES = tuple(c for c, _ in _TABLEAU if c < 1.0)


def make_tick(params: PendulumParams, attached: bool, mag_pol: float):
    """One controller tick of the plant, compiled from its layout.

    Returns ``tick(y, substeps, dt, grid, bias_a, bias_b)``: the state
    after ``substeps`` eighth-order Runge-Kutta (DOP853) steps of size dt,
    12 derivative evaluations each, with ``grid`` holding [b; g] at each
    stage time in order (len(NODES)·substeps + 1 entries of eight values,
    bx, by, bz, g1, ..., g5; see :data:`NODES`).  The state is (alpha, phi,
    alpha', phi', beta, theta, beta', theta') with a pendulum ``attached``,
    else (alpha, alpha', beta, beta'); ``mag_pol`` is the signed dipole
    moment |m|·polarity.

    The template is inlined once per stage of every step, over that stage's
    grid entry, with each stage's state and derivative held in locals named
    by stage (``a_2``, ``add_3``): straight-line code on plain Python floats,
    no per-stage tuples and no calls but ``math.sin``/``math.cos``.  Row s's
    state is ``y + (h_s1 * k_1 + ...)``, with ``h_sj = dt * a_sj`` hoisted
    and no term for a zero weight, nor ``- DAMPING * rate`` for a damping
    inlined as ``(0.0)``: bit-identical to stage-by-stage RK.

    Ticks are kept across runs by ``_compile_tick``, keyed by the constant
    text that they inline.
    """
    return _compile_tick(attached, tuple(
        (name, f"({float(value)!r})")
        for name, value in {**_constants(params), "MAG_POL": mag_pol}.items()
    ))


@functools.lru_cache(maxsize=32)
def _compile_tick(attached: bool, constants: tuple[tuple[str, str], ...]):
    """:func:`make_tick`'s tick of the layout ``attached`` with the
    (name, inlined text) pairs ``constants``.  The key is that text, not the
    plant's parameters: a ``damping`` of -0.0 equals 0.0 and hashes alike,
    but inlines as ``(-0.0)``.  A tick takes 35-65 kB, so 32 plants stay
    near 2 MB."""
    template, layout = _LAYOUTS[attached]
    if ("DAMPING", "(0.0)") in constants:  # no term, as for a zero weight
        template = re.sub(r" - DAMPING \* \w+", "", template)
    states = [name for name, _ in layout]

    def at(name: str, s: int) -> str:
        """``name`` at stage ``s``; a state at stage 1 is the state itself."""
        return name if s == 1 and name in states else f"{name}_{s}"

    def stage(s: int, index: str) -> str:
        """The template at stage ``s``, over the grid entry ``index``."""
        names = {name: at(name, s) for pair in layout for name in pair}
        names.update(constants)
        text = f"bx, by, bz, g1, g2, g3, g4, g5 = grid[{index}]\n{template}"
        text = _NAME.sub(lambda m: names.get(m.group(), m.group()), text)
        return "".join(f"        {line}\n" for line in text.splitlines())

    # Angles before rates: the step's angle update reads its rate's old value.
    order = sorted(layout, key=lambda entry: entry[1] not in states)
    body = hoisted = ""
    for s, (c, row) in enumerate(_TABLEAU, 1):
        terms = [j for j, w in enumerate(row, 1) if w]
        hoisted += "".join(f"    h{s}_{j} = dt * ({row[j - 1]!r})\n" for j in terms)
        body += "".join(
            f"        {at(name, s) if s < len(_TABLEAU) else name} = {name} + ("
            + " + ".join(f"h{s}_{j} * {at(d, j)}" for j in terms) + ")\n"
            for name, d in order if terms
        )
        if s < len(_TABLEAU):  # a node-1 stage reads the next step's first entry
            entry = NODES.index(c) if c < 1.0 else len(NODES)
            body += stage(s, f"i + {entry}")
    source = (
        "def tick(y, substeps, dt, grid, bias_a, bias_b):\n"
        + hoisted
        + f"    {', '.join(states)} = y\n"
        + f"    for i in range(0, {len(NODES)} * substeps, {len(NODES)}):\n"
        + body
        + f"    return ({', '.join(states)})\n"
    )
    namespace = _globals(math)
    exec(compile(source, "<emnav.dynamics plant tick>", "exec"), namespace)
    return namespace["tick"]


def _globals(trig) -> dict:
    """A tick's globals: the sin and cos of ``trig`` (``math``, or ``cmath``
    for complex arithmetic), and inf and nan, the repr of a non-finite
    constant (a NaN damping passes PendulumParams' range check)."""
    return {"sin": trig.sin, "cos": trig.cos, "inf": math.inf, "nan": math.nan}


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def _control_period(tick, paradigm, substeps, dt, b_mag, attached, polarity, trig):
    """One control period of the alpha channel of ``tick`` (a compiled
    :func:`make_tick`), as the map f(x, u) -> the channel's state after it.

    ``substeps`` steps of size dt from the channel state x (a sequence of 4
    numbers with a pendulum ``attached``, else 2), with the beta channel at
    rest and zero field gradient, under an input u held over the period: the
    generalized force on the actuator joint with zero field (torque
    paradigm), or the angle u of the field polarity·|b|·(sin u, 0, cos u)
    (field paradigm; the allocator inverts the field of a polarity -1
    magnet).  The field takes the sin and cos of ``trig``: ``math``, or
    ``cmath`` for a tick rebound to complex arithmetic.  Returns (n, f).
    """
    _check_paradigm(paradigm)
    n = 4 if attached else 2
    entries = len(NODES) * substeps + 1
    field_mag = polarity * b_mag
    sin, cos = trig.sin, trig.cos

    def f(x, u) -> tuple:
        if paradigm == "torque":
            field, bias = (0.0, 0.0, 0.0), u
        else:
            field, bias = (field_mag * sin(u), 0.0, field_mag * cos(u)), 0.0
        grid = [field + (0.0,) * 5] * entries
        return tick(tuple(x) + (0.0,) * n, substeps, dt, grid, bias, 0.0)[:n]

    return n, f


def linearize(
    tick, paradigm: str, substeps: int, dt: float, b_mag: float = 0.0,
    attached: bool = True, polarity: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(A_d, B_d) of one control period of the plant the simulator runs, at
    the upright equilibrium: the model the gains are designed on.

    The Jacobians of :func:`_control_period`'s map by complex step, column j
    being Im f(x + ih e_j) / h: no difference is taken, so nothing cancels,
    and at h = 1e-30 they are exact to roundoff (Squire & Trapp, SIAM Review
    40(1), 1998; Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003).  The
    tick is straight-line code whose only calls are sin and cos; its code
    object, rebound to cmath's, runs on complex states as it is, so nothing
    is compiled again.  State order: (alpha, phi, alpha', phi') with a
    pendulum ``attached``, else (alpha, alpha'); single input.
    """
    complex_tick = types.FunctionType(tick.__code__, _globals(cmath))
    n, f = _control_period(complex_tick, paradigm, substeps, dt, b_mag,
                           attached, polarity, cmath)
    h = 1.0e-30
    zero = (0j,) * n
    columns = [f(zero[:j] + (h * 1j,) + zero[j + 1:], 0j) for j in range(n)]
    jac = np.array(columns + [f(zero, h * 1j)]).imag.T / h
    return jac[:, :n], jac[:, n:]


def finite_difference_linearization(
    tick, paradigm: str, substeps: int, dt: float, b_mag: float = 0.0,
    attached: bool = True, polarity: int = 1, eps: float = 1.0e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference Jacobians of :func:`_control_period`'s map
    of ``tick``: the check of :func:`linearize`, whose gap to it the run
    reports.  Returns (A_d, B_d) in :func:`linearize`'s state order.
    """
    n, f = _control_period(tick, paradigm, substeps, dt, b_mag, attached,
                           polarity, math)

    def g(x: np.ndarray, u: float) -> np.ndarray:
        return np.array(f(x.tolist(), u))

    a = np.column_stack([(g(dx, 0.0) - g(-dx, 0.0)) / (2.0 * eps)
                         for dx in eps * np.eye(n)])
    b = ((g(np.zeros(n), eps) - g(np.zeros(n), -eps)) / (2.0 * eps)).reshape(n, 1)
    return a, b
