"""Pieces shared by the plasma pipelines.

The Minkowski energy tensor, the residual report and the residual algebra
have the same structure on the base manifold, the tangent bundle and the
jet space.  A report is a dict from entry name to float array, with a
trailing lane axis on a batch of points, and :func:`report_table` turns it
into column labels and rows.  A :class:`Channel` is one connection block
with its adapted partials, and :class:`FluidFrame` evaluates the residuals
and the stream-line acceleration over any channel: riemann has one
channel, lagrange a horizontal and a vertical one, and multitime one frame
per velocity label beta with a horizontal channel and p vertical ones (one
per greek label of the fiber derivative).  The one covariant derivative of
all three frameworks lives here too: it acts on a block stacking the jet
coefficients of every component of a tensor, given the framework's adapted
partials and one connection block per slot.  So does the RK4 loop of both
stream-line integrators.
"""

from __future__ import annotations

import functools
import math
from array import array

from . import _numpy as np
from . import dual
from ._numpy import ARRAY_TYPES
from .errors import IntegrationError, NormalizationError, SingularDynamicsError, TensorError
from .tensor_core import Slot, invert_symmetric, mat_vec, quadratic_form, sum_product


def point_memo(builder):
    """Memoize a pure per-point builder at the last point it was called at.

    The key is the identity of each framework-object argument plus the exact
    bits of each coordinate argument, a list, tuple or array: the bytes of a
    sequence of plain floats as ``array("d")`` packs them (-0.0 and 0.0
    differ), and the shape and bytes of a float64 lane array, so one batch
    of points is one key.  Calls with other coordinates (jets, numpy
    scalars) bypass the memo.
    One point or batch is held, so memory stays flat; callers must not mutate
    results.
    """
    memo = {}

    @functools.wraps(builder, updated=())
    def cached(*args):
        key = []
        for arg in args:
            if not (isinstance(arg, (list, tuple)) or ARRAY_TYPES[type(arg)]):
                key.append(id(arg))
            elif all(type(c) is float for c in arg):
                key.append(array("d", arg).tobytes())
            # ARRAY_TYPES before np.ndarray, whose first read imports numpy
            elif all(type(c) is float or ARRAY_TYPES[type(c)] and type(c) is np.ndarray
                     and c.dtype == np.float64 for c in arg):
                key.append(tuple(c.hex() if type(c) is float else (c.shape, c.tobytes())
                                 for c in arg))
            else:
                return builder(*args)
        key = tuple(key)
        held = memo.get(key)
        if held is None:
            value = builder(*args)
            memo.clear()
            memo[key] = (args, value)  # args keep the keyed ids alive
            return value
        return held[1]

    cached.cache_clear = memo.clear
    return cached


def energy_low_mixed(g, ginv, H, G):
    """Minkowski energy tensor, covariant and mixed forms.

    E_ij = (1/4) g_ij H_rs G^rs + g^rs H_ir G_js   with G^rs = g^rp g^sq G_pq,
    E^m_i = g^mp E_pi.

    All inputs are square lists-of-lists over one scalar type; H and G
    must be antisymmetric.
    """
    n = len(g)
    tmp = [[sum_product(ginv[r], [G[p][q] for p in range(n)]) for q in range(n)] for r in range(n)]
    Gup = [[sum_product(ginv[s], tmp[r]) for s in range(n)] for r in range(n)]
    hg = 0.0
    for r in range(n):
        for s in range(n):
            hg = hg + H[r][s] * Gup[r][s]
    quarter_hg = 0.25 * hg
    E_low = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = quarter_hg * g[i][j]
            for r in range(n):
                for s in range(n):
                    acc = acc + ginv[r][s] * H[i][r] * G[j][s]
            E_low[i][j] = acc
    E_mix = [[sum_product(ginv[m], [E_low[p][i] for p in range(n)]) for i in range(n)] for m in range(n)]
    return E_low, E_mix


def energy_mixed_direct(ginv, H, G):
    """Mixed energy tensor by the delta-form identity.

    E^m_i = (1/4) delta^m_i H_rs G^rs - H^m_r G^r_i, with raised factors
    H^m_r = g^mp H_pr and G^r_i = g^rs G_si.  The scalar H_rs G^rs is
    obtained from the raised factors as -H^p_s G^s_p, so this path shares
    only the inverse metric with :func:`energy_low_mixed`.
    """
    n = len(ginv)
    Hup = [[sum_product(ginv[m], [H[p][r] for p in range(n)]) for r in range(n)] for m in range(n)]
    Gup1 = [[sum_product(ginv[r], [G[s][i] for s in range(n)]) for i in range(n)] for r in range(n)]
    hg = 0.0
    for p in range(n):
        for s in range(n):
            hg = hg - Hup[p][s] * Gup1[s][p]
    quarter_hg = 0.25 * hg
    out = [[None] * n for _ in range(n)]
    for m in range(n):
        for i in range(n):
            acc = quarter_hg if m == i else 0.0
            for r in range(n):
                acc = acc - Hup[m][r] * Gup1[r][i]
            out[m][i] = acc
    return out


def unit_vector(g, v, label, point=None):
    """(u^i, u_i, eps): v divided by its length eps, eps^2 = g_pq v^p v^q > 0."""
    norm2 = quadratic_form(g, v, v)
    if dual.branch(dual.scalar_value(norm2) <= 0.0):
        raise NormalizationError(
            f"{label} quadratic form is not positive",
            point=point, value=dual.scalar_value(norm2),
        )
    eps = dual.sqrt(norm2)
    u = [vi / eps for vi in v]
    return u, mat_vec(g, u), eps


def mixed_stress(E_mix, u, u_low, p, rho, c):
    """T^m_i = (rho + p/c^2) u^m u_i + p delta^m_i + E^m_i, generic scalars."""
    n = len(u)
    q = rho + p / c**2
    out = [[q * u[m] * u_low[i] + E_mix[m][i] for i in range(n)] for m in range(n)]
    for m in range(n):
        out[m][m] = out[m][m] + p
    return out


def mixed_stress_jets(fr):
    """The mixed stress T^m_i as jets of a riemann or lagrange frame's seeding."""
    return mixed_stress(fr.E_mix, fr.u, fr.u_low, fr.pr, fr.rho, fr.c)


def stress_lists(fr):
    """Covariant and mixed stress values T_ij and T^m_i of a riemann or lagrange
    frame, as nested lists."""
    n = fr.n
    E_low0, E_mix0 = _values(fr.E_low), _values(fr.E_mix)
    T_low = [[fr.q0 * fr.ul0[i] * fr.ul0[j] + fr.p0 * fr.g0[i][j] + E_low0[i][j]
              for j in range(n)] for i in range(n)]
    T_mix = [[fr.q0 * fr.u0[m] * fr.ul0[i] + E_mix0[m][i] + (fr.p0 if m == i else 0.0)
              for i in range(n)] for m in range(n)]
    return T_low, T_mix


def energy_mixed_paths(fr, lanes=()):
    """E^m_i of a riemann or lagrange frame, and :func:`energy_mixed_direct` on
    the frame's values of g^-1, H and G, as float arrays with lane shape ``lanes``."""
    direct = energy_mixed_direct(fr.ginv0, _values(fr.H), _values(fr.G))
    return lane_array(_values(fr.E_mix), lanes), lane_array(direct, lanes)


def _values(T):
    """The values of a matrix of jets."""
    return [[e.value for e in row] for row in T]


def jet_rows(x):
    """The coefficient rows of a jet, or a :func:`jet_block` itself."""
    return x.c if isinstance(x, dual.Jet) else x


def jet_block(T, rank):
    """The coefficients of the jets of T (nested lists of one seeding, ``rank``
    levels) as one float block [slot][*index][lane]."""
    T = np.array(T, dtype=object)
    if T.ndim != rank:
        raise TensorError(f"rank {T.ndim} tensor given {rank} slots")
    block = np.array([e.c for e in T.flat])
    return np.moveaxis(block, 0, 1).reshape(block.shape[1:2] + T.shape + block.shape[2:])


@point_memo
class MetricJets:
    """A metric field (``raw`` as the field gives it, ``g`` promoted) and its
    inverse as jets of one seeding of a point, inverted once, naming the
    point if it is singular: the riemann and lagrange frames, connection
    blocks and metric compatibilities share it.  The values of g^-1 and the
    jet blocks of g and g^-1 are built on first use."""

    def __init__(self, metric, coords):
        self.cj, self.ctx = cj, ctx = dual.seed(list(coords))
        self.raw = metric(cj)
        self.g = [[dual.promote(v, ctx) for v in row] for row in self.raw]
        self.ginv = invert_symmetric(self.g, coords)

    @functools.cached_property
    def ginv0(self):
        return _values(self.ginv)

    @functools.cached_property
    def blocks(self):
        """(slots, jet block) of g and of g^-1: the tensors of a metric compatibility."""
        return [((Slot.LD, Slot.LD), jet_block(self.g, 2)),
                ((Slot.LU, Slot.LU), jet_block(self.ginv, 2))]


def covariant_derivative(block, slots, partials, coeffs, *, partial_first):
    """Covariant derivative of a tensor T from the :func:`jet_block` of its jets.

    T has one valence tag per index in ``slots``.  ``partials`` holds the
    adapted partials of every component, laid out [*index][*derivative][lane],
    and ``coeffs[a]`` the connection block [i][m][*derivative][lane] of slot a
    (its lane axis may be absent), or None where slot a takes no correction.
    Returns a float array [*index][*derivative][lane].

    The correction of slot a and summation index m is one product of the
    values at m on axis a with the block laid along axis a, added for an
    upper and subtracted for a lower slot, in slot order and then m order.
    Where the partial enters is part of the output bytes: with
    ``partial_first`` the corrections are added to it (riemann, lagrange),
    otherwise they are summed from 0.0 and the partial is added last
    (multitime).
    """
    rank = len(slots)
    shape, lanes = block.shape[1:1 + rank], block.shape[1 + rank:]
    nd = partials.ndim - rank - len(lanes)  # the derivative axes
    vals = block[0].reshape(shape + (1,) * nd + lanes)
    acc = partials if partial_first else 0.0
    for a, (slot, coeff) in enumerate(zip(slots, coeffs)):
        if coeff is None:
            continue
        # c[m] is [index at slot a][*derivative][lane], then laid along axis a
        c = np.swapaxes(coeff, 0, 1) if slot.up else coeff
        c = c.reshape(c.shape[:1] + (1,) * a + c.shape[1:2] + (1,) * (rank - a - 1) + c.shape[2:]
                      + (1,) * (2 + nd + len(lanes) - c.ndim))
        for m in range(len(c)):
            term = vals[(slice(None),) * a + (slice(m, m + 1),)] * c[m]
            acc = acc + term if slot.up else acc - term
    return acc if partial_first else acc + partials


def inertial_factor(p0, rho0, c):
    """c^2 / (p + rho c^2), the factor in front of the stream-line forces."""
    s = p0 + rho0 * c * c
    if ARRAY_TYPES[type(s)]:  # lanes: max's bits lane by lane
        scale = np.maximum(np.maximum(abs(p0), abs(rho0 * c * c)), 1.0)
    else:
        scale = max(abs(p0), abs(rho0 * c * c), 1.0)
    if dual.branch(abs(s) <= 1e-12 * scale):
        raise SingularDynamicsError(
            f"inertial factor p + rho c^2 = {s} vanishes"
        )
    return c * c / s


def energy_divergence(E_mix, coeff, partial):
    """E^m_{s|m} of one channel from the mixed energy jets.

    Each correction term is added and then subtracted in two steps; this
    summation order is part of the output bytes of lagrange and multitime
    (riemann adds ``a*b - c*d``).
    """
    n = len(coeff)
    E0 = _values(E_mix)
    out = []
    for s in range(n):
        acc = 0.0
        for m in range(n):
            acc += partial(E_mix[m][s], m)
            for r in range(n):
                acc += E0[r][s] * coeff[m][r][m]
                acc -= E0[m][r] * coeff[r][s][m]
        out.append(acc)
    return out


class Channel:
    """One derivative channel of a :class:`FluidFrame` at a point.

    ``coeff[i][j][k]`` is the connection block (k the derivative index) and
    ``ediv`` the divergence E^m_{i|m} of the mixed energy tensor.  The
    adapted partials are built on first use: ``dp[m]`` of p, ``dul[i][m]``
    of u_i and ``dqu[m]``, the diagonal partial d_m of (rho + p/c^2) u^m;
    stream lines and sheets read only ``dp``.
    """

    def __init__(self, coeff, partial, ediv, jets):
        self.coeff = coeff
        self.ediv = ediv
        self.partial = partial
        self._jets = jets

    @functools.cached_property
    def dp(self):
        return [self.partial(self._jets[1], k) for k in range(len(self.coeff))]

    @functools.cached_property
    def dul(self):
        u_low = self._jets[0]
        n = len(u_low)
        return [[self.partial(u_low[i], k) for k in range(n)] for i in range(n)]

    @functools.cached_property
    def dqu(self):
        return [self.partial(e, m) for m, e in enumerate(self._jets[2])]


class FluidFrame:
    """Point values of a plasma state and the residual algebra over a channel.

    A subclass or owner seeds the point, evaluates the metric, the unit
    velocity, pressure and density as jets of that seeding, passes them to
    ``FluidFrame.__init__`` and builds its channels with :meth:`channel`.
    The jets stay as ``u``, ``u_low``, ``pr`` and ``rho``.
    """

    def __init__(self, c, g, ginv, u, u_low, p, rho):
        self.n = len(g)
        self.c = c
        self.g0, self.ginv0 = _values(g), _values(ginv)
        self.u, self.u_low, self.pr, self.rho = u, u_low, p, rho
        self.u0 = [e.value for e in u]
        self.ul0 = [e.value for e in u_low]
        self.p0 = p.value
        self.rho0 = rho.value
        q = rho + p / c**2
        self.q0 = q.value
        qu = [q * ui for ui in u]
        self.qu0 = [e.value for e in qu]
        self._jets = (u_low, p, qu)

    def channel(self, coeff, partial, ediv):
        """The channel of connection block ``coeff`` and adapted ``partial``."""
        return Channel(coeff, partial, ediv, self._jets)

    def lorentz_force(self, ch):
        return [-sum_product(self.ginv0[r], ch.ediv) for r in range(self.n)]

    def lorentz_residual(self, ch):
        return sum_product(ch.ediv, self.u0)

    def u_cov_low(self, ch, i, m):
        """u_{i|m} with the normalization differentiated through."""
        acc = ch.dul[i][m]  # shared with the channel: no in-place update
        for r in range(self.n):
            acc = acc - ch.coeff[r][i][m] * self.ul0[r]
        return acc

    def qu_divergence(self, ch):
        acc = 0.0
        for m in range(self.n):
            acc += ch.dqu[m]
            for r in range(self.n):
                acc += self.qu0[r] * ch.coeff[m][r][m]
        return acc

    def conservation(self, ch):
        n = self.n
        force = self.lorentz_force(ch)
        div_qu = self.qu_divergence(ch)
        out = []
        for i in range(n):
            acc = div_qu * self.ul0[i] + ch.dp[i]
            for m in range(n):
                acc += self.q0 * self.u0[m] * self.u_cov_low(ch, i, m)
            acc -= sum_product(self.g0[i], force)
            out.append(acc)
        return out

    def continuity(self, ch):
        return self.qu_divergence(ch) + sum_product(ch.dp, self.u0)

    def euler(self, ch):
        n = self.n
        force = self.lorentz_force(ch)
        out = []
        for i in range(n):
            acc = 0.0
            for m in range(n):
                acc += self.q0 * self.u_cov_low(ch, i, m) * self.u0[m]
                acc -= ch.dp[m] * (self.u0[m] * self.ul0[i] - (1.0 if m == i else 0.0))
            acc -= sum_product(self.g0[i], force)
            out.append(acc)
        return out

    def channel_values(self, ch):
        """Conservation, continuity, Lorentz residual, Euler and force of a
        channel, then u^i and u_i: the inputs of :func:`add_residuals`."""
        return [self.conservation(ch), self.continuity(ch), self.lorentz_residual(ch),
                self.euler(ch), self.lorentz_force(ch), self.u0, self.ul0]

    def stream_line_core(self, ch, w):
        """Geodesic and force terms of d^2 x^k/ds^2 along ``w`` = dx/ds.

        -(coeff^k_rm - fac delta^k_r dp_m) w^r w^m + fac (force^k - g^km dp_m)
        with fac = c^2 / (p + rho c^2).
        """
        n = self.n
        fac = inertial_factor(self.p0, self.rho0, self.c)
        force = self.lorentz_force(ch)
        out = []
        for k in range(n):
            acc = 0.0
            for r in range(n):
                for m in range(n):
                    bracket = ch.coeff[k][r][m]
                    if r == k:
                        bracket -= fac * ch.dp[m]
                    acc -= bracket * w[r] * w[m]
            acc += fac * (force[k] - sum_product(self.ginv0[k], ch.dp))
            out.append(acc)
        return out


def add_residuals(report, values, suffix="", lanes=()):
    """Add one channel's :meth:`FluidFrame.channel_values` to a report.

    ``lanes`` is the lane shape of the values: () at one point, (B,) on a
    batch of B points.
    """
    cons, cont, lorentz, euler, force, u0, ul0 = (lane_array(v, lanes) for v in values)
    report["lorentz" + suffix] = lorentz
    report["conservation" + suffix] = cons
    report["continuity" + suffix] = cont
    report["euler" + suffix] = euler
    report["force" + suffix] = force
    report["contraction_identity" + suffix] = np.asarray(_dot(cons, u0) - cont - lorentz)
    report["euler_decomposition" + suffix] = euler - (cons - cont * ul0)


def unit_norm_error(u, u_low, lanes=()):
    """u_i u^i - 1, lane by lane on a batch."""
    return np.asarray(_dot(lane_array(u_low, lanes), lane_array(u, lanes)) - 1.0)


def _dot(a, b):
    """a @ b of two contiguous vectors; with a trailing lane axis, of each lane's
    vectors, as one (B, 1, n) @ (B, n, 1) product of contiguous blocks, which
    adds in the order of a single 1-d ``@``."""
    if a.ndim == 1:
        return a @ b
    a, b = (np.ascontiguousarray(v.T) for v in (a, b))
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def lane_array(value, lanes=()):
    """A float, lane array or nested list of them as one contiguous float array
    with the lane shape ``lanes`` trailing, over which plain floats repeat."""
    if not lanes:
        return np.array(value, dtype=float)
    if isinstance(value, list):
        return np.array([lane_array(v, lanes) for v in value])
    return np.broadcast_to(value, lanes)


def report_table(report, lanes=False):
    """Column labels and rows of Python floats of a report.

    A report maps entry names to float arrays, with a trailing lane axis when
    ``lanes``; its insertion order is the column order.  Each entry gives
    one column per component, labelled ``name_ij..`` in ``np.ndindex`` order
    (a scalar keeps its name), and then the column ``name_norm`` of its max
    norm.  There is one row per lane, or one row.
    """
    labels, blocks = [], []
    for name, value in report.items():
        shape = value.shape[:-1] if lanes else value.shape
        labels += [name + "_" + "".join(str(i + 1) for i in idx) if idx else name
                   for idx in np.ndindex(shape)]
        labels.append(name + "_norm")
        flat = value.reshape(-1, value.shape[-1] if lanes else 1)
        blocks += [flat, np.abs(flat).max(axis=0, keepdims=True)]
    return labels, np.concatenate(blocks).T.tolist()


def max_abs(values, lanes=False):
    """max |values| over every axis of a float array: a float, or with
    ``lanes`` one per lane of the trailing lane axis."""
    values = np.abs(values)
    if lanes:
        return values.max(axis=tuple(range(values.ndim - 1)))
    return float(values.max())


def integrate_rk4(accel, x0, v0, step, count, monitors=()):
    """Classical fixed-step RK4 for the second-order system x'' = accel(x, x').

    ``accel`` and each of ``monitors`` take plain-float lists, and ``accel``
    returns one.  Returns count+1 rows, lists [s, x, dx/ds] of Python floats
    for a float ``step``, each followed by the value of every monitor at
    (x, dx/ds); no numpy call is made.  A failure inside a
    step or in a monitor of the row it ends (the first row counts to step
    0), or a state that turns non-finite, raises :class:`IntegrationError`
    naming the step.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if count < 1:
        raise ValueError("need at least one step")
    x, v = [float(c) for c in x0], [float(c) for c in v0]

    def row(s, x, v, k):
        try:
            extra = [monitor(x, v) for monitor in monitors]
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        return [s, *x, *v, *extra]

    def stage(c, kx, kv):
        """The slopes at (x + c*kx, v + c*kv), in numpy's order on arrays of shape (n,)."""
        vc = [a + c * b for a, b in zip(v, kv)]
        return vc, accel([a + c * b for a, b in zip(x, kx)], vc)

    def advance(y, *ks):
        """y + (step/6.0)*(k1 + 2*k2 + 2*k3 + k4), in numpy's order."""
        return [a + (step / 6.0) * (((b + 2 * c) + 2 * d) + e) for a, b, c, d, e in zip(y, *ks)]

    rows = [row(0.0, x, v, 0)]
    for k in range(count):
        try:
            k1 = v, accel(x, v)
            k2 = stage(0.5 * step, *k1)
            k3 = stage(0.5 * step, *k2)
            k4 = stage(step, *k3)
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        x = advance(x, k1[0], k2[0], k3[0], k4[0])
        v = advance(v, k1[1], k2[1], k3[1], k4[1])
        if not all(map(math.isfinite, x + v)):
            raise IntegrationError("state is not finite", step=k)
        rows.append(row((k + 1) * step, x, v, k))
    return rows
