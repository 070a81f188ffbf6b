"""Pieces shared by the plasma pipelines.

The Minkowski energy tensor, the named residual report and the residual
algebra have the same structure on the base manifold, the tangent bundle
and the jet space.  A :class:`Channel` is one connection block with its
adapted partials, and :class:`FluidFrame` evaluates the residuals and the
stream-line acceleration over any channel: riemann has one channel,
lagrange a horizontal and a vertical one, and multitime one frame per
velocity label beta with a horizontal channel and p vertical ones (one per
greek label of the fiber derivative).  The covariant derivative of a latin
tensor and the RK4 loop of both stream-line integrators live here too.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

from . import dual
from .errors import IntegrationError, NormalizationError, SingularDynamicsError, TensorError
from .tensor_core import mat_vec, quadratic_form, sum_product


def point_memo(builder):
    """Memoize a pure per-point builder at the last point it was called at.

    The key is the identity of each framework-object argument plus the exact
    bits of each coordinate argument, a list, tuple or array: ``float.hex``
    of a plain float (-0.0 and 0.0 differ), and the shape and bytes of a
    float64 lane array, so one batch of points is one key.  Calls with other
    coordinates (jets, numpy scalars) bypass the memo.
    One point or batch is held, so memory stays flat; callers must not mutate
    results.
    """
    memo = {}

    @functools.wraps(builder, updated=())
    def cached(*args):
        key = []
        for arg in args:
            if not isinstance(arg, (list, tuple, np.ndarray)):
                key.append(id(arg))
            elif all(type(c) is float for c in arg):
                key.append(tuple(map(float.hex, arg)))
            elif all(type(c) is float or type(c) is np.ndarray and c.dtype == np.float64
                     for c in arg):
                key.append(tuple(c.hex() if type(c) is float else (c.shape, c.tobytes())
                                 for c in arg))
            else:
                return builder(*args)
        key = tuple(key)
        if key not in memo:
            value = builder(*args)
            memo.clear()
            memo[key] = (args, value)  # args keep the keyed ids alive
        return memo[key][1]

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


class ResidualReport:
    """Named residual arrays for one evaluation point.

    Entries are float numpy arrays (scalars stored as 0-d arrays); the
    insertion order is the documented column order of the CSV output.
    """

    def __init__(self):
        self.entries = OrderedDict()

    def add(self, name, value):
        self.entries[name] = np.asarray(value, dtype=float)
        return self

    def __getitem__(self, name):
        return self.entries[name]

    def norm(self, name):
        arr = self.entries[name]
        return float(np.abs(arr).max()) if arr.size else 0.0

    def columns(self):
        """Flattened (label, value) pairs plus a max-norm per entry."""
        out = []
        for name, arr in self.entries.items():
            if arr.ndim == 0:
                out.append((name, float(arr)))
            else:
                for idx in np.ndindex(arr.shape):
                    label = name + "_" + "".join(str(i + 1) for i in idx)
                    out.append((label, float(arr[idx])))
            out.append((name + "_norm", self.norm(name)))
        return out


def covariant_derivative(T, slots, partial, coeff):
    """Covariant derivative of a latin tensor T given as jets at one point.

    ``T`` is a jet or nested lists of jets with one valence tag per level
    in ``slots``, ``partial(jet, p)`` is the adapted partial along
    direction p and ``coeff[i][j][p]`` the connection block.  Returns a
    float array with one extra covariant axis: the partial plus one
    coefficient correction per slot, signed by variance.
    """
    if any(not s.latin for s in slots):
        raise TensorError("covariant derivative requires all-latin valence")
    T, vals = jet_values(T, slots)
    n = len(coeff)
    out = []
    for idx in np.ndindex(T.shape):
        for p in range(n):
            acc = partial(T[idx], p)
            for a, slot in enumerate(slots):
                pre, i, post = idx[:a], idx[a], idx[a + 1:]
                if slot.up:
                    for m in range(n):
                        acc = acc + vals[pre + (m,) + post] * coeff[i][m][p]
                else:
                    for m in range(n):
                        acc = acc - vals[pre + (m,) + post] * coeff[m][i][p]
            out.append(acc)
    return component_array(out, T.shape + (n,))


def component_array(values, shape):
    """Components listed in ``np.ndindex(shape)`` order as a float array.

    Lane arrays (one lane per point) add a trailing lane axis, over which
    plain floats among them are repeated; plain floats alone give an array
    of ``shape``.
    """
    if any(isinstance(v, np.ndarray) for v in values):
        values = np.broadcast_arrays(*values)
    out = np.array(values, dtype=float)
    return out.reshape(shape + out.shape[1:])


def jet_values(T, slots):
    """``T`` as an object array of jets and its values keyed by index tuple."""
    T = np.array(T, dtype=object)
    if T.ndim != len(slots):
        raise TensorError(f"rank {T.ndim} tensor given {len(slots)} slots")
    return T, {idx: T[idx].value for idx in np.ndindex(T.shape)}


def inertial_factor(p0, rho0, c):
    """c^2 / (p + rho c^2), the factor in front of the stream-line forces."""
    s = p0 + rho0 * c * c
    if isinstance(s, np.ndarray):  # lanes: max's bits lane by lane
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
    E0 = [[e.value for e in row] for row in E_mix]
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
    """

    def __init__(self, c, g, ginv, u, u_low, p, rho):
        self.n = len(g)
        self.c = c
        self.g0 = [[e.value for e in row] for row in g]
        self.ginv0 = [[e.value for e in row] for row in ginv]
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


def add_residuals(report, values, suffix=""):
    """Add one point's :meth:`FluidFrame.channel_values` to a report.

    Each value is copied to a fresh contiguous float array first, so that
    ``@`` adds its terms in one order whatever layout the value had.
    """
    cons, cont, lorentz, euler, force, u0, ul0 = (np.array(v) for v in values)
    report.add("lorentz" + suffix, lorentz)
    report.add("conservation" + suffix, cons)
    report.add("continuity" + suffix, cont)
    report.add("euler" + suffix, euler)
    report.add("force" + suffix, force)
    report.add("contraction_identity" + suffix, float(cons @ u0 - cont - lorentz))
    report.add("euler_decomposition" + suffix, euler - (cons - cont * ul0))


def max_abs(values, lanes=False):
    """max |values| over every axis of a float array: a float, or with
    ``lanes`` one per lane of the trailing lane axis."""
    values = np.abs(values)
    if lanes:
        return values.max(axis=tuple(range(values.ndim - 1)))
    return float(values.max())


def unit_norm_error(u, u_low):
    """u_i u^i - 1 at one point."""
    return float(np.array(u_low) @ np.array(u) - 1.0)


def split_lanes(values, size):
    """Per-point lists of values from floats, lane arrays and lists of them."""
    stacked = [np.array([np.broadcast_to(e, (size,)) for e in v]).T if isinstance(v, list)
               else np.broadcast_to(v, (size,)) for v in values]
    return [[a[b] for a in stacked] for b in range(size)]


def integrate_rk4(accel, x0, v0, step, count, monitor=None):
    """Classical fixed-step RK4 for the second-order system x'' = accel(x, x').

    ``accel`` and ``monitor`` take plain-float lists.  Returns an array of
    count+1 rows [s, x, dx/ds], each followed by ``monitor(x, dx/ds)`` when
    a monitor is given.  A failure inside a step, or a state that turns
    non-finite, raises :class:`IntegrationError` naming the step.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if count < 1:
        raise ValueError("need at least one step")
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)

    def row(s, x, v):
        extra = [] if monitor is None else [monitor(x.tolist(), v.tolist())]
        return [s, *x, *v, *extra]

    def f(xx, vv):
        return np.array(accel(xx.tolist(), vv.tolist()))

    first = row(0.0, x, v)
    rows = np.empty((count + 1, len(first)))
    rows[0] = first
    for k in range(count):
        try:
            k1x, k1v = v, f(x, v)
            k2x, k2v = v + 0.5 * step * k1v, f(x + 0.5 * step * k1x, v + 0.5 * step * k1v)
            k3x, k3v = v + 0.5 * step * k2v, f(x + 0.5 * step * k2x, v + 0.5 * step * k2v)
            k4x, k4v = v + step * k3v, f(x + step * k3x, v + step * k3v)
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise IntegrationError("state is not finite", step=k)
        rows[k + 1] = row((k + 1) * step, x, v)
    return rows
