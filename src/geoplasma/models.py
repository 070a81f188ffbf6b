"""Constructors for the built-in model spaces and stock metrics.

The four multi-time models share a temporal metric h over t and a base
spatial metric phi over x; they differ in how the jet-space metric and
the nonlinear connection are derived:

* grgml: conformal metric exp(2 sigma(t, x, xdot)) phi_ij, canonical
  connection (general relativity and electromagnetism),
* rgogml: phi_ij plus the rank-one optical term (1 - 1/refractive_index)
  Y_i Y_j with Y_i = phi_im xdot^m_mu X^mu(t), canonical connection
  (relativistic optics),
* edml: metric phi_ij with a connection corrected by the curl of a
  covector potential U (electrodynamics),
* bsml: metric phi_ij and the canonical connection alone (the
  product/string case; its G and C connection blocks vanish).

The spatial factor h^{alpha beta} of the fundamental block tensor
h^{alpha beta} g_ij is carried by the block structure, so the stored
metric is the spatial block g_ij.
"""

from __future__ import annotations

from .dual import promote, scalar_value, seed
from .errors import DegenerateMetricError, DomainError, ScenarioError
from .riemann import SemiRiemannianSpace, christoffel_lists
from .multitime import MultiTimeSpace, fiber_index
from .tensor_core import MatrixMetricField, MetricField, invert_symmetric


def canonical_connection(h_metric, phi_metric, p, n):
    """The canonical nonlinear connection N^(i)_(alpha)j = gamma^i_jm x^m_alpha.

    gamma are the Christoffel symbols of phi at the spatial part of the
    jet point; the temporal block M = -kappa x is never stored, it enters
    through the adapted temporal derivative directly.
    """
    base = SemiRiemannianSpace(n, phi_metric)

    def fn(coords):
        x = coords[p:p + n]
        gamma = christoffel_lists(base, x)
        out = [[[0.0] * n for _ in range(p)] for _ in range(n)]
        for i in range(n):
            for a in range(p):
                for j in range(n):
                    acc = 0.0
                    for m in range(n):
                        acc = acc + gamma[i][j][m] * coords[fiber_index(p, n, m, a)]
                    out[i][a][j] = acc
        return out

    return fn


def _phi_block(phi_metric, p, n):
    def fn(coords):
        return phi_metric.matrix(coords[p:p + n])

    return fn


def build_bsml(h_metric, phi_metric, p, n):
    """Product-metric space: g = phi(x), canonical connection."""
    g = MatrixMetricField(n, _phi_block(phi_metric, p, n))
    return MultiTimeSpace(p, n, h_metric, g, canonical_connection(h_metric, phi_metric, p, n))


def build_grgml(h_metric, sigma, phi_metric, p, n):
    """Conformally scaled space: g = exp(2 sigma(t, x, xdot)) phi(x)."""
    from . import dual

    phi_fn = _phi_block(phi_metric, p, n)

    def fn(coords):
        factor = dual.exp(2.0 * sigma(coords))
        return [[factor * v for v in row] for row in phi_fn(coords)]

    g = MatrixMetricField(n, fn)
    return MultiTimeSpace(p, n, h_metric, g, canonical_connection(h_metric, phi_metric, p, n))


def build_rgogml(h_metric, phi_metric, refractive_index, X, p, n):
    """Optical space: g = phi + (1 - 1/refractive_index) Y Y^T.

    Y_i = phi_im xdot^m_mu X^mu(t).  Invertibility of the rank-one update
    is monitored through the matrix determinant lemma factor
    1 + (1 - 1/n_r) Y phi^{-1} Y and fails loudly when it degenerates.
    """
    phi_fn = _phi_block(phi_metric, p, n)

    def fn(coords):
        t = coords[:p]
        phi = phi_fn(coords)
        nr = refractive_index(coords)
        if abs(scalar_value(nr)) < 1e-13:
            raise DomainError("refractive index vanishes")
        coef = 1.0 - 1.0 / nr
        xvals = [X[mu](t) for mu in range(p)]
        y = []
        for i in range(n):
            acc = 0.0
            for m in range(n):
                fiber_sum = 0.0
                for mu in range(p):
                    fiber_sum = fiber_sum + coords[fiber_index(p, n, m, mu)] * xvals[mu]
                acc = acc + phi[i][m] * fiber_sum
            y.append(acc)
        phinv = invert_symmetric(phi)
        lemma = 1.0 + coef * sum(
            phinv[i][j] * y[i] * y[j] for i in range(n) for j in range(n)
        )
        if abs(scalar_value(lemma)) < 1e-10:
            raise DegenerateMetricError(
                "rank-one optical update degenerates (determinant factor "
                f"{scalar_value(lemma):.3e})"
            )
        return [
            [phi[i][j] + coef * y[i] * y[j] for j in range(n)]
            for i in range(n)
        ]

    g = MatrixMetricField(n, fn)
    return MultiTimeSpace(p, n, h_metric, g, canonical_connection(h_metric, phi_metric, p, n))


def build_edml(h_metric, phi_metric, U, Phi, p, n):
    """Electrodynamic space: g = phi, connection corrected by the U-curl.

    N^(i)_(alpha)j = gamma^i_jm xdot^m_alpha
        + (h_{alpha mu} phi^{im}/4) (dU^(mu)_(m)/dx^j - dU^(mu)_(j)/dx^m).
    """
    g = MatrixMetricField(n, _phi_block(phi_metric, p, n))
    base_fn = canonical_connection(h_metric, phi_metric, p, n)

    def fn(coords):
        out = base_fn(coords)
        t = coords[:p]
        h = h_metric.matrix(t)
        phinv = invert_symmetric(phi_metric.matrix(coords[p:p + n]))
        # dU[m][mu][j] = dU^(mu)_(m)/dx^j by seeding the spatial part
        cj, ctx = seed(list(coords), seeds=range(p, p + n))
        dU = [
            [
                [promote(U[m][mu](cj), ctx).d(j) for j in range(n)]
                for mu in range(p)
            ]
            for m in range(n)
        ]
        for i in range(n):
            for a in range(p):
                for j in range(n):
                    corr = 0.0
                    for mu in range(p):
                        for m in range(n):
                            corr = corr + h[a][mu] * phinv[i][m] * (
                                dU[m][mu][j] - dU[j][mu][m]
                            ) / 4.0
                    out[i][a][j] = out[i][a][j] + corr
        return out

    return MultiTimeSpace(p, n, h_metric, g, fn)


# -- stock spatial metrics ----------------------------------------------------


def stock_metric(name, n, names, params=None):
    """Built-in spatial metrics: flat, polar (diag(1, x1^2)), conformal."""
    params = params or {}
    if name == "flat":
        rows = [["1" if j == 0 else "0" for j in range(n - i)] for i in range(n)]
        return MetricField.from_exprs(n, rows, names)
    if name == "polar":
        if n != 2:
            raise ScenarioError("polar metric requires n = 2")
        return MetricField.from_exprs(2, [["1", "0"], [f"{names[0]}^2"]], names)
    if name == "conformal":
        sigma = params.get("sigma")
        if sigma is None:
            raise ScenarioError("conformal metric needs a 'sigma' expression")
        rows = []
        for i in range(n):
            row = []
            for j in range(i, n):
                row.append(f"exp(2*({sigma}))" if i == j else "0")
            rows.append(row)
        return MetricField.from_exprs(n, rows, names)
    raise ScenarioError(f"unknown stock metric {name!r}")
