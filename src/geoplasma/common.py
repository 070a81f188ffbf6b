"""Pieces shared by the three plasma pipelines.

The Minkowski energy tensor of the electromagnetic field and the named
residual report have the same structure on the base manifold, on the
tangent bundle and on the jet space; only the metric and the covariant
derivatives differ.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

from .tensor_core import sum_product


def point_memo(builder):
    """Memoize a pure per-point builder at the last point it was called at.

    The key is the identity of each framework-object argument plus the exact
    bits (``float.hex``: -0.0 and 0.0 differ) of each coordinate argument, a
    list, tuple, array or point with ``.coords``.  Calls with coordinates
    that are not all plain floats (jets, numpy scalars) bypass the memo.
    One point is held, so memory stays flat; callers must not mutate results.
    """
    memo = {}

    @functools.wraps(builder, updated=())
    def cached(*args):
        key = []
        for arg in args:
            coords = getattr(arg, "coords", arg)
            if not isinstance(coords, (list, tuple, np.ndarray)):
                key.append(id(arg))
            elif all(type(c) is float for c in coords):
                key.append(tuple(map(float.hex, coords)))
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


class ResidualReport:
    """Named residual arrays for one evaluation point.

    Entries are float numpy arrays (scalars stored as 0-d arrays); the
    insertion order is the documented column order of the CSV output.
    """

    def __init__(self, point):
        self.point = tuple(float(c) for c in point)
        self.entries = OrderedDict()

    def add(self, name, value):
        self.entries[name] = np.asarray(value, dtype=float)
        return self

    def __getitem__(self, name):
        return self.entries[name]

    def names(self):
        return list(self.entries)

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
