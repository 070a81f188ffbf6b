"""Valence tags, matrix fields, symmetric inversion and connection coefficients.

Tensors are nested lists.  Everything here is generic over the scalar type: entries may be plain
floats or jets from :mod:`geoplasma.dual`, so the same code paths serve
plain evaluation and derivative propagation.
"""

from __future__ import annotations

import enum
import functools

from . import _numpy as np
from . import expr as expr_mod
from ._numpy import ARRAY_TYPES
from .dual import Jet, branch, promote, scalar_value, seed
from .errors import BatchSplit, DegenerateMetricError, TensorError
from .tape import largest

MAX_DIM = 8


class Slot(enum.Enum):
    """Valence tag of one tensor index.

    Latin indices range over the spatial dimension n, greek indices over
    the temporal dimension p.  A jet-fiber pair (upper latin with lower
    greek, or the transpose) is represented as two adjacent elementary
    slots.
    """

    LU = "latin-up"
    LD = "latin-down"
    GU = "greek-up"
    GD = "greek-down"

    @property
    def latin(self):
        return self in (Slot.LU, Slot.LD)

    @property
    def up(self):
        return self in (Slot.LU, Slot.GU)


def invert_symmetric(matrix, point=None):
    """Invert a small symmetric matrix by Gauss-Jordan elimination.

    Works on generic scalar entries (derivatives of the inverse propagate
    through the elimination).  Pivots are compared on plain value parts;
    a pivot below 1e-13 of the largest input entry, or a NaN pivot, raises
    :class:`DegenerateMetricError`.  The lanes of a batch must agree on every pivot.
    """
    n = len(matrix)
    if n > MAX_DIM:
        raise TensorError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    a = [list(row) for row in matrix]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    sizes = [abs(scalar_value(x)) for row in a for x in row]
    batch = any(ARRAY_TYPES[type(v)] for v in sizes)  # finite lanes: max's bits
    scale = functools.reduce(np.maximum, sizes) if batch else largest(sizes)
    if branch(scale == 0.0):
        raise DegenerateMetricError("zero matrix is not invertible", point)
    threshold = 1e-13 * scale
    for col in range(n):
        # max() over the rows: the first of equal sizes wins
        pivot_row, size = col, abs(scalar_value(a[col][col]))
        for r in range(col + 1, n):
            if branch(abs(scalar_value(a[r][col])) > size):
                pivot_row, size = r, abs(scalar_value(a[r][col]))
        if not branch(size >= threshold):  # NaN-safe
            if batch:
                raise BatchSplit()  # the message formats each point's pivot
            raise DegenerateMetricError(
                f"metric is singular or near-singular (pivot {scalar_value(a[pivot_row][col]):.3e})",
                point,
            )
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = a[col][col]
        a[col] = [x / piv for x in a[col]]
        inv[col] = [x / piv for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if not isinstance(f, Jet) and branch(f == 0.0):
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def eval_jets(field, coords, ctx):
    """Evaluate a nested-list field and promote every leaf into ``ctx``.

    ``field(coords)`` may return a scalar or lists nested to any depth;
    callers pass e.g. a metric or ``em.H``.
    """

    def walk(node):
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        return promote(node, ctx)

    return walk(field(coords))


def christoffel_from(ginv, dg):
    """Connection coefficients from an inverse metric and metric derivatives.

    ``dg[k][i][j]`` holds the derivative of g_ij along direction k; the
    result G[i][j][k] = (1/2) g^{im} (dg[k][j][m] + dg[j][k][m] - dg[m][j][k])
    is symmetric in (j, k).  This one formula serves the spatial, temporal,
    horizontal and vertical connection blocks alike.
    """
    n = len(ginv)
    out = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = 0.0
                for m in range(n):
                    acc = acc + ginv[i][m] * (dg[k][j][m] + dg[j][k][m] - dg[m][j][k])
                acc = 0.5 * acc
                out[i][j][k] = acc
                out[i][k][j] = acc
    return out


def christoffel_of(metric, coords, seeds=None, point=None):
    """Christoffel symbols of a metric field along the seeded coordinates.

    Seeds ``coords`` (all of them, or the positions listed in ``seeds``, one
    per metric dimension), evaluates the metric as jets, inverts its values
    and applies :func:`christoffel_from`.  ``point`` is named in the error
    of a singular metric.
    """
    cj, ctx = seed(list(coords), seeds)
    g = eval_jets(metric, cj, ctx)
    ginv0 = invert_symmetric([[e.value for e in row] for row in g], point)
    n = len(g)
    dg = [[[g[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
    return christoffel_from(ginv0, dg)


def symmetric_field(dim, values):
    """The symmetric matrix field whose upper triangle ``values(coords)`` lists,
    entries (i, j), j >= i, row by row.  Symmetry is exact by construction."""

    def field(coords):
        vals = iter(values(coords))
        out = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                v = next(vals)
                out[i][j] = v
                out[j][i] = v
        return out

    return field


def antisymmetric_field(dim, values):
    """The antisymmetric matrix field whose strict upper triangle
    ``values(coords)`` lists, entries (i, j), j > i, row by row."""

    def field(coords):
        vals = iter(values(coords))
        out = [[0.0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                v = next(vals)
                out[i][j] = v
                out[j][i] = -v
        return out

    return field


def triangle_values(rows, names, label):
    """Compile triangle rows of expression strings into one field of their
    values; a non-finite entry is named ``<label> row i entry j`` (both
    counted from 1 within the row)."""
    trees = [expr_mod.parse(source) for row in rows for source in row]
    labels = [
        f"{label} row {i + 1} entry {j + 1}"
        for i, row in enumerate(rows) for j in range(len(row))
    ]
    return expr_mod.compile_field(trees, names, labels)


def metric_from_exprs(rows, names, label="metric"):
    """The symmetric field of upper-triangle rows of expression source strings."""
    dim = len(rows)
    if any(len(row) != dim - i for i, row in enumerate(rows)):
        raise TensorError("upper-triangle entries must have rows of length dim - i")
    return symmetric_field(dim, triangle_values(rows, names, label))


def scalar_field(source, names, label=None):
    """Compile an expression string into a field over a coordinate list.

    A non-finite result raises :class:`~geoplasma.errors.DomainError`
    naming ``label`` (default: the quoted source).
    """
    fn = expr_mod.compile_field(
        [expr_mod.parse(source)], names, [label or f"'{source}'"]
    )

    def field(coords):
        return fn(coords)[0]

    return field


def constant_field(value):
    return lambda coords: value


# -- small matrix helpers (generic scalars) ---------------------------------


def mat_vec(m, v):
    return [sum_product(row, v) for row in m]


def sum_product(xs, ys):
    acc = 0.0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def fiber_contraction(gamma, y):
    """Gamma[i][j][m] y^m, summed from 0.0 in m order: the canonical
    nonlinear connection's contraction of Christoffel symbols with a fiber
    direction."""
    return [[sum_product(row, y) for row in block] for block in gamma]


def quadratic_form(m, v, w):
    acc = 0.0
    for i, row in enumerate(m):
        for j, entry in enumerate(row):
            acc = acc + entry * v[i] * w[j]
    return acc
