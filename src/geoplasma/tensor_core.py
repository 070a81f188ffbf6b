"""Dense small-dimension tensors, metric fields and field differentiation.

Everything here is generic over the scalar type: entries may be plain
floats or jets from :mod:`geoplasma.dual`, so the same code paths serve
plain evaluation and derivative propagation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product

from . import expr as expr_mod
from .dual import Jet, scalar_value, seed
from .errors import DegenerateMetricError, TensorError

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


class Tensor:
    """Dense tensor with per-slot valence tags and bounds-checked access."""

    __slots__ = ("slots", "extents", "data")

    def __init__(self, slots, extents, data):
        slots = tuple(slots)
        extents = tuple(extents)
        if len(slots) != len(extents):
            raise TensorError("one extent per slot required")
        size = 1
        for e in extents:
            if e < 1 or e > MAX_DIM:
                raise TensorError(f"extent {e} outside 1..{MAX_DIM}")
            size *= e
        if len(data) != size:
            raise TensorError(f"expected {size} entries, got {len(data)}")
        self.slots = slots
        self.extents = extents
        self.data = data

    @classmethod
    def zeros(cls, slots, extents):
        size = 1
        for e in extents:
            size *= e
        return cls(slots, extents, [0.0] * size)

    @classmethod
    def from_nested(cls, slots, nested):
        extents = []
        probe = nested
        for _ in slots:
            extents.append(len(probe))
            probe = probe[0]
        data = []

        def walk(node, depth):
            if depth == len(extents):
                data.append(node)
                return
            for child in node:
                walk(child, depth + 1)

        walk(nested, 0)
        return cls(slots, extents, data)

    def _offset(self, idx):
        if len(idx) != len(self.extents):
            raise TensorError(f"rank {len(self.extents)} tensor indexed with {len(idx)} indices")
        off = 0
        for i, e in zip(idx, self.extents):
            if not 0 <= i < e:
                raise TensorError(f"index {idx} out of bounds for extents {self.extents}")
            off = off * e + i
        return off

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.data[self._offset(idx)]

    def __setitem__(self, idx, value):
        if isinstance(idx, int):
            idx = (idx,)
        self.data[self._offset(idx)] = value

    def indices(self):
        return product(*map(range, self.extents))

    def map(self, fn):
        return Tensor(self.slots, self.extents, [fn(x) for x in self.data])

    def max_abs(self):
        return max((abs(scalar_value(x)) for x in self.data), default=0.0)

    def tolist(self):
        def build(prefix, axis):
            if axis == len(self.extents):
                return scalar_value(self[tuple(prefix)])
            return [build(prefix + [i], axis + 1) for i in range(self.extents[axis])]

        return build([], 0)

    def __repr__(self):
        return f"Tensor(slots={[s.name for s in self.slots]}, extents={self.extents})"


@dataclass(frozen=True)
class TensorField:
    """A tensor-valued field: slots plus an evaluator over coordinates.

    The evaluator must accept coordinates whose entries are jets and
    return a :class:`Tensor` of matching slots.
    """

    slots: tuple
    fn: object

    def __call__(self, coords):
        return self.fn(coords)


def invert_symmetric(matrix, point=None):
    """Invert a small symmetric matrix by Gauss-Jordan elimination.

    Works on generic scalar entries (derivatives of the inverse propagate
    through the elimination).  Pivots are compared on plain value parts;
    a pivot below 1e-13 of the largest input entry, or a NaN pivot, raises
    :class:`DegenerateMetricError`.
    """
    n = len(matrix)
    if n > MAX_DIM:
        raise TensorError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    a = [list(row) for row in matrix]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = max((abs(scalar_value(x)) for row in a for x in row), default=0.0)
    if scale == 0.0:
        raise DegenerateMetricError("zero matrix is not invertible", point)
    threshold = 1e-13 * scale
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(scalar_value(a[r][col])))
        if not abs(scalar_value(a[pivot_row][col])) >= threshold:  # NaN-safe
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
            if isinstance(f, (int, float)) and f == 0.0:
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def field_jet(field, coords, seeds=None, order=1):
    """Evaluate a scalar field with seeded coordinates.

    Returns the resulting :class:`~geoplasma.dual.Jet` (value plus all
    mixed partials up to ``order`` with respect to the seeded coordinate
    positions).  Constant fields are promoted to jets so the derivative
    accessors always work.
    """
    coords_j, ctx = seed(list(coords), seeds, order)
    out = field(coords_j)
    if not isinstance(out, Jet) or out.ctx is not ctx:
        out = Jet.constant(ctx, out)
    return out


def eval_matrix_jets(matrix_field, coords, ctx):
    """Evaluate a matrix-valued field and promote entries into ``ctx``."""
    from .dual import promote

    return [[promote(v, ctx) for v in row] for row in matrix_field.matrix(coords)]


def eval_tensor_jets(tensor_field, coords, ctx):
    """Evaluate a tensor field and promote every component into ``ctx``."""
    from .dual import promote

    t = tensor_field(coords)
    return Tensor(t.slots, t.extents, [promote(v, ctx) for v in t.data])


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
    g = eval_matrix_jets(metric, cj, ctx)
    ginv0 = invert_symmetric([[e.value for e in row] for row in g], point)
    n = len(g)
    dg = [[[g[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
    return christoffel_from(ginv0, dg)


class MetricField:
    """Symmetric matrix-valued field with upper-triangle storage.

    ``entries[i][j - i]`` (j >= i) is a callable over the coordinate list.
    Symmetry is exact by construction.
    """

    def __init__(self, dim, entries):
        if dim > MAX_DIM:
            raise TensorError(f"dimension {dim} exceeds supported maximum {MAX_DIM}")
        if len(entries) != dim or any(len(row) != dim - i for i, row in enumerate(entries)):
            raise TensorError("upper-triangle entries must have rows of length dim - i")
        self.dim = dim
        self.entries = entries

    def matrix(self, coords):
        n = self.dim
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = self.entries[i][j - i](coords)
                out[i][j] = v
                out[j][i] = v
        return out

    @classmethod
    def from_exprs(cls, dim, rows, names):
        """Build from upper-triangle rows of expression source strings."""
        entries = []
        for i in range(dim):
            row = []
            for j in range(dim - i):
                row.append(scalar_field(rows[i][j], names))
            entries.append(row)
        return cls(dim, entries)


class MatrixMetricField:
    """Symmetric metric field backed by one whole-matrix evaluator.

    Used for derived metrics (conformal factors, rank-one updates,
    second fiber derivatives of a fundamental function) where computing
    entries separately would repeat work.  The evaluator must return a
    symmetric square list-of-lists and accept jet coordinates.
    """

    def __init__(self, dim, matrix_fn):
        if dim > MAX_DIM:
            raise TensorError(f"dimension {dim} exceeds supported maximum {MAX_DIM}")
        self.dim = dim
        self._matrix_fn = matrix_fn

    def matrix(self, coords):
        return self._matrix_fn(coords)


class TwoFormField:
    """Antisymmetric matrix-valued field, strictly-upper-triangle storage."""

    def __init__(self, dim, entries):
        if len(entries) != dim or any(len(row) != dim - i - 1 for i, row in enumerate(entries)):
            raise TensorError("strict-upper entries must have rows of length dim - i - 1")
        self.dim = dim
        self.entries = entries

    def matrix(self, coords):
        n = self.dim
        out = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = self.entries[i][j - i - 1](coords)
                out[i][j] = v
                out[j][i] = -v
        return out

    def negated(self):
        neg = [
            [(lambda f: (lambda coords: -f(coords)))(fn) for fn in row]
            for row in self.entries
        ]
        return TwoFormField(self.dim, neg)

    @classmethod
    def zero(cls, dim):
        return cls(dim, [[(lambda coords: 0.0)] * (dim - i - 1) for i in range(dim)])

    @classmethod
    def from_exprs(cls, dim, rows, names):
        entries = []
        for i in range(dim):
            row = []
            for j in range(dim - i - 1):
                row.append(scalar_field(rows[i][j], names))
            entries.append(row)
        return cls(dim, entries)


def scalar_field(source, names):
    """Compile an expression string into a field over a coordinate list."""
    tree = expr_mod.parse(source)
    names = tuple(names)

    def field(coords):
        return expr_mod.evaluate(tree, dict(zip(names, coords)))

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


def quadratic_form(m, v, w):
    acc = 0.0
    for i, row in enumerate(m):
        for j, entry in enumerate(row):
            acc = acc + entry * v[i] * w[j]
    return acc
