"""Numerical tensor calculus for relativistic plasma flows.

Three pipelines share one differentiable-scalar engine:

* a semi-Riemannian pipeline on a spatial manifold (Christoffel symbols,
  Levi-Civita derivatives, Minkowski energy tensor, conservation and
  Euler residuals, stream-line integration),
* a generalized-Lagrange pipeline on the tangent bundle (Cartan
  connection, horizontal/vertical derivatives and residual channels,
  stream-line equations),
* a multi-time pipeline on the first jet space of maps from a temporal
  manifold (temporal/spatial/vertical covariant derivatives, multi-time
  residual channels, stream-sheet PDE residuals).

Fields are defined either as parsed expressions in a small closed-form
language or as plain Python callables; all partial derivatives are
obtained by first-order forward-mode automatic differentiation (a value
and one gradient slot per seed of one seeding).
"""

__version__ = "0.1.0"
