"""Numerical tolerances of the package, in one place.

Each threshold is relative to the quantity its comment names.
"""

# moment residual (max norm) every constructed rule must meet
TOL_MOM = 1e-8
# after a removal, a weight at or below this fraction of the largest is zero
TOL_ZERO_FACTOR = 1e-13
# null vector residual ||V c||_2, relative to ||V||_F
TOL_NULL = 1e-10
# fast-path residual, relative to max(1, ||[V, col]||_F); tighter than
# TOL_NULL so that accumulated update drift never approaches it
TOL_FAST = 1e-12
# null vector entries below this fraction of the largest are sign noise
TOL_LEAD = 1e-12
# a column exchange refactorizes when its pivot is below this fraction of
# max(1, max |z|)
TOL_PIVOT = 1e-8
# margin by which a speculated step must win its ratio test and keep its
# weights above the drop threshold; closer calls take the scalar step
TOL_NEAR_TIE = 1e-9
# removal vertices: solve residual and most negative weight, relative to
# the sum of the weights (the samples consumed, for the engine's counts)
TOL_VERTEX_RESID = 1e-10
TOL_VERTEX_NEG = 1e-11
