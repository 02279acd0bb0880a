"""coarsek: exact-arithmetic maps from graph homology to K-theory classes
of Roe algebras, realized as partial permutation operators.

Degree 0: a 0-chain yields a pair of diagonal projections, boundaries get an
explicit partial-isometry witness.  Degree 1: a 1-cycle yields a permutation
unitary with finite propagation; on the integer line its class is recovered
as an integer index pairing on truncation windows, the net flow of moved
vectors across a cut.  Every operator is stored as a scalar 0 or 1 plus the
map of the columns it moves, and every verified statement is an exact
integer matrix identity.
"""

__version__ = "0.1.0"
