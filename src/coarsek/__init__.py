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

from .chains import (
    AbelianGroup,
    BandedZChain,
    Chain0,
    Chain1,
    ChainError,
    banded_cycle_value,
    boundary,
    chain_from_json,
    chain_to_json,
    homology_finite,
    is_cycle,
    solve_boundary_finite,
    solve_boundary_on_z,
    uf_class_on_z,
    uniform_bound,
)
from .graphs import (
    BandedZGraph,
    Edge,
    GraphError,
    OrientedGraph,
    graph_from_json,
    graph_to_json,
)
from .k0_map import (
    BoundaryWitness,
    ExpandedGraph,
    ProjectionPair,
    boundary_witness,
    build_projection_pair,
    expand_graph,
    k0_signature,
    slot_ceiling,
    uniform_corner_holds,
)
from .k1_map import (
    CompressionResult,
    CycleUnitary,
    EdgeMatching,
    MatchingIndependenceReport,
    NonCycleError,
    canonical_matching,
    compress_to_uniform,
    constant_cycle_index,
    cycle_unitary,
    line_cycle_unitary,
    permuted_matching,
    verify_matching_independence,
)
from .operators import (
    BlockIndex,
    CopyEdge,
    MarginError,
    OperatorError,
    Ordinal,
    ProductBasis,
    SparseBlockOperator,
    Window,
    bilateral_shift,
    block_rank,
    dump_lines,
    index_pairing,
    is_unitary_on,
    operator_to_json,
    propagation,
)

__version__ = "0.1.0"
