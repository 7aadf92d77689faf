"""Exact enumeration of lozenge tilings of dented hexagons with barriers.

Two independent engines (brute-force matching enumeration and closed-form
axis-cut summation), exact q-weighted analogs, closed-form product
formulas, and a verification harness for the shuffling identities.
"""

from .engines import (count_axis, count_brute, enumerate_tilings,
                      qcount_axis, qcount_brute)
from .exactnum import QPoly, QRatio
from .formulas import (ShuffleInstance, asym_rhs, clp_q_dents, delta,
                       delta_q, gen_shuffle_rhs, pp, pp_q, q_shuffle_rhs,
                       schur_ones, shuffle_rhs)
from .lattice import (ClusterSpec, TriangularRegion, ValidatedSpec,
                      build_region, clusters_to_spec, make_spec,
                      reflect_positions, spec_from_json_dict)

__version__ = "0.1.0"

__all__ = [
    "QPoly", "QRatio",
    "ValidatedSpec", "ClusterSpec", "TriangularRegion", "ShuffleInstance",
    "make_spec", "spec_from_json_dict", "build_region", "clusters_to_spec",
    "reflect_positions",
    "count_brute", "qcount_brute", "count_axis", "qcount_axis",
    "enumerate_tilings",
    "pp", "pp_q", "clp_q_dents", "delta", "delta_q",
    "schur_ones", "shuffle_rhs", "gen_shuffle_rhs", "q_shuffle_rhs",
    "asym_rhs",
    "__version__",
]
