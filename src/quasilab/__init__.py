"""quasilab: cut-and-project point sets, bounded remainder sets, and
finite-section diagnostics for exponential systems, over exact
user-declared algebras."""

from .algebra import (
    AlgebraSpec,
    QValue,
    admissible_decomposition,
    exact_det,
    module_membership,
    parse_algebra,
)
from .dynamics import (
    bmo_stat,
    brs_empirical,
    discrepancy_trace,
    orbit_hits,
)
from .errors import (
    AlgebraMismatchError,
    PreconditionError,
    QuasilabError,
    SearchExhaustedError,
    SignUndecidableError,
)
from .lattice import (
    Lattice,
    make_special_lattice,
    reduce_to_special,
)
from .modelset import (
    PointSet,
    cut_and_project,
    density_estimate,
    dual_model_points,
    periodic_dual,
    periodic_points,
    separation,
    sequence_points,
    special_quasicrystal,
)
from .regions import (
    EquidecompCertificate,
    Piece,
    RegionSet,
    brs_parallelepiped,
    construct_brs_between,
    ft_indicator,
    interval,
    make_certificate,
    multiplicity,
    parse_region_literal,
    realize_measure,
    union,
    verify_equidecomposition,
)
from .riesz import (
    avdonin_check,
    duality_experiment,
    enumerate_blocks,
    extreme_eigs,
    gram_matrix,
    riesz_bound_trace,
)

__version__ = "0.1.0"
