"""Multi-access coded caching built on cross resolvable block designs."""

from .designs import (
    Design,
    DesignReport,
    PointBudgetError,
    construct_mcrd,
    verify_mcrd,
)
from .topology import (
    GenerationError,
    MatchingError,
    Topology,
    TopologyReport,
    canonical_topology,
    count_topologies,
    extract_matchings,
    random_topology,
    validate,
)
from .engine import (
    Placement,
    SchemeParams,
    SimulationReport,
    achievable_rate,
    check_payloads,
    decode,
    deliver,
    place,
    simulate,
    subfile_bytes,
)
from .analysis import (
    ApplicabilityError,
    Curve,
    TableRow,
    comparison_table,
    envelope,
    our_corners,
    our_envelope,
    rival_corner,
    rival_corners,
    rival_envelope,
)

__version__ = "0.1.0"
