"""Principal Vietoris-Rips persistence sets of metric spaces.

Sampling engine for the degree-k persistence of random n-point subsets
(O(n^2) at n = 2k+2), a brute-force persistent-homology oracle,
closed-form region and density checks for circles / spheres /
constant-curvature surfaces, Gromov-Hausdorff lower bounds from
diagram-set Hausdorff distances, and cycle recovery in admissible metric
graphs from persistence corners.
"""
from .diagram_metrics import (
    MatchingCost,
    bottleneck,
    bottleneck_distance,
    circle_vs_sphere_crosspolytope_bound,
    compare_regions,
    gh_lower_bound,
    hausdorff_bottleneck,
    hausdorff_bottleneck_points,
)
from .engine import (
    FiniteSpace,
    Histogram2D,
    PersistenceSetSample,
    StepCDF,
    coordinate_cdf,
    density_l1_error,
    histogram,
    sample_persistence_set,
    two_point_measure,
)
from .graph_analysis import (
    CornerReport,
    SplitDecomposition,
    detect_corners,
    split_decompose,
    tight_span_persistence,
)
from .graphs import (
    GraphPoint,
    MetricGraph,
    build_graph,
    circle_with_flares_figure,
    cycle_with_flares,
    glued_cycles,
    point_distance,
    sample_graph,
    tree_of_cycles,
    wedge_of_circles,
)
from .metric import DistanceMatrix, MetricStats, restrict, stats, validate
from .oracle import Diagram, Filtration, build_vr_filtration, reduce, vr_diagram, vr_diagrams
from .principal import (
    PointExtremes,
    PrincipalDiagram,
    point_extremes,
    principal_diagram,
    ptolemy_slack,
)
from .regions import (
    CircleEvenK,
    CircleOddK,
    EuclideanCircle,
    EuclideanSphereM,
    ModelSurfaceRegion,
    PtolemaicEnvelope,
    boundary_points,
    circle_density,
    contains,
    corner_point,
)
from .spaces import (
    CircleGeodesic,
    EuclideanDisk,
    ModelSurface,
    SphereEuclidean,
    SphereGeodesic,
    TorusL2,
    distance,
    distance_matrix,
    sample,
)

__version__ = "0.1.0"
