"""Point-line configurations, multiscale incidence statistics and triangle
search in the unit cube."""

__version__ = "0.1.0"

from .configurations import (
    PointLineConfiguration,
    PointLinePair,
    generate_bush,
    generate_erdos_parabola,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
    make_config,
    min_config_distance,
    rescale_config,
    slab_restriction,
)
from .geometry import (
    Box,
    Line,
    covering_number,
    line_box_chord,
    line_metric,
    point_line_distance,
)
from .concentration import (
    ConfigMetrics,
    HypothesisViolation,
    KatzTaoFit,
    UniformityCertificate,
    katz_tao_fit,
    m_config,
    m_lines,
    m_points,
    plane_reduction_check,
    uniformize,
)
from .incidence import (
    MultiscaleReport,
    double_count_check,
    dyadic_scan,
    incidence_count,
    initial_estimate_check,
    normalized_incidence,
    rhs_basic,
    rhs_direction_capped,
    rhs_refined,
    rhs_wellspaced,
)
from .kernels import BumpProfile, bump_profile
from .search import AnnealSchedule, ExponentFit, anneal_max_distance, \
    anneal_max_triangle, exponent_estimate
from .triangles import (
    TriangleWitness,
    greedy_close_pairs,
    min_triangle_brute,
    min_triangle_fast,
    triangle_via_pointline,
)
from .tubes import (
    Shading,
    Tube2D,
    Tube3D,
    TwoEndsResult,
    check_planar_brush,
    check_space_brush,
    generate_katz_tao_tubes,
    shading_union_volume,
    two_ends_decompose,
)
