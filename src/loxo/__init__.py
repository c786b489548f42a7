"""Geodesic and isometry toolkit for hyperbolic 3-manifold groups.

Core layers: Moebius isometries with trace classification and complex
lengths; ideal boundary geometry (points, lines, oriented circles, common
perpendiculars); half-turn factorizations and invariant planes for non-screw
pairs; word enumeration with merging, length spectra, and group-level plane
tests; simplicity certificates and cusp depth bounds; and a pipeline that
turns a generating set into a verdict with evidence.
"""

from .certification import (
    SimplicityReport,
    cusp_depth,
    max_parabolic_length_at_depth,
    simplicity_check,
)
from .enumeration import (
    ElementaryResult,
    FuchsianResult,
    GroupPresentation,
    GroupWord,
    MatrixStore,
    SpectrumEntry,
    ThricePuncturedSphereEvidence,
    elementary_test,
    enumerate_ball,
    fuchsian_test,
    jorgensen_warnings,
    shortest,
    shortest_screw,
    spectrum,
    thrice_punctured_test,
)
from .errors import (
    AmbiguousClass,
    BudgetExceeded,
    DegeneratePoints,
    DuplicateLabel,
    GroupFileError,
    IdenticalLines,
    IdentityGenerator,
    IdentityInput,
    InvalidChoice,
    LoxoError,
    NearSingular,
    NotLoxodromic,
    NoValidSharedAxis,
    OutOfRange,
    ParseError,
    PlaneVerificationFailed,
    ScrewInput,
    SharedEndpoint,
    SharedFixedPoint,
    SingularGenerator,
    UndefinedLength,
)
from .geometry import (
    BoundaryCircle,
    GeodesicLine,
    GeodesicSeparation,
    axis_of,
    circle_through,
    common_perpendicular,
    cross_ratio,
    geodesic_separation,
    halfturn_matrix,
    on_circle,
    preserves_circle,
    same_circle,
    same_line,
    same_oriented_circle,
    shares_endpoint,
    standardizing_map,
    transform_circle,
    transform_line,
)
from .halfturn import (
    HalfTurn,
    SharedFactorization,
    decompose,
    default_free_choice,
    invariant_plane,
    shared_factorization,
)
from .isometry import (
    BoundaryPoint,
    ComplexLength,
    MoebiusIsometry,
    apply_boundary,
    chordal_distance,
    classify,
    complex_length,
    fixed_points,
    is_non_screw,
    normalize,
    same_point,
)
from .pipeline import (
    Elementary,
    Inconclusive,
    ManifoldReport,
    RunConfig,
    SimpleGeodesicFound,
    classify_manifold,
    emit_report,
    load_group_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
