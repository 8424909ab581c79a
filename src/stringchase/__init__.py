"""stringchase: a combinatorial fixed-point solver on the unit cube.

Grid points of {0,...,m}^n are labeled from a user map; fully labeled
strings of grid points certify approximate fixed points, found either by
exhaustive enumeration or by door-in/door-out path following, and refined
by shrinking the grid until a residual tolerance is met.
"""

__version__ = "0.1.0"

from .grid import (
    BoundaryFace,
    GridPoint,
    GridSpec,
    StringK,
    enumerate_strings,
    face_vertices,
    lift,
    pivot,
    string_count,
    vertices,
)
from .labeling import (
    Labeling,
    MapEvaluationFailed,
    MapFn,
    count_fully_labeled_faces,
    is_fully_labeled,
    labels_of,
)
from .functions import (
    ArityError,
    ComponentCountMismatch,
    ExprSyntaxError,
    IndexOutOfRange,
    MapParseError,
    MapSpec,
    UnknownBuiltin,
    UnknownIdentifier,
    builtin,
    parse,
)
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    LabelingInvalid,
    LevelParity,
    ParityReport,
    PathTrace,
    StepLimitExceeded,
    TraceInvalid,
    TraceStep,
    exhaustive_fully_labeled,
    parity_check,
    path_follow,
    verify_trace,
)
from .solver import (
    Certificate,
    ConfigInvalid,
    ResolutionRecord,
    SolveConfig,
    SolveReport,
    residual,
    select_witness,
    solve,
)
