"""sepkit: a solver and verification lab for the balanced-separator relaxation
family, its concave reformulation, and projection rounding."""

__version__ = "0.1.0"

from .graphs import (
    BRUTE_FORCE_CAP,
    CapExceededError,
    Cut,
    Graph,
    GraphParseError,
    InfeasibleBalanceError,
    balanced_size_range,
    cut_size,
    dump_graph,
    exact_balanced_separator,
    is_c_balanced,
    load_dimacs,
    load_graph,
)
from .embeddings import (
    Embedding,
    FeasibilityReport,
    GramForm,
    NotPsdError,
    RelaxationParams,
    ZForm,
    check_feasibility,
    check_feasibility_z,
    cut_to_embedding,
    embedding_from_gram,
    gram_from_embedding,
    gram_from_z,
    objective,
    objective_z,
    z_from_gram,
    zform_spread_requirement,
)
from .sdp import SolveReport, solve_sdp
from .concave import (
    ConcaveOptions,
    check_concavity,
    grid_oracle_n3,
    hessian_f,
    hessian_quadratic_form,
    solve_concave,
    solve_relaxation,
)
from .corpus import solve_corpus
from .rounding import (
    PipelineOptions,
    PipelineReport,
    RoundingParams,
    SeparatedSets,
    SetFindResult,
    check_separated,
    delta_target,
    gaussian_projection_test,
    modified_set_find,
    pipeline,
    produce_cut,
)
from .solver_core import NonconvergedError
