"""gptlab: exact polyhedral analysis of general probabilistic theories.

Models finite-dimensional theories as pairs of rational polyhedral cones
and decides, with zero floating point, whether they admit noncontextual
ontological models: simpliciality classification, same-dimension simplex
embedding, constructive contextuality witnesses, and classicality of bonus
measurements and states.
"""

from .catalog import bundled_names, get as bundled
from .cones import (
    Cone,
    MembershipCertificate,
    cone_from_facets,
    cone_from_rays,
    dual_cone,
    is_simplicial,
    member_cone,
)
from .contextuality import (
    ContextualityVerdict,
    IndistinguishabilityWitness,
    NonUniqueDecomposition,
    OntModel,
    SubtheoryRejected,
    build_ncom,
    classify,
    decomposition_witness,
    embed_exact_dim,
    embed_lp,
    indistinguishability_witness,
    nonunique_decomposition,
    verify_ncom,
)
from .errors import (
    DimensionMismatch,
    GptLabError,
    InputError,
    InternalCheckError,
    TheoryConsistencyError,
)
from .linalg import (
    Mat,
    Vec,
    dual_basis,
    inner,
    mat,
    null_space,
    rank,
    vec,
)
from .resources import ResourceVerdict, classify_bonus, extend_theory
from .theory import (
    FIX_EFFECTS,
    FIX_STATES,
    BonusElement,
    Gpt,
    ProbabilityTable,
    Pvvm,
    build_gpt,
    complete,
    min_model_dimension,
    no_restriction_check,
    nonrefinable_effects,
    probability,
    probability_table,
    pure_states,
    theory_table,
    validate,
)
from .theoryfile import parse_path, parse_text, serialize

__version__ = "0.1.0"
