"""qforge: compile and simulate two-photon polarization mixed-state recipes."""

from .compilers import (
    FamilyParams,
    ResourceCount,
    bell_diagonal_split,
    compile_scheme1,
    compile_scheme2,
    compile_scheme3,
    compile_scheme4_bell_diagonal,
    recipe_cost,
    simulate_recipe,
)
from .elements import (
    DecohererSpec,
    SpdcSourceSpec,
    SpectralModel,
    WaveplateSpec,
    analytic_f,
    default_spectral_model,
    invert_f,
    spdc_pair_state,
    su2_to_waveplates,
    waveplate_unitary,
)
from .families import bell_diagonal, collins_gisin, family_d1, mems, mems_boundary_tangle, werner
from .qmath import (
    CanonicalDecomposition,
    canonical_decompose,
    concurrence,
    fidelity,
    linear_entropy,
    ppt_separable,
    purity,
    tangle,
    validate_density,
)
from .recipe_io import Recipe, RecipeBranch, SchemeIIPumpSplit
from .spectral import (
    DecohererStage,
    FrequencyGrid,
    JointSpectralState,
    LocalRotationStage,
    apply_decoherer,
    apply_local_unitary,
    lift,
    make_grid,
    simulate_chain,
    trace_to_polarization,
)
from .synth_pure import PureRecipe, solve_pure, verify_pure

__version__ = "0.1.0"
