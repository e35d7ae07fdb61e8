"""qforge: compile and simulate two-photon polarization mixed-state recipes.

The namespace is lazy: `import qforge` loads no layer, and a name below
loads its layer on first use (`qforge.fidelity` loads qmath, and
`qforge.compilers` the compiler stack).  `recipe_cost` and `ResourceCount`
live in recipe_io, next to the Recipe they count, and only there; so do
the records a recipe holds (`SpectralModel`, `SpdcSourceSpec` and the two
stages), which load no numpy.
"""

from importlib import import_module

_EXPORTS = {
    "compilers": "compile_scheme1 compile_scheme2 compile_scheme3 compile_scheme4_bell_diagonal "
                 "compile_target simulate_recipe",
    "elements": "WaveplateSpec analytic_f default_spectral_model invert_f spdc_pair_state "
                "su2_to_waveplates waveplate_unitary",
    "families": "FamilyParams bell_diagonal collins_gisin family_d1 mems mems_boundary_tangle "
                "werner",
    "qmath": "CanonicalDecomposition canonical_decompose concurrence fidelity linear_entropy "
             "purity tangle validate_density",
    "recipe_io": "DecohererStage LocalRotationStage Recipe RecipeBranch ResourceCount "
                 "SpdcSourceSpec SpectralModel pump_splits recipe_cost",
    "spectral": "FrequencyGrid make_grid simulate_chain",
    "synth_pure": "PureRecipe solve_pure",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
_LAYERS = (*_EXPORTS, "cli", "errors", "matrix_io")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
