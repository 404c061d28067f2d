"""Random walks on finite motion groups: spectra, classification, simulation.

The package works with semidirect products A x| K where A = (Z_n)^d and K
is a finite point group acting by integer matrices mod n. It provides exact
Fourier block decompositions, a numeric check of the spectral radius
formula, a six-condition mixing classifier with empirical cross-checks,
Monte Carlo path sampling, and an exact-arithmetic defect computation for
a distinguished lattice walk.
"""
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _dist_version

try:
    __version__ = _dist_version("artifact")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "0.0.0+local"

from .groups import (
    AbelianGroup,
    Character,
    GElem,
    MotionGroup,
    build_motion_group,
    dual_action,
    dual_orbits,
)
from .families import (
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from .measures import (
    GroupMeasure,
    delta,
    from_weights,
    require_probability,
    tv_norm,
    uniform,
    uniform_on,
)
from .reps import fourier
from .spectral import (
    SpectralReport,
    gelfand_radius,
    op_norm,
    spectral_radius,
    verify_srf,
)
from .classify import (
    Verdict,
    adapted,
    check_s,
    check_sr,
    cross_check,
    empirical_ergodic,
    empirical_mixing,
    empirical_weak_mixing,
    strictly_aperiodic_check,
)
from .simulate import (
    empirical_distributions,
    exact_powers,
    sample_path,
    tv_to_uniform,
)
from .rosenblatt import (
    QSqrt5,
    ZElem,
    defect_norm,
    eigen_parameter,
    rosenblatt_measure,
)
from .suite import acceptance_suite

__all__ = [
    "__version__",
    "AbelianGroup",
    "Character",
    "GElem",
    "MotionGroup",
    "build_motion_group",
    "dual_action",
    "dual_orbits",
    "negation_group",
    "rotation_group",
    "scaling_group",
    "swap_group",
    "trivial_group",
    "GroupMeasure",
    "delta",
    "from_weights",
    "require_probability",
    "tv_norm",
    "uniform",
    "uniform_on",
    "fourier",
    "SpectralReport",
    "gelfand_radius",
    "op_norm",
    "spectral_radius",
    "verify_srf",
    "Verdict",
    "adapted",
    "check_s",
    "check_sr",
    "cross_check",
    "empirical_ergodic",
    "empirical_mixing",
    "empirical_weak_mixing",
    "strictly_aperiodic_check",
    "empirical_distributions",
    "exact_powers",
    "sample_path",
    "tv_to_uniform",
    "QSqrt5",
    "ZElem",
    "defect_norm",
    "eigen_parameter",
    "rosenblatt_measure",
    "acceptance_suite",
]
