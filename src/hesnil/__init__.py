"""Exact arithmetic for Hessian-nilpotent polynomials and their inversion pairs.

Everything is computed over the Gaussian rationals; there is no floating
point anywhere.  The public surface re-exports the polynomial core, the
differential-operator calculus, the nilpotency criteria, the deformed
inversion pairs, the isotropic generator constructions, and the vanishing
experiment harness.
"""

from types import ModuleType as _ModuleType

from .gaussrat import GaussianRational, gr
from .poly import Poly, exp_truncated, format_poly, parse
from .tgraded import TGraded, compose_poly, exp_tgraded
from .diffops import (
    PolyMatrix,
    PolyVector,
    apply_D,
    compositions,
    grad,
    grad_pair,
    hessian,
    jacobian,
    jacobian_det,
    kfactorial_fD_identity,
    laplacian,
    laplacian_iter,
    laplacian_product_expansion,
    leibniz_identity_check,
    mixed_partial_pair,
    multinomial,
    partial,
    partial_multi,
    poly_det,
    sigma_squared,
)
from .nilpotency import CriterionMismatchError, HNReport, is_hn, laplacian_powers, trace_powers
from .inversion import (
    DeformedPair,
    HNRequiredError,
    OrderViolationError,
    binomial_identity_check,
    burgers_residual,
    compose_check,
    deg_t,
    exp_formula_check,
    exp_tilde_check,
    first_vanishing_index,
    heat_residual,
    higher_dt_power_check,
    invert_closed,
    invert_fixed_point,
    invert_general,
    invert_hn,
    pair_from_fixed_point,
    potential_from_gradient,
    power_flow_check,
    qt_power,
)
from .generators import (
    GeneratorTheoremError,
    IsotropicSet,
    IsotropyViolation,
    OrthogonalityViolation,
    PsiData,
    bilinear,
    crit2_check,
    linear_form,
    pg_construction,
    ph_construction,
    psi_data,
    sample_isotropic,
    scalar_det,
    ug_construction,
    w_construction,
    w_construction_unchecked,
    w_tilde_construction,
)
from .vanishing import (
    ConfigError,
    ExperimentConfig,
    TheoremCheckError,
    VanishingReport,
    alpha_bound,
    build_member,
    emit_report,
    isotropy_check,
    load_report_json,
    pd_qt_check,
    render_report,
    run_vanishing_full,
)

# every public name imported above; the submodules bound as a side effect are not
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
