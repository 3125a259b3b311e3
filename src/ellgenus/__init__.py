"""ellgenus: exact chi_y-genus computations for elliptic fibrations.

The engine pushes the chi_y (Hirzebruch) class of a fibration Y -> B down
to the base along the ambient projective bundle, producing a genus factor
Q with push(H_y(Y)) = Q * H_y(B), and assembles the generating series
chi(t, y) whose (t^k, y^q) coefficient integrates to chi_q over any base
of dimension k.  All arithmetic is exact rational; truncation orders are
explicit everywhere and silently wrong output is treated as a bug class
of its own (under-truncation raises).
"""

from .charclasses import (
    RootForm,
    chi_y_log_coefficients,
    hadamard_apply,
    hirzebruch_class,
    lambda_y_factor,
    power_sum_series,
    power_sums_from_chern,
    todd_factor,
)
from .fibrations import (
    CATALOG,
    FAMILIES,
    FibrationSpec,
    catalog_spec,
    closed_form_q,
    closed_form_text,
    derived_q,
    fiber_integrand,
    p_polynomial,
    p_polynomials,
    p_table_reference,
    pushforward_class,
)
from .genseries import (
    BaseSpec,
    MissingIntersectionError,
    VerificationError,
    chi_q,
    chi_series,
    chi_values,
    euler_series_e8,
    integrate,
)
from .poly import Poly
from .pushforward import (
    BundleSpec,
    derivative_pushforward_d5,
    pushforward,
    segre_series,
)
from .series import (
    NotAUnitError,
    TruncationDeficitError,
    TruncationMismatchError,
    WSeries,
    mono_from_dict,
    mono_weight,
    var_weight,
)

__version__ = "0.1.0"

__all__ = [
    "BaseSpec",
    "BundleSpec",
    "CATALOG",
    "FAMILIES",
    "FibrationSpec",
    "MissingIntersectionError",
    "NotAUnitError",
    "Poly",
    "RootForm",
    "TruncationDeficitError",
    "TruncationMismatchError",
    "VerificationError",
    "WSeries",
    "catalog_spec",
    "chi_q",
    "chi_series",
    "chi_values",
    "chi_y_log_coefficients",
    "closed_form_q",
    "closed_form_text",
    "derivative_pushforward_d5",
    "derived_q",
    "euler_series_e8",
    "fiber_integrand",
    "hadamard_apply",
    "hirzebruch_class",
    "integrate",
    "lambda_y_factor",
    "mono_from_dict",
    "mono_weight",
    "p_polynomial",
    "p_polynomials",
    "p_table_reference",
    "power_sum_series",
    "power_sums_from_chern",
    "pushforward",
    "pushforward_class",
    "run_suites",
    "segre_series",
    "todd_factor",
    "var_weight",
    "__version__",
]


def __getattr__(name):
    """``run_suites``, from ``verify``, which loads on first use: a start that
    runs no suite does not compile it."""
    if name == "run_suites":
        from .verify import run_suites

        return run_suites
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), "run_suites"})
