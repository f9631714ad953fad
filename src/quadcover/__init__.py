"""Numerical verification of cotangent disc bundle compactifications.

The package realizes the explicit maps, two-forms, and Hamiltonian flows of
the compactification of T*S^n and T*RP^n into quadrics and projective spaces,
and certifies every computationally checkable identity among them by seeded
sampling, exact forward-mode differentials, and Gauss-Legendre quadrature.
"""

from .checks import (
    CheckReport,
    UsageError,
    VERIFIED_STATEMENTS,
    build_registry,
    emit_report,
    run_check,
    run_suite,
)
from .cotangent import (
    CotangentPoint,
    OffBundleError,
    antipode,
    even_rescale,
    even_rescale_inverse,
    sample_cosphere,
    sample_disc_bundle,
)
from .dynamics import (
    FlowResult,
    ZeroSectionError,
    flow_closed_form,
    flow_uneven_cosphere,
    rk4_integrate,
    scalar_action,
)
from .forms import (
    BranchLocusError,
    SmoothMap,
    TwoForm,
    fubini_study_form,
    integrate_surface,
    omega_r,
    pullback,
)
from .maps import (
    antipodal_cp1,
    ball_to_projective,
    branched_cover,
    cosphere_boundary,
    cotangent_to_quadric,
    deck,
    locus_classify,
    quadric_fiber,
    quadric_to_cotangent,
    segre_unitary,
)
from .numerics import derive_stream, gauss_legendre_2d
from .projective import (
    ProjectivePoint,
    proj_normalize,
    quadric_residual,
)

__version__ = "0.1.0"
