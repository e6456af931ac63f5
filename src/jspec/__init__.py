"""Spectral sets over Euclidean Jordan algebras, made executable.

Eigenvalue maps and Jordan frames, automorphism-orbit paths, constructive
connectivity witnesses for spectral sets, spectral-cone membership, exact
ranges of linear functionals over eigenvalue orbits, and verification of
direct-sum cone certificates.
"""

from .algebra import (
    Algebra,
    ComplexHermitian,
    Element,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    add_elements,
    coordinate_algebra,
    distance,
    element_from_herm,
    element_from_spin,
    element_from_sym,
    herm_matrix,
    inner_product,
    isometric_coords,
    join_product,
    jordan_product,
    norm,
    random_element,
    scale_element,
    spin_parts,
    split_product,
    sym_matrix,
    trace,
    unit_element,
)
from .errors import (
    AlgebraMismatchError,
    InfeasiblePathError,
    InvalidFrameError,
    JspecError,
    MembershipError,
    NumericError,
    OrbitMismatchError,
    UnsupportedAlgebraError,
)
from .orbits import (
    Automorphism,
    GPath,
    PathPolyline,
    apply_automorphism,
    frame_transport,
    g_path,
    orbit_path,
    orbit_sample,
    random_g_automorphism,
)
from .permsets import (
    PermSet,
    make_finite_orbit,
    make_rearrangement_cone,
    make_trace_halfspace,
    make_trace_norm_cone,
    pointed_sample_check,
)
from .spectral import (
    JordanFrame,
    canonical_frame,
    compose_theta,
    eigen_map,
    sort_desc,
    spectral_decompose,
)
from .spectralsets import (
    CertificateVerdict,
    DecompositionCertificate,
    FanInterval,
    SpectralComponent,
    SpectralSet,
    certificate_check,
    components_finite,
    connect,
    factor_blocks,
    fan_interval,
    fan_sample,
    ss_member,
    sum_split,
)

__version__ = "0.1.0"
