"""Symbolic and numeric engine for connections on trivial fiber bundles,
their jet bundles, and manifolds: representation round-trips, curvature and
integrability, integral sections, SOPDE conditions, linearity, parallel
transport and holonomy."""

from . import bundle, connection, expr, jetfield, linear, model, multivector, transport
from .bundle import (
    BundleChart,
    JetChart,
    JetSection,
    Section,
    holonomic_check,
    prolong_jet_section,
    prolong_section,
)
from .connection import (
    CurvatureTensor,
    EhresmannConnection,
    OneForm,
    VectorField,
    add_vertical,
    curvature,
    horizontal_frame,
    integral_section,
    integral_section_residual,
    is_integrable,
    split_one_form,
    split_vector_field,
)
from .expr import Expr, ProbeConfig, all_zero, differentiate, evaluate, is_zero, parse, to_text
from .jetfield import (
    JetField2,
    as_connection_on_jet,
    is_sopde,
    project_j1pi1,
    second_order_residual,
    sopde_integrability_residuals,
)
from .linear import (
    Christoffel,
    ManifoldConnection,
    TorsionTensor,
    christoffels,
    covariant_derivative,
    covariant_differential,
    general_covariant_derivative,
    is_linear,
    is_symmetric,
    leibniz_residual,
    linear_to_ehresmann,
    liouville_field,
    torsion,
)
from .multivector import Multivector, contract, is_transverse, representative, same_class
from .transport import (
    Curve,
    TransportResult,
    complete_lift,
    covariant_via_complete_lift,
    holonomy,
    horizontal_lift_vector,
    hv_project_tm,
    parallel_transport,
)

__version__ = "0.1.0"
