"""curveflow: simulator and verification suite for the flow v = G(k) k.

Strictly convex closed plane curves shrink to a point under normal motion
with speed G(k) k; this package integrates that flow in curvature and
support-function form, estimates the blow-up time, and checks the geometric
inequalities and asymptotic laws the theory predicts.
"""

from .diagnostics import (
    MonitorReport,
    format_monitor_table,
    monitor_blowup_integral,
    monitor_bonnesen,
    monitor_evolution_identities,
    monitor_gage,
    monitor_gradient_estimate,
    monitor_iso_ratio,
    monitor_ratio_asymptotics,
    run_all_monitors,
)
from .errors import (
    ConvexityLossError,
    CurveFlowError,
    DegenerateProfileError,
    HypothesisViolationError,
    InsufficientDataError,
    NotClosedError,
    SpeedLawDomainError,
    StepRejected,
)
from .flow import (
    BlowUpEstimate,
    ContainmentReport,
    FlowConfig,
    Snapshot,
    Trajectory,
    containment_run,
    estimate_blowup,
    rhs_curvature,
    rhs_support,
    run,
    stable_dt,
    step,
)
from .geometry import (
    AngleGrid,
    CurvatureProfile,
    GeometrySummary,
    PlaneCurve,
    SupportProfile,
    area_from_curvature,
    area_from_support,
    area_of,
    closure_residual,
    hausdorff_to_unit_disk,
    k_from_support,
    length_of,
    normalize,
    radii,
    reconstruct,
    steiner_centered,
    steiner_point,
    summarize,
    support_from_curvature,
)
from .oracle import (
    CircleSolution,
    circle_profile,
    circle_state,
    circle_trajectory,
    ellipse_profile,
    ellipse_support,
    polygon_brute_force,
)
from .speed_law import (
    HypothesisReport,
    SpeedLaw,
    check_hypotheses,
    parse_law,
    power_law,
)

__version__ = "0.1.0"
