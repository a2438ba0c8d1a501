"""Numerical laboratory for superquadratic viscous Hamilton-Jacobi equations.

Grids and discrete calculus (grid), parabolic Hölder seminorms with a
double-loop oracle (seminorm), the backward HJ solver (hj), the dual
Fokker-Planck solver (fp), duality/oscillation verification (dual), blow-up
rescalings and norm sweeps (scalelab), batch CLI (cli).
"""

__version__ = "0.1.0"

from .grid import (
    Cylinder,
    Grid,
    GridSpec,
    NumericalFailure,
    ScalarField,
    VectorField,
    centered_cylinder,
    lq_norm,
    make_grid,
    parabolic_distance,
    read_field_csv,
    sample_field,
    write_field_csv,
)
from .hj import (
    HJProblem,
    HJSolution,
    alpha_zero,
    critical_q0,
    gamma_conjugate,
    legendre_gap,
    manufactured_rhs,
    solve_hj,
    solve_hj_many,
)
from .fp import FPProblem, FPSolution, drift_from_solution, kinetic_energy, solve_fp
from .dual import (
    bent_duality,
    duality_identity,
    ldiff_cap,
    ldiff_constant,
    oscillation_report,
)
from .seminorm import (
    holder_seminorm,
    nonlinear_space,
    nonlinear_time,
    w21q_norms,
    weighted_holder,
)
from .scalelab import (
    BlowupParams,
    blowup_transform,
    closed_form_decay_budget,
    inverse_blowup_transform,
    liouville_probe,
    maxreg_sweep,
    normalization_check,
    worst_pair_selection,
)
