"""cqsim: simulate and verify completely positive classical-quantum dynamics.

Four mutually validating representations of the same hybrid dynamics:

* grid evolution of the continuous CQ master equation (`generator`),
* stochastic trajectory unraveling of the saturated case (`unravel`),
* discretized path-integral weights on sampled classical paths (`paths`),
* the exactly solvable zero-dimensional toy theory (`zerodim`),

plus the complete-positivity auditor (`psd`) that gates every model, and a
scenario-driven batch front end (`cli`).
"""

from .psd import CouplingTriple, CPReport, Verdict, is_psd, pseudo_inverse, schur_cp_check, tradeoff_verdict
from .grids import GridAxis, PhaseGrid
from .state import HybridState, classical_marginal, gaussian_product_state, quantum_marginal, total_trace
from .models import CQModel, MeasurementModel, ToyParams, polynomial_cq_model, constant_measurement_model
from .generator import apply_generator, branch_generator, evolve, evolve_measurement, measurement_generator, step_rk4
from .unravel import Trajectory, run_trajectory, run_ensemble, estimate_km_moments
from .paths import BranchPair, ClassicalPath, anomalous_term, config_action, fv_action, om_action, sample_path
from .zerodim import SourceTriple, free_propagators, moment_perturbative, moment_quadrature, vertex_factors, z_free

__version__ = "0.1.0"
