"""Central tolerance and limit table.

Every numerical threshold used across the package lives here so that tests
and library code agree on one set of values.
"""

# PSD check: min eigenvalue >= -PSD_TOL.
PSD_TOL = 1e-9

# Bloch vectors: physical states need |theta| <= 1 (+ rounding slack);
# derivative-based quantities (SLD, QFI) need strict interior.
BLOCH_NORM_SLACK = 1e-12
INTERIOR_MARGIN = 1e-9

# POVM checks.
COMPLETENESS_TOL = 1e-9          # max-entry deviation of sum(elements) from identity
REFERENCE_COMPLETENESS_TOL = 2e-3  # four-decimal hard-coded reference POVMs
PROB_NEGATIVE_TOL = 1e-12        # outcome probabilities may round to -1e-12
PROB_SUM_TOL = 1e-9
FISHER_PROB_CUTOFF = 1e-12       # outcomes below this need vanishing derivatives

# SDP solver.
SDP_GAP_TOL = 1e-8
SDP_FEAS_TOL = 1e-8
SDP_MAX_ITER = 200
SDP_STEP_FRACTION = 0.98
SDP_BLOCH_LIMIT = 1 - 1e-6       # reject states closer to the Bloch sphere than this

# Maximum-likelihood estimation.
MLE_KKT_TOL = 1e-7
MLE_MAX_ITER = 100              # Newton iterations per repetition
MLE_ARMIJO = 1e-4
MLE_BALL_RADIUS = 1 - 1e-6
MLE_EIG_FLOOR = 1e-8            # Hessian eigenvalues floored to this fraction of the largest

# Trade-off surface scans.
SURFACE_FEAS_TOL = 1e-6
VERTEX_MERGE_TOL = 1e-7
PARALLEL_NORMAL_TOL = 1e-10
VERTEX_BOX_LIMIT = 50.0
SCAN_BATCH_ENTRIES = 1 << 19     # plane checks (triples x planes) per vertex-search batch
BOUNDARY_RESIDUAL_TOL = 1e-6

# Monte Carlo experiment defaults.
DEFAULT_SEED = 42
