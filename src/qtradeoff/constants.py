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

# Trade-off surface scans. Every tolerance on a weight normal n is relative
# to its size, so a scan depends only on the weights' ratios.
SURFACE_FEAS_TOL = 1e-6          # slack of w . V >= C(w), in units of |w|_1; of V_i >= floor
VERTEX_MERGE_TOL = 1e-7
# A normalized volume: three normals are singular below
# |n_i . (n_j x n_k)| / (|n_i||n_j||n_k|), as are any three with two of
# them parallel.
PARALLEL_NORMAL_TOL = 1e-10
VERTEX_BOX_LIMIT = 50.0
SCAN_BATCH_ENTRIES = 1 << 19     # screen tests (triples x (planes + 3)) per vertex-search batch
# The vertex screen's width in eps * kappa * (1 + |x|_inf) for the Cramer
# point x of the normals n_i, n_j, n_k, with
# kappa = (|n_i|_1 + |n_j|_1 + |n_k|_1)(|n_i||n_j| + |n_j||n_k| + |n_k||n_i|) / |det|.
# This kappa is at least 3 |n_i||n_j||n_k| / |det|, which bounds Cramer's
# rule: its cross products are off by 2 eps |n_a||n_b|, its three-term sums
# by 3 eps, against |b_l| <= |n_l| |x|_2, and its det, the triple product
# n_i . (n_j x n_k) from the same cross products, by about 6 eps
# |n_i||n_j||n_k| (five roundings on each term of the permanent of |N|, at
# most 1.16 |n_i||n_j||n_k|), which is at most 2 eps kappa |det|. It is also
# at least |N|_inf |N^-1|_inf, which bounds LAPACK's partially pivoted 3 x 3
# LU (growth at most 4); the first alone does not once the rows differ in
# scale. Each of the two solutions lands within about 40 eps kappa |x|_inf
# of the exact one; twice their sum covers reading |x| off the Cramer point
# while SCREEN_WIDTH eps kappa <= 1/2 (beyond, the screen passes the
# triple), and the rest is margin for rounding in the test products and
# thresholds.
SCREEN_WIDTH = 256.0

# Monte Carlo experiment defaults.
DEFAULT_SEED = 42
