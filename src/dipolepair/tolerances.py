"""Numeric tolerances, collected in one table so tests and code agree."""

# linear algebra kernels
HERMITICITY_ATOL = 1e-10      # max-abs of m - m^dagger
PSD_EVAL_FLOOR = -1e-10       # eigenvalues below this fail the PSD check, of any state
# the SVD kernel of null_vector; the steady-state solvers have no threshold
NULLSPACE_RTOL = 1e-8         # smallest singular value relative to largest
KERNEL_FLAG_RTOL = 1e-8       # second-smallest singular value: degeneracy flag

# density matrices (Hermiticity and eigenvalues as above)
DENSITY_TRACE_ATOL = 1e-10
STATE_NORM_ATOL = 1e-10

# dynamics
TRACE_DRIFT_MAX = 1e-6        # propagate(): trace drift of a generator that loses trace
HERMITICITY_RTOL = 1e-10      # propagate(): max |Im| / max |entry| of the generator, real coords
MAX_STEPS = 10**6             # propagate(): most steps (128 B doubling buffer, 256 B state each)
# (the singlet decouples only at gamma12 == gamma exactly: a branch, not a tolerance)

# geometry factors
SMALL_X = 1.4                 # cross_decay: series below this k0r, closed form above
