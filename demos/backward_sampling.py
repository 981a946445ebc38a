# Stationary sampling by coupling from the past.
#
# Each sample draws its increments backward in time and keeps, for every
# start point of the window, the value at time 0 of the walk started there:
# one more increment y updates that table by b[x] <- b[|x - y|].  Cut at the
# parity-return times, the backward sequence composes induced blocks in
# reverse order, so the image of every start converges to a single random
# limit whose law is the stationary law of the parity class.  Stopping at a
# block end where the whole class window has coalesced therefore yields
# *exact* stationary draws (up to the flagged-horizon escape hatch).

import numpy as np

from reflectwalk import (JointMeasure, Measure1D, WalkSpec, backward_sample,
                         invariant_measure_nonneg)

mu = Measure1D.lattice({1: 0.5, 2: 0.5})
spec = WalkSpec(JointMeasure.product((1, 0, 0, 0), [mu]))

res = backward_sample(spec, parity=[0], horizon=500, rng=42, n_samples=50_000)
print("converged fraction:", res.converged.mean())
print("blocks used: mean %.2f, max %d" % (res.blocks_used.mean(),
                                          res.blocks_used.max()))

values, counts = np.unique(res.values, return_counts=True)
empirical = dict(zip(values.astype(int).tolist(),
                     np.round(counts / len(res.values), 4).tolist()))
print("backward samples (even class):", empirical)

# The exact answer: restrict the invariant measure to the even states of the
# attractor {0, 1, 2} and renormalize.
nu = invariant_measure_nonneg(mu).as_dict()
even_mass = nu[0] + nu[2]
print("exact conditioned law:       ",
      {0: round(nu[0] / even_mass, 4), 2: round(nu[2] / even_mass, 4)})

# The odd parity class of this walk is a single point.
res_odd = backward_sample(spec, parity=[1], horizon=500, rng=43,
                          n_samples=1000)
print("odd class collapses to:", np.unique(res_odd.values).tolist())

# Refusal outside positive recurrence: the symmetric walk is only null
# recurrent, and the backward limit then has no stationary-law meaning.
try:
    null_spec = WalkSpec(JointMeasure.product(
        (1, 0, 0, 0), [Measure1D.lattice({-1: 0.5, 1: 0.5})]))
    backward_sample(null_spec, [0], 100, 1)
except Exception as e:
    print("null-recurrent spec refused:", str(e)[:72], "...")
