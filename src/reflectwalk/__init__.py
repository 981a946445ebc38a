"""Exact analysis and Monte Carlo simulation of reflected random walks.

The package splits along the natural seams of the problem:

* :mod:`reflectwalk.measures` -- increment laws in one and several
  dimensions, builtin heavy-tailed families, moments with divergence
  detection;
* :mod:`reflectwalk.reflect_core` -- simulation of the reflected/free
  process, parity-return subsampling, contraction words, backward
  (stationary) sampling;
* :mod:`reflectwalk.exact_1d` -- closed-form invariant measures, recurrence
  classification, ladder decompositions and their inverse construction;
* :mod:`reflectwalk.lattice_structure` -- parity group and cosets, essential
  classes over certified windows, the constant-map witness;
* :mod:`reflectwalk.diagnostics` -- the Monte Carlo recurrence laboratory;
* :mod:`reflectwalk.cli` -- the ``reflectwalk`` command.
"""

__version__ = "0.1.0"

from .measures import (
    JointMeasure,
    Measure1D,
    MeasureError,
    SubordinatorAlpha,
    gcd_normalize,
    joint_from_config,
    measure_from_config,
    subordinated,
    subordinator_pmf,
    subordinator_tail,
    uniform,
    wiener_hopf_log_tail,
)
from .reflect_core import (
    BackwardResult,
    ContractionWord,
    Trajectory,
    WalkSpec,
    backward_sample,
    contraction_distance_profile,
    induced_word,
    parity_return_times,
    reflect_step,
    simulate,
)
from .exact_1d import (
    InvariantMeasure1D,
    LadderDecomposition,
    classify_positive_recurrence,
    invariant_measure_nonneg,
    ladder_exact_skip_free,
    ladder_monte_carlo,
    lifted_invariant_measure,
    recurrence_criteria,
    reflected_kernel_matrix,
    symmetric_equivalence_check,
    wiener_hopf_construct,
)
from .lattice_structure import (
    ConstantMapWitness,
    EssentialClassReport,
    ParityDecomposition,
    attractor_1d,
    constant_map_witness,
    essential_classes,
    hypercube_chain,
    parity_group,
)
from . import diagnostics
from .rng import child_seed, make_rng, splitmix64
