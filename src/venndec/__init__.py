"""Reconstruction of weighted set families from intersection tensors.

Submodules: ``tensor`` (dense tensors, outer products, mode grouping and
subtensors), ``perturb`` (interval-bounded noise models), ``echelon``
(structured subspace bases and distance certificates), ``decomp``
(simultaneous diagonalization, and the one rule that groups an order-ell
tensor into three blocks for it), ``venn`` (diagram model and end-to-end
reconstruction), ``assemblies`` (association graphs as overlapping subset
families), ``experiments`` (seeded Monte Carlo harness), ``cli``
(command-line front end).
"""

from .tensor import (
    Tensor,
    extract_subtensor,
    group,
    outer,
)
from .perturb import (
    BitFlip,
    Gaussian,
    MembershipMatrix,
    NondetParams,
    nondet_params,
    perturb_memberships,
)
from .echelon import (
    BranchingSpec,
    BuildTrace,
    EchelonTree,
    SubspaceBasis,
    build_echelon_tree,
    certify_distance,
    collapse,
    largeness,
    orthogonal_complement,
    verify_echelon,
)
from .decomp import (
    ConditionReport,
    DecompositionResult,
    condition_report,
    factor_rank_one,
    jennrich,
    leave_one_out_distances,
    recover_rank_one_terms,
)
from .venn import (
    DiagramDiff,
    MeasurementTensor,
    Region,
    VennDiagram,
    add_measurement_noise,
    diagram_diff,
    intersection_tensor,
    rank_detect,
    reconstruct,
)
from .assemblies import (
    AssemblyFamily,
    AssemblyParams,
    AssociationGraph,
    Instruction,
    represent_graph,
    soft_build,
    soft_realize,
    verify_representation,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    echelon_bound,
    run_experiment,
    sigma_min_bound,
)

__version__ = "0.1.0"
