"""Exact simulation machinery for the three formulations of the Ising model.

The spins world lives on nodes, the subgraphs (high-temperature
expansion) and random-cluster worlds live on edges.  This package
provides exact single-draw conversions between all three, cluster-update
Markov chains built from them, perfect sampling by monotone coupling
from the past, and a brute-force enumeration oracle that verifies every
distributional claim on small graphs.
"""

__version__ = "0.6.0"

from .cftp import (
    CftpRun,
    cftp_rc_run,
    heat_bath_rc_step,
    perfect_sample,
    perfect_subs_sample,
)
from .chains import ChainState, ChainTrace, draws, initial_state, run_chain, sw_classic_step, sw_subgraphs_step
from .errors import (
    CapExceededError,
    GraphFormatError,
    InvalidConfigError,
    InvalidParameterError,
    IsingError,
    NoCoalescenceError,
    UnknownStatisticError,
    UnsupportedFieldError,
)
from .graph import (
    FieldReduction,
    WeightedGraph,
    beta_to_lambda,
    beta_to_p,
    lambda_to_beta,
    p_to_beta,
    reduce_unidirectional_field,
)
from .graphio import graph_to_json_dict, graph_to_text, load_graph, read_graph_json, read_graph_text, save_graph
from .reductions import rc_to_spins, rc_to_subs, spins_to_rc, spins_to_subs, subs_to_rc, subs_to_spins
from .rng import RngStream
from .worlds import (
    ClusterPartition,
    RcConfig,
    SpinConfig,
    SubgraphConfig,
    clusters,
    config_from_string,
    config_to_string,
)

__all__ = [
    "__version__",
    "CapExceededError",
    "ChainState",
    "ChainTrace",
    "CftpRun",
    "ClusterPartition",
    "EvenCountReport",
    "ExactTables",
    "FieldReduction",
    "GraphFormatError",
    "IdentityReport",
    "InvalidConfigError",
    "InvalidParameterError",
    "IsingError",
    "KernelMatrix",
    "NoCoalescenceError",
    "RcConfig",
    "RngStream",
    "SpinConfig",
    "SubgraphConfig",
    "UnknownStatisticError",
    "UnsupportedFieldError",
    "WeightedGraph",
    "WorldTable",
    "beta_to_lambda",
    "beta_to_p",
    "cftp_rc_run",
    "check_even_subgraph_count",
    "check_rc_normalizer",
    "check_relate_identity",
    "clusters",
    "config_from_string",
    "config_to_string",
    "draws",
    "empirical_distribution",
    "enumerate_world",
    "exact_kernel_matrix",
    "exact_tables",
    "graph_to_json_dict",
    "graph_to_text",
    "heat_bath_rc_step",
    "initial_state",
    "kernel_stationarity_error",
    "lambda_to_beta",
    "load_graph",
    "p_to_beta",
    "perfect_sample",
    "perfect_subs_sample",
    "rc_to_spins",
    "rc_to_subs",
    "read_graph_json",
    "read_graph_text",
    "reduce_unidirectional_field",
    "run_chain",
    "save_graph",
    "spins_to_rc",
    "spins_to_subs",
    "subs_to_rc",
    "subs_to_spins",
    "sw_classic_step",
    "sw_subgraphs_step",
    "tv_distance",
    "weight_rc",
    "weight_subs",
]


# The names of __all__ not imported above belong to the enumeration
# oracle, the only module that needs numpy.  They are imported on first
# access (PEP 562), so the samplers and the command line start without
# numpy.
def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import exact

    value = getattr(exact, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
