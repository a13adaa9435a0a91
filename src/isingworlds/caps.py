"""Size caps of the enumeration oracle.

:mod:`exact` enforces them (and re-exports them); they live apart from
it so that the command line can record them in every manifest without
loading numpy.
"""

SPINS_ENUM_NODE_CAP = 16
EDGE_ENUM_CAP = 20
KERNEL_EDGE_CAP = 10
KERNEL_NODE_CAP = 12

CAPS = {
    "spins_enum_nodes": SPINS_ENUM_NODE_CAP,
    "edge_enum_edges": EDGE_ENUM_CAP,
    "kernel_edges": KERNEL_EDGE_CAP,
    "kernel_nodes": KERNEL_NODE_CAP,
}
