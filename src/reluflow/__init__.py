"""Exact ReLU compilation of piecewise-linear functions on the standard
triangulation, plus residual networks approximating ODE flows in space
and time, with certified depth and neuron accounting."""

from .grid import (
    KuhnGrid,
    SimplexRef,
    barycentric,
    locate,
    neighborhood,
    omega_zero_contains,
    simplex_contains,
    simplex_vertices,
    vertex_position,
)
from .networks import (
    AffineMap,
    ComplexityReport,
    NetworkParams,
    complexity,
    compose_networks,
    depth_pad,
    eval_network,
    eval_network_batched,
    first_layer_free,
    identity_network,
    load_network,
    min2_network,
    min_tree_network,
    network_from_dict,
    network_to_dict,
    parallelize,
    save_network,
    sum_networks,
)
from .ode import (
    OracleConvergenceError,
    RhsSpec,
    Trajectory,
    euler_solve,
    gronwall_constant,
    perturbed_euler_bound,
    reference_solve,
    solution_map_bound,
    uniform_partition,
)
from .pwl import (
    NodalPieces,
    PWLFunction,
    approximate_lipschitz,
    compile_pwl,
    compiled_depth,
    eval_pwl,
    interpolate,
    load_pwl,
    nodal_basis_network,
    nodal_pieces,
    pwl_from_dict,
    pwl_to_dict,
    resolve_function,
    save_pwl,
)
from .resnet import (
    BuildReport,
    ResNetParams,
    build_resnet,
    build_shared_resnet,
    eval_resnet,
    load_resnet,
    resnet_as_rhs,
    resnet_from_dict,
    resnet_node_states,
    resnet_to_dict,
    save_resnet,
)

__version__ = "0.1.0"
