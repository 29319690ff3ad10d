"""Exact ReLU compilation of piecewise-linear functions on the standard
triangulation, plus residual networks approximating ODE flows in space
and time, with certified depth and neuron accounting."""

from .grid import (
    KuhnGrid,
    SimplexRef,
    barycentric,
    locate,
    simplex_vertices,
)
from .networks import (
    AffineMap,
    ComplexityReport,
    CSRMatrix,
    NetworkParams,
    complexity,
    eval_network,
    eval_network_batched,
    load_network,
    min_tree_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from .ode import (
    OracleConvergenceError,
    RhsSpec,
    Trajectory,
    euler_solve,
    perturbed_euler_bound,
    reference_solve,
    uniform_partition,
)
from .pwl import (
    PWLFunction,
    compile_pwl,
    compiled_complexity,
    compiled_depth,
    compiled_layers,
    eval_pwl,
    interpolate,
    load_pwl,
    pwl_from_dict,
    pwl_to_dict,
    resolve_function,
    save_pwl,
)
from .resnet import (
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
