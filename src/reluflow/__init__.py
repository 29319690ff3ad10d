"""Exact ReLU compilation of piecewise-linear functions on the standard
triangulation, plus residual networks approximating ODE flows in space
and time, with certified depth and neuron accounting."""

from .networks import (
    AffineMap,
    CSRMatrix,
    NetworkParams,
    eval_network,
    eval_network_batched,
    load_network,
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
)
from .pwl import (
    ComplexityReport,
    KuhnGrid,
    PWLFunction,
    SimplexRef,
    barycentric,
    compile_pwl,
    complexity,
    compiled_complexity,
    compiled_depth,
    compiled_layers,
    eval_pwl,
    interpolate,
    load_pwl,
    locate,
    min_tree_network,
    pwl_from_dict,
    pwl_to_dict,
    resolve_function,
    save_pwl,
    simplex_vertices,
)
from .resnet import (
    ResNetParams,
    build_resnet,
    build_shared_resnet,
    eval_resnet,
    resnet_as_rhs,
    resnet_node_states,
)

__version__ = "0.1.0"
