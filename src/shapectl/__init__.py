"""Continuum-robot shape estimation and control with neural ODEs.

The package is organized in layers:

``autodiff``
    A small tape-based reverse-mode engine over dense arrays in one
    compute dtype per tape: float64 by default, float32 for shape and
    policy training.
``nn``
    MLP parameters (float64 master weights) with their structure
    checks, forward pass, Adam, persistence.
``odeint``
    Fixed-step ODE solvers (euler, rk4, fixed-adams) and batched
    integration over per-sample sub-intervals.
``robot``
    Ground-truth closed-form arc kinematics, action maps, dataset sampling,
    reference trajectories, payload and obstacle geometry.
``shape_node``
    Arc-length neural ODE that learns backbone shapes from actions.
``control_node``
    Time-domain neural ODE policy trained against the shape model,
    plus one episode runner for closed-loop tracking and the Jacobian
    open-loop baseline.
``cli``
    Command-line entry points (generate / train-shape / train-control /
    evaluate / rollout).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
