"""Solver correctness: analytic oracles, convergence orders, masking
equivalence at the bitwise level, and gradient flow through solves."""

import numpy as np
import pytest

from helpers import chained_solve, loglog_slope
from shapectl import autodiff as ad
from shapectl import nn
from shapectl.odeint import (
    SOLVER_KINDS,
    IntegrationGrid,
    integrate,
    integrate_batch_masked,
    masked_step_counts,
)


def linear_f(a):
    def f(t, x, u):
        return ad.scale(x, a)

    return f


def elementwise_f(t, x, u):
    # time-dependent dynamics built only from elementwise primitives, so
    # results are bitwise identical for any batch shape; every column
    # sees its own drive, and the drive changes within and across steps
    drive = np.sin(3.0 * t + np.arange(x.value.shape[1]))
    h = ad.add(ad.scale(ad.tanh(x), 0.5), ad.cmul(ad.sigmoid(x), drive))
    return ad.add_const(h, 0.1 * np.cos(t))


def solve_exponential(kind, n_steps):
    tape = ad.Tape()
    x0 = tape.tensor(np.array([[1.0]]))
    grid = IntegrationGrid(0.0, 1.0, n_steps)
    traj = integrate(linear_f(1.0), x0, grid, kind=kind)
    return float(traj[-1].value[0, 0])


def test_zero_dynamics_constant_trajectory(rng):
    x0v = rng.standard_normal((3, 4))
    for kind in SOLVER_KINDS:
        tape = ad.Tape()
        x0 = tape.tensor(x0v)
        traj = integrate(linear_f(0.0), x0, IntegrationGrid(0.0, 1.0, 6), kind=kind)
        for x in traj:
            assert np.array_equal(x.value, x0v)


def test_rk4_exponential_accuracy():
    assert abs(solve_exponential("rk4", 100) - np.e) < 1e-8


def test_solver_order_slopes():
    ns = {"euler": [40, 80, 160, 320], "rk4": [5, 10, 20, 40], "fixed-adams": [10, 20, 40, 80]}
    floors = {"euler": 0.9, "rk4": 3.8, "fixed-adams": 3.5}
    for kind in SOLVER_KINDS:
        hs = [1.0 / n for n in ns[kind]]
        errs = [abs(solve_exponential(kind, n) - np.e) for n in ns[kind]]
        slope = loglog_slope(hs, errs)
        assert slope >= floors[kind], f"{kind}: slope {slope:.3f}"


def test_gradient_through_rk4_matches_exponential():
    a, t_end, n = 0.5, 1.0, 10
    tape = ad.Tape()
    x0 = tape.tensor(np.array([[2.0]]))
    traj = integrate(linear_f(a), x0, IntegrationGrid(0.0, t_end, n), kind="rk4")
    g = ad.grad_of(ad.backward(traj[-1]), x0)[0, 0]
    assert abs(g - np.exp(a * t_end)) / np.exp(a * t_end) < 1e-6


def test_trajectory_prefix_matches_shorter_grid(rng):
    h = 0.125
    x0v = rng.standard_normal((2, 3))
    for kind in SOLVER_KINDS:
        full_tape = ad.Tape()
        full = integrate(
            elementwise_f,
            full_tape.tensor(x0v),
            IntegrationGrid(0.0, 8 * h, 8),
            kind=kind,
        )
        ks = [4, 6] if kind == "fixed-adams" else [1, 3, 6]
        for k in ks:
            tape = ad.Tape()
            part = integrate(
                elementwise_f,
                tape.tensor(x0v),
                IntegrationGrid(0.0, k * h, k),
                kind=kind,
            )
            assert np.array_equal(part[-1].value, full[k].value)


def test_grid_validation():
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        IntegrationGrid(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 1.0, 5, per_sample_end=np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 1.0, 5, per_sample_end=np.array([0.25, 0.5]))
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 1.0, 5, per_sample_end=np.zeros((2, 2)))
    g = IntegrationGrid(0.0, 1.0, 4, per_sample_end=np.array([0.5, 1.0]))
    assert g.dt == 0.25


def test_fixed_adams_needs_four_steps(rng):
    tape = ad.Tape()
    x0 = tape.tensor(rng.standard_normal((1, 2)))
    with pytest.raises(ValueError):
        integrate(linear_f(1.0), x0, IntegrationGrid(0.0, 1.0, 3), kind="fixed-adams")


def test_unknown_solver_kind(rng):
    tape = ad.Tape()
    x0 = tape.tensor(rng.standard_normal((1, 2)))
    with pytest.raises(ValueError):
        integrate(linear_f(1.0), x0, IntegrationGrid(0.0, 1.0, 5), kind="heun")


def test_masked_requires_ends(rng):
    tape = ad.Tape()
    x0 = tape.tensor(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        integrate_batch_masked(linear_f(1.0), x0, IntegrationGrid(0.0, 1.0, 5))
    bad = IntegrationGrid(0.0, 1.0, 5, per_sample_end=np.array([0.5, 0.75, 1.0]))
    with pytest.raises(ValueError):
        integrate_batch_masked(linear_f(1.0), x0, bad)


def test_masked_degenerate_equals_unmasked(rng):
    x0v = rng.standard_normal((3, 2))
    ends = np.full(3, 1.0)
    for kind in SOLVER_KINDS:
        tape = ad.Tape()
        plain = integrate(
            elementwise_f,
            tape.tensor(x0v),
            IntegrationGrid(0.0, 1.0, 6),
            kind,
        )
        tape2 = ad.Tape()
        masked = integrate_batch_masked(
            elementwise_f,
            tape2.tensor(x0v),
            IntegrationGrid(0.0, 1.0, 6, per_sample_end=ends),
            kind,
        )
        for a, b in zip(plain, masked):
            assert np.array_equal(a.value, b.value)


def test_masked_constant_dynamics_endpoints():
    c = np.array([0.3, -0.7])

    def f(t, x, u):
        return ad.add_const(ad.scale(x, 0.0), c)

    x0v = np.array([[1.0, 2.0], [3.0, 4.0]])
    ends = np.array([0.5, 1.0])
    tape = ad.Tape()
    traj = integrate_batch_masked(
        f, tape.tensor(x0v), IntegrationGrid(0.0, 1.0, 8, per_sample_end=ends), "euler"
    )
    final = traj[-1].value
    assert np.allclose(final[0], x0v[0] + c * 0.5, atol=1e-12)
    assert np.allclose(final[1], x0v[1] + c * 1.0, atol=1e-12)


def test_masked_step_counts_rounding():
    grid = IntegrationGrid(0.0, 1.0, 10, per_sample_end=np.array([0.0, 0.24, 0.26, 1.0]))
    assert list(masked_step_counts(grid)) == [0, 2, 3, 10]


def test_masked_matches_per_sample_bitwise(rng):
    # the core masking property: each sample's batched states equal its
    # own sequential integration at the shared step size; binary-exact
    # spans keep the per-sample grid's dt bitwise identical
    h = 2.0**-4
    for trial in range(12):
        kind = SOLVER_KINDS[trial % 3]
        n = int(rng.integers(6, 12))
        batch = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 4))
        counts = rng.integers(0, n + 1, size=batch)
        counts[rng.integers(0, batch)] = n
        ends = counts * h
        x0v = rng.standard_normal((batch, dim))
        grid = IntegrationGrid(0.0, n * h, n, per_sample_end=ends)
        tape = ad.Tape()
        traj = integrate_batch_masked(elementwise_f, tape.tensor(x0v), grid, kind)
        for i in range(batch):
            ci = int(counts[i])
            if ci == 0:
                solo_states = [x0v[i : i + 1]]
            else:
                solo_kind = kind if (kind != "fixed-adams" or ci >= 4) else "rk4"
                solo_tape = ad.Tape()
                solo = integrate(
                    elementwise_f,
                    solo_tape.tensor(x0v[i : i + 1]),
                    IntegrationGrid(0.0, ci * h, ci),
                    solo_kind,
                )
                solo_states = [s.value for s in solo]
            for k in range(ci + 1):
                assert np.array_equal(traj[k].value[i], solo_states[k][0]), (
                    f"trial {trial} sample {i} step {k}"
                )
            for k in range(ci + 1, n + 1):
                assert np.array_equal(traj[k].value[i], solo_states[ci][0]), (
                    f"trial {trial} sample {i} frozen step {k}"
                )


def test_masked_gradient_freezes(rng):
    # euler on dx = x: d final / d x0 is exactly (1+h)^count per row
    h = 0.125
    n = 8
    counts = np.array([8, 3, 0])
    ends = counts * h
    x0v = rng.standard_normal((3, 1))
    tape = ad.Tape()
    x0 = tape.tensor(x0v)
    traj = integrate_batch_masked(
        linear_f(1.0), x0, IntegrationGrid(0.0, 1.0, n, per_sample_end=ends), "euler"
    )
    loss = ad.reduce_sum(traj[-1])
    g = ad.grad_of(ad.backward(loss), x0)
    for i, c in enumerate(counts):
        assert g[i, 0] == pytest.approx((1.0 + h) ** c, rel=1e-12)


def test_nonfinite_state_names_step(rng):
    # the field blows up from t = 0.5 on, where step 3 of 6 starts
    def f(t, x, u):
        return ad.scale(x, np.inf if t > 0.4 else 1.0)

    tape = ad.Tape()
    x0 = tape.tensor(np.ones((1, 1)))
    with pytest.raises(FloatingPointError, match="step 3"):
        integrate(f, x0, IntegrationGrid(0.0, 1.0, 6), "euler")


def _network_field(params, tape, calls):
    """A trainable network as the field, counting its evaluations."""
    mt = params.as_tensors(tape)

    def f(t, x, u):
        calls.append(t)
        return nn.mlp_forward(mt, x)

    return f, mt


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", SOLVER_KINDS)
@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
@pytest.mark.parametrize("field", ["network", "identity"])
def test_fused_steps_match_add_scale_chain_bit_for_bit(rng, dtype, kind, masked, field):
    # the one-node stage inputs and updates against the add/scale chain:
    # every state and every leaf adjoint, bit for bit; the identity
    # field hands a step its own state as a derivative, so one parent
    # appears twice in a node
    params = nn.init_mlp(rng, [3, 8, 3], input_scale=rng.uniform(0.5, 2.0, 3))
    params.biases[0][:] = rng.standard_normal(8)
    x0v = rng.standard_normal((5, 3))
    weights = rng.standard_normal((9, 5, 3))
    ends = np.array([1.0, 0.25, 0.625, 0.0, 1.0]) if masked else None
    grid = IntegrationGrid(0.0, 1.0, 8, per_sample_end=ends)
    results = []
    for solve in ("library", "chain"):
        tape = ad.Tape(dtype)
        x0 = tape.tensor(x0v)
        if field == "network":
            f, mt = _network_field(params, tape, [])
            leaves = [x0, *mt.param_tensors()]
        else:
            f, leaves = (lambda t, x, u: x), [x0]
        if solve == "chain":
            counts = masked_step_counts(grid) if masked else None
            traj = chained_solve(f, x0, grid, kind, counts)
        elif masked:
            traj = integrate_batch_masked(f, x0, grid, kind)
        else:
            traj = integrate(f, x0, grid, kind)
        loss = ad.reduce_sum(ad.cmul(traj[0], weights[0]))
        for w, state in zip(weights[1:], traj[1:]):
            loss = ad.add(loss, ad.reduce_sum(ad.cmul(state, w)))
        grads = ad.backward(loss)
        results.append(([s.value for s in traj], [ad.grad_of(grads, t) for t in leaves]))
    (states, adjoints), (want_states, want_adjoints) = results
    for got, want in zip(states + adjoints, want_states + want_adjoints, strict=True):
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


def test_fixed_adams_segment_records_38_step_loop_nodes(rng):
    # 3 RK4 steps (4 evaluations, 3 stage inputs and 1 update each) and
    # 7 Adams-Bashforth steps (1 evaluation and 1 update each)
    params = nn.init_mlp(rng, [7, 16, 7])
    grid = IntegrationGrid(0.0, 1.0, 10)
    recorded = {}
    for solve in ("library", "chain"):
        tape = ad.Tape(np.float32)
        x0 = tape.tensor(rng.standard_normal((4, 7)))
        calls = []
        f, _ = _network_field(params, tape, calls)
        before = len(tape)
        if solve == "library":
            integrate(f, x0, grid, "fixed-adams")
        else:
            chained_solve(f, x0, grid, "fixed-adams")
        recorded[solve] = (len(tape) - before, len(calls))
    assert recorded == {"library": (38, 19), "chain": (111, 19)}
