"""Test-side probes for gradient checks; not library ops."""

import numpy as np

from neucalib import autodiff as ad

FD_STEP = 1e-5  # central-difference step of finite_difference_check


def weighted_sum(x, weights=1.0):
    """sum(x * weights) as one 1 x 1 node, so a tensor of any shape can be
    gradient-checked; ``weights`` broadcasts against x."""
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), x.shape)
    return ad.record("weighted_sum", (x,), lambda g: (g[0, 0] * w,),
                     np.array([[(x.value * w).sum()]]))


def finite_difference_check(build, values) -> float:
    """Max relative error between tape gradients and central differences
    with step FD_STEP.

    ``build`` receives freshly created tape parameters and returns the
    scalar loss; it is re-evaluated 2 x (number of scalar entries) times
    for the central differences, so keep probe problems small.
    """
    h = FD_STEP
    values = [ad.constant(v).value.copy() for v in values]

    tape = ad.Tape()
    params = [tape.parameter(v) for v in values]
    loss = build(params)
    tape.backward(loss)
    analytic = [np.zeros_like(v) if p.grad is None else p.grad.copy()
                for p, v in zip(params, values)]

    def eval_at(vals):
        t = ad.Tape()
        return build([t.parameter(v) for v in vals]).item()

    worst = 0.0
    for k, base in enumerate(values):
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = eval_at(values)
            flat[j] = orig - h
            down = eval_at(values)
            flat[j] = orig
            central = (up - down) / (2.0 * h)
            ana = analytic[k].reshape(-1)[j]
            rel = abs(ana - central) / max(1e-12, abs(central))
            worst = max(worst, rel)
    return worst
