"""Test-side scalarising probe for gradient checks; not a library op."""

import numpy as np

from neucalib import autodiff as ad


def weighted_sum(x, weights=1.0):
    """sum(x * weights) as one 1 x 1 node, so a tensor of any shape can be
    gradient-checked; ``weights`` broadcasts against x."""
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), x.shape)
    return ad.record("weighted_sum", (x,), lambda g: (g[0, 0] * w,),
                     np.array([[(x.value * w).sum()]]))
