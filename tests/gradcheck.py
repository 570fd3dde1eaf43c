"""Helpers shared by gradient tests: central finite differences, and inputs in
the kernels' ringed layout."""

import numpy as np

from gridcast import tensor_nn as tn


def ringed(a):
    """A copy of ``a`` in the kernels' ringed layout."""
    x = tn.ringed_empty(*a.shape, a.dtype)
    x[...] = a
    return x


def numeric_grad_sampled(f, x, indices, eps=1e-4):
    """Central differences at selected flat (row-major) indices only. Each
    coordinate is perturbed in ``x`` itself, so a view such as a ringed
    activation is perturbed where the kernels read it."""
    out = np.zeros(len(indices), dtype=x.dtype)
    for j, i in enumerate(indices):
        at = np.unravel_index(i, x.shape)
        old = x[at]
        x[at] = old + eps
        lp = f()
        x[at] = old - eps
        lm = f()
        x[at] = old
        out[j] = (lp - lm) / (2 * eps)
    return out


def numeric_grad(f, x, eps=1e-4):
    """d f() / d x by central differences, mutating x in place coordinate-wise."""
    return numeric_grad_sampled(f, x, range(x.size), eps).reshape(x.shape)


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))
