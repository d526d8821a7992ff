"""Plain reference forms that more than one test module checks against."""

import numpy as np


def take_clamped(a, axis, off):
    """`a` shifted by `off` along `axis`, edge-clamped, via np.take over
    clipped indices."""
    n = a.shape[axis]
    return np.take(a, np.clip(np.arange(n) + off, 0, n - 1), axis=axis)


def box_reference(a, axis, radius):
    """Edge-clamped box mean along one axis, its taps added in offset order."""
    if radius == 0:
        return a.copy()
    acc = np.zeros_like(a)
    for off in range(-radius, radius + 1):
        acc += take_clamped(a, axis, off)
    return acc / (2 * radius + 1)


def std_normalized(stack):
    """Zero mean / unit variance per channel, dividing by `np.std`: constant
    channels become zero."""
    sigma = stack.std(axis=(1, 2), keepdims=True)
    flat = sigma[:, 0, 0] < 1e-12
    out = (stack - stack.mean(axis=(1, 2), keepdims=True)) / np.where(sigma < 1e-12, 1.0, sigma)
    out[flat] = 0.0
    return out


def mean_correlation(vol):
    """The (C+1, N, H, W) volume the cost reads: left - matched per channel,
    then the mean of the group correlations."""
    c = vol.data.shape[0] - vol.n_groups
    return np.concatenate([vol.data[:c], vol.data[c:].mean(axis=0, keepdims=True)])
