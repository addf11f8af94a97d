"""Radial cutoff functions generating the dyadic decomposition.

The low-pass profile chi is smooth, radial, equal to 1 on |k| <= 3/4 and
0 on |k| >= 4/3.  The shell profile is the difference of two dilates,

    phi(r) = chi(r/2) - chi(r),

supported on 3/4 <= r <= 8/3 and equal to 1 on 4/3 <= r <= 3/2.  Dilates
of phi telescope:

    chi(r) + sum_{j=0..J} phi(r / 2^j) = chi(r / 2^{J+1}),

which equals 1 wherever r <= (3/4) 2^{J+1}.  The transition is built from
the classical exp(-1/t) bump, so every profile is C-infinity.
chi, phi and partition over PLATEAU_RADIUS and SUPPORT_RADIUS are the
one partition; every block operator reads it.
"""

import numpy as np

PLATEAU_RADIUS = 0.75
SUPPORT_RADIUS = 4.0 / 3.0


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore"):
        # 1 / (1 + exp(1/t - 1/(1-t))) without forming the tiny exponentials
        out[mid] = 1.0 / (1.0 + np.exp(1.0 / tm - 1.0 / (1.0 - tm)))
    return out if out.ndim else float(out)


def chi(r):
    r = np.asarray(r, dtype=np.float64)
    return smooth_step((SUPPORT_RADIUS - r) / (SUPPORT_RADIUS - PLATEAU_RADIUS))


def phi(r):
    r = np.asarray(r, dtype=np.float64)
    return chi(r / 2.0) - chi(r)


def partition(r, levels: int):
    """chi(r) + sum_{j<=levels} phi(2^-j r); telescopes to a dilate of chi."""
    r = np.asarray(r, dtype=np.float64)
    total = chi(r)
    for j in range(levels + 1):
        total = total + phi(r / 2.0**j)
    return total
