"""Random instances shared by the test modules.

Each factory takes a seed rather than a generator, so every test draws
its own instance independently of the others.  They are not the
generator-taking factories of ``relugeom.verify`` (rcond >= 1e-3, one
shared generator): moving a test onto those would change its instance.
"""

import numpy as np

from relugeom import OutputLayer, ReluNetwork
from relugeom.boundary import normalize_output_layer
from relugeom.layer import ReluLayer


def random_square_layer(d, seed=0):
    """Square layer with a standard normal matrix of condition number below 1e4."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.normal(size=(d, d))
        if np.linalg.cond(a) < 1e4:
            return ReluLayer.build(a, rng.normal(size=d))


def random_output(d, seed=0):
    """Normalized readout with weights within a factor 1 / 0.15 of each other,
    |bias| >= 0.2 and at least one positive weight."""
    rng = np.random.default_rng(seed)
    while True:
        w = rng.normal(size=d)
        b = rng.normal() * 1.5
        if np.abs(w).min() < 0.15 * np.abs(w).max() or abs(b) < 0.2:
            continue
        out = normalize_output_layer(OutputLayer(w, b))
        if np.any(out.weights > 0):
            return out


def random_net(depth, d, seed=0, offset_scale=0.5):
    """Square network whose composed layer matrices keep condition number <= 1e6."""
    rng = np.random.default_rng(seed)
    while True:
        mats = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(depth)]
        offs = [rng.normal(size=d) * offset_scale for _ in range(depth)]
        composed = np.eye(d)
        ok = True
        for m in mats:
            composed = m @ composed
            if np.linalg.cond(composed) > 1e6:
                ok = False
                break
        if ok:
            return ReluNetwork.from_arrays(mats, offs, rng.normal(size=d), rng.normal() * 1.5)
