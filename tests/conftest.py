import sys
from pathlib import Path

import numpy as np
import pytest

from extphase import HamiltonianSystem

# tools/ holds the parity script, whose kernel edge values the tests share
sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))


class LinearSystem(HamiltonianSystem):
    """H = a*q + b*p with constant gradient; flows are exact translations."""

    dim = 1

    def __init__(self, a=1.0, b=2.0):
        self.a = a
        self.b = b

    def energy(self, q, p):
        return float(self.a * q[0] + self.b * p[0])

    def grad(self, q, p):
        return np.array([self.a]), np.array([self.b])


class Oscillator(HamiltonianSystem):
    """H = (q^2 + p^2) / 2, the rotation with unit frequency."""

    dim = 1

    def energy(self, q, p):
        return 0.5 * float(q[0] ** 2 + p[0] ** 2)

    def grad(self, q, p):
        return q.copy(), p.copy()


class GradOnly(HamiltonianSystem):
    """A wrapper that defines only ``grad``, as a timing wrapper does, and
    counts its calls; it inherits the per-row default ``fields``."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.calls = 0

    def energy(self, q, p):
        return self.base.energy(q, p)

    def grad(self, q, p):
        self.calls += 1
        return self.base.grad(q, p)


@pytest.fixture
def linear_system():
    return LinearSystem()


@pytest.fixture
def oscillator():
    return Oscillator()


def seeded_rng(seed: int) -> np.random.Generator:
    print(f"rng seed = {seed}")
    return np.random.default_rng(seed)


def same_bits(a, b) -> bool:
    """Whether two float arrays are equal bit for bit, a nan counted equal to
    any nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and (
        np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())
