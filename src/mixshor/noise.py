"""Per-qubit stochastic noise: nonselective measurement and uniform Pauli.

Noise events are sampled per trajectory (one Bernoulli draw per qubit per
displayed gate); the channel applied when an event fires is the full
outcome mixture, since a running algorithm would not learn the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemat

__all__ = [
    "MEASUREMENT",
    "PAULI",
    "NoiseConfig",
    "dephase_qubit",
    "depolarize_qubit",
    "noise_pass",
]

MEASUREMENT = "measurement"
PAULI = "pauli"


@dataclass(frozen=True)
class NoiseConfig:
    """Which channel fires, with what per-qubit per-gate probability."""

    kind: str
    prob: float
    exclude_control: bool = False

    def __post_init__(self):
        if self.kind not in (MEASUREMENT, PAULI):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"noise probability {self.prob} outside [0, 1]")


def _qubit_legs(rho: np.ndarray, q: int) -> np.ndarray:
    """One state or a (..., d, d) stack, viewed as (..., A, 2, C, A, 2, C).

    The two axes of length 2 are qubit q's ket and bra legs; A = 2^q and
    C = 2^(m-1-q) gather the qubits before and after it.
    """
    m = densemat.num_qubits(rho[(0,) * (rho.ndim - 2)])  # of one member of a stack
    if not 0 <= q < m:
        raise ValueError(f"bad qubit index {q}")
    outer, inner = 1 << q, 1 << (m - 1 - q)
    return rho.reshape(rho.shape[:-2] + (outer, 2, inner) * 2)


def dephase_qubit(rho: np.ndarray, q: int) -> np.ndarray:
    """Nonselective computational-basis measurement of qubit q.

    P0 rho P0 + P1 rho P1: diagonal entries are untouched, coherences
    between the two values of qubit q are zeroed.  `rho` is one state or
    a stack of states along leading axes.
    """
    out = _qubit_legs(rho, q).copy()
    out[..., 0, :, :, 1, :] = 0.0
    out[..., 1, :, :, 0, :] = 0.0
    return out.reshape(rho.shape)


def depolarize_qubit(rho: np.ndarray, q: int) -> np.ndarray:
    """Uniform mixture of identity and the three Pauli conjugations on qubit q.

    Computed in closed form as I/2 (x) Tr_q rho: the qubit is left
    maximally mixed, which removes any entanglement across cuts isolating
    it.  `rho` is one state or a stack of states along leading axes.
    """
    legs = _qubit_legs(rho, q)
    half_reduced = (legs[..., 0, :, :, 0, :] + legs[..., 1, :, :, 1, :]) * 0.5
    out = np.zeros_like(legs)
    out[..., 0, :, :, 0, :] = half_reduced
    out[..., 1, :, :, 1, :] = half_reduced
    return out.reshape(rho.shape)


def noise_pass(rho: np.ndarray, config: NoiseConfig | None, rng) -> np.ndarray:
    """One post-gate noise opportunity for every qubit of one state.

    Per qubit in ascending order (skipping the control qubit 0 when
    excluded), `rng.random()` gives one uniform draw, and the configured
    channel is applied when it falls below prob.  `rng` must hold the
    trajectory's dedicated stream so results are reproducible independent
    of scheduling.  The input is never mutated.
    """
    if config is None or config.prob == 0.0:
        return rho
    channel = dephase_qubit if config.kind == MEASUREMENT else depolarize_qubit
    start = 1 if config.exclude_control else 0
    out = rho
    for q in range(start, densemat.num_qubits(rho)):
        if rng.random() < config.prob:
            out = channel(out, q)
    return out
