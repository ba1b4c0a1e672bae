"""Slow reference implementations that check the closed forms and the recursion.

Two independent cross-checks live here:

* a dense 16-dimensional two-pair density-matrix simulator realizing the
  ideal swap and DEJMPS maps from actual gates, measurements and
  postselection, used as ground truth for the closed forms in ``states``;
* a vectorized Monte-Carlo burst sampler that replays the multiplexed
  generation / distillation / pairing process trial by trial, used as ground
  truth for the recursion in ``cascade``; ``repeaterscope chain --oracle``
  attaches its numbers to a chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CascadeConfig
from .states import BellDiagonal

# ---------------------------------------------------------------------------
# dense two-pair simulator
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SQRT2 = np.sqrt(2.0)
# Bell vectors in the (a, b, c, d) = (phi+, phi-, psi+, psi-) order.
_BELL = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
).T / _SQRT2

# Pauli correction applied to the outer qubit for each Bell measurement
# outcome, in the same (phi+, phi-, psi+, psi-) outcome order.
_SWAP_CORRECTION = (_I2, _Z, _X, _Z @ _X)

_SQRT_PLUS_IX = (_I2 + 1j * _X) / _SQRT2
_SQRT_MINUS_IX = (_I2 - 1j * _X) / _SQRT2


def _pair_density(state: BellDiagonal) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    for weight, idx in zip(state.as_tuple(), range(4)):
        vec = _BELL[:, idx]
        rho += weight * np.outer(vec, vec.conj())
    return rho


def _bell_coefficients(rho: np.ndarray) -> BellDiagonal:
    diag = np.real(_BELL.conj().T @ rho @ _BELL).diagonal()
    off = _BELL.conj().T @ rho @ _BELL - np.diag(diag)
    if np.max(np.abs(off)) > 1e-10:
        raise AssertionError("density matrix is not Bell-diagonal")
    coeffs = np.clip(diag, 0.0, 1.0)
    coeffs = coeffs / coeffs.sum()
    return BellDiagonal(*coeffs)


def _kron(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _cnot(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        out = sum(bit << (n - 1 - q) for q, bit in enumerate(bits))
        mat[out, basis] = 1.0
    return mat


def _trace_out_last_two(rho16: np.ndarray) -> np.ndarray:
    t = rho16.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    return np.einsum("abcdefcd->abef", t).reshape(4, 4)


def _trace_out_middle_two(rho16: np.ndarray) -> np.ndarray:
    t = rho16.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    return np.einsum("abcdebcf->adef", t).reshape(4, 4)


def dm_swap(s1: BellDiagonal, s2: BellDiagonal) -> tuple[BellDiagonal, float]:
    """Ideal entanglement swap via Bell measurement plus Pauli correction.

    Qubit order is (A, R1, R2, B): pair 1 spans (A, R1), pair 2 spans
    (R2, B), and the measurement acts on the repeater qubits (R1, R2).
    Deterministic, so the success probability is always 1.
    """
    rho = _kron(_pair_density(s1), _pair_density(s2))
    final = np.zeros((4, 4), dtype=complex)
    for outcome in range(4):
        vec = _BELL[:, outcome]
        proj = _kron(_I2, np.outer(vec, vec.conj()), _I2)
        branch = proj @ rho @ proj
        reduced = _trace_out_middle_two(branch)
        corr = _kron(_I2, _SWAP_CORRECTION[outcome])
        final += corr @ reduced @ corr.conj().T
    return _bell_coefficients(final), 1.0


def dm_dejmps(s1: BellDiagonal, s2: BellDiagonal) -> tuple[BellDiagonal, float]:
    """Ideal DEJMPS round from gates: +-iX rotations, bilateral CNOT,
    Z measurements on the sacrificed pair, coincidence postselection.

    Qubit order is (A1, B1, A2, B2); pair 2 is measured out.
    """
    rho = _kron(_pair_density(s1), _pair_density(s2))
    rot = _kron(_SQRT_MINUS_IX, _SQRT_PLUS_IX, _SQRT_MINUS_IX, _SQRT_PLUS_IX)
    gate = _cnot(0, 2, 4) @ _cnot(1, 3, 4)
    rho = gate @ rot @ rho @ rot.conj().T @ gate.conj().T

    kept = np.zeros((4, 4), dtype=complex)
    for bits in ((0, 0), (1, 1)):
        ket = np.zeros(4, dtype=complex)
        ket[bits[0] * 2 + bits[1]] = 1.0
        proj = _kron(np.eye(4, dtype=complex), np.outer(ket, ket.conj()))
        kept += _trace_out_last_two(proj @ rho @ proj)
    p_succ = float(np.real(np.trace(kept)))
    return _bell_coefficients(kept / p_succ), p_succ


def dm_dephase(state: BellDiagonal, t: float, t2: float) -> BellDiagonal:
    """Z-dephasing of one stored qubit applied at the density-matrix level."""
    flip = 0.5 * (1.0 - np.exp(-2.0 * t / t2))
    rho = _pair_density(state)
    zq = _kron(_Z, _I2)
    rho = (1.0 - flip) * rho + flip * zq @ rho @ zq
    return _bell_coefficients(rho)


# ---------------------------------------------------------------------------
# Monte-Carlo burst sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloConfig:
    """Trial count and seeding for the burst sampler.

    Trials are processed in fixed-size chunks, each driven by its own
    counter-based Philox stream keyed by (seed, chunk index), so the
    aggregate is independent of how chunks are scheduled.
    """

    trials: int
    seed: int
    chunk_size: int = 1 << 16

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")


@dataclass
class McCascadeResult:
    """Empirical burst statistics.

    ``end_histogram[k]`` counts trials that finished cleanly (every segment
    held at least one pair at every level) with k end-to-end pairs.
    ``reset_trials[i]`` / ``dropped_trials[i]`` count trials first classified
    at level i as a reset (per the termination bookkeeping) or as carrying a
    zero count outside that bookkeeping.  ``entered_trials[i]`` counts trials
    still clean when entering level i.  Operation counts cover every trial up
    to the level where it stopped.
    """

    trials: int
    end_histogram: np.ndarray
    clean_trials: int
    reset_trials: np.ndarray
    dropped_trials: np.ndarray
    entered_trials: np.ndarray
    swap_ops_sum: float
    swap_ops_sumsq: float
    distill_ops_sum: float
    distill_ops_sumsq: float

    @property
    def end_distribution(self) -> np.ndarray:
        if self.clean_trials == 0:
            raise ZeroDivisionError("no clean trials recorded")
        return self.end_histogram / self.clean_trials

    def completion_estimate(self) -> tuple[float, float]:
        """Product-form estimate of the no-reset probability and its stderr.

        Each level contributes the fraction of clean entrants that did not
        reset there; the product matches the per-level bookkeeping of the
        analytic recursion.  The stderr follows from the delta method on the
        log of the product.
        """
        est = 1.0
        var_log = 0.0
        for entered, reset in zip(self.entered_trials, self.reset_trials):
            if entered == 0:
                return 0.0, 0.0
            frac = reset / entered
            est *= 1.0 - frac
            # a level with no observed resets still carries ~1/n uncertainty
            var_log += max(frac, 1.0 / entered) / ((1.0 - frac) * entered)
        return est, est * np.sqrt(var_log)

    def ops_estimate(self) -> tuple[float, float, float, float]:
        """(mean swaps, stderr, mean distill attempts, stderr) per trial."""
        n = self.trials
        sw_mean = self.swap_ops_sum / n
        di_mean = self.distill_ops_sum / n
        sw_se = np.sqrt(max(self.swap_ops_sumsq / n - sw_mean**2, 0.0) / n)
        di_se = np.sqrt(max(self.distill_ops_sumsq / n - di_mean**2, 0.0) / n)
        return sw_mean, sw_se, di_mean, di_se


def mc_cascade(config: CascadeConfig, mc: MonteCarloConfig) -> McCascadeResult:
    """Replay the multiplexed burst process trial by trial.

    Per trial: draw Binomial(M, pi0) counts for all elementary links; reset
    if any link holds no pair.  Ascending the hierarchy, a scheduled
    distillation turns k pairs into Binomial(floor(k/2), d) survivors, and
    pairing adjacent segments keeps min(left, right) pairs.  A zero count
    after pairing is classified as a reset when the destination level has a
    distillation scheduled and the zero did not come from a (0, 1) pairing;
    other zeros are classified as dropped, mirroring the exclusions of the
    analytic termination bookkeeping.
    """
    n = config.n
    n_links = 1 << n
    flags = config.distill_flags
    dsucc = config.distill_success

    max_end = config.m
    for i in range(n):
        if flags[i]:
            max_end //= 2
    hist = np.zeros(max_end + 1, dtype=np.int64)
    reset_at = np.zeros(n + 1, dtype=np.int64)
    dropped_at = np.zeros(n + 1, dtype=np.int64)
    entered = np.zeros(n + 1, dtype=np.int64)
    clean_total = 0
    sw_sum = sw_sumsq = di_sum = di_sumsq = 0.0

    done = 0
    chunk_index = 0
    while done < mc.trials:
        size = min(mc.chunk_size, mc.trials - done)
        rng = np.random.Generator(np.random.Philox(key=(mc.seed, chunk_index)))
        chunk_index += 1
        done += size

        counts = rng.binomial(config.m, config.pi0, size=(size, n_links))
        swap_ops = np.zeros(size)
        distill_ops = np.zeros(size)
        clean = (counts > 0).all(axis=1)
        entered[0] += size
        reset_at[0] += int((~clean).sum())

        for i in range(n):
            entered[i + 1] += int(clean.sum())
            if flags[i]:
                attempts = counts // 2
                distill_ops += np.where(clean, attempts.sum(axis=1), 0.0)
                counts = rng.binomial(attempts, dsucc[i])
            left = counts[:, 0::2]
            right = counts[:, 1::2]
            merged = np.minimum(left, right)
            swap_ops += np.where(clean, merged.sum(axis=1), 0.0)

            zero_seg = merged == 0
            if flags[i + 1]:
                resettable = zero_seg & ~(
                    ((left == 0) & (right == 1)) | ((left == 1) & (right == 0))
                )
                is_reset = clean & resettable.any(axis=1)
                is_dropped = clean & zero_seg.any(axis=1) & ~is_reset
            else:
                is_reset = np.zeros(size, dtype=bool)
                is_dropped = clean & zero_seg.any(axis=1)
            reset_at[i + 1] += int(is_reset.sum())
            dropped_at[i + 1] += int(is_dropped.sum())
            clean &= ~(is_reset | is_dropped)
            counts = merged

        end_counts = counts[:, 0]
        clean_total += int(clean.sum())
        np.add.at(hist, end_counts[clean], 1)
        sw_sum += float(swap_ops.sum())
        sw_sumsq += float((swap_ops**2).sum())
        di_sum += float(distill_ops.sum())
        di_sumsq += float((distill_ops**2).sum())

    return McCascadeResult(
        trials=mc.trials,
        end_histogram=hist,
        clean_trials=clean_total,
        reset_trials=reset_at,
        dropped_trials=dropped_at,
        entered_trials=entered,
        swap_ops_sum=sw_sum,
        swap_ops_sumsq=sw_sumsq,
        distill_ops_sum=di_sum,
        distill_ops_sumsq=di_sumsq,
    )
