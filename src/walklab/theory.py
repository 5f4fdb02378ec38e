"""Closed-form predictions for the local-time limit laws.

The limiting objects are all functionals of a geometric law with success
parameter gamma (the escape probability): the almost-sure limit of
L_n(alpha)/n is gamma * E(Z^alpha) for Z ~ Geom(gamma), the limit law of
the local time at a uniform visited site is Geom(gamma), and the expected
occupation counts E(Q_j(n)) admit an exact finite-n convolution formula
in terms of the no-return sequence.  For a rational law that formula is
evaluated by Kronecker substitution: each sequence, scaled to integers
by powers of the step law's common denominator, is packed into one big
integer, so each convolution is a single big-integer product (Schoenhage
1982; Harvey, arXiv:0712.4046).  The variance-bound inputs, the Green
cross-sum and sup_x P(S_m = x), are computed in doubles for every law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadParam, InvariantViolation
from .gamma import ReturnLaw, _evolution, return_sequence
from .steps import StepLaw, _check_alpha, _check_horizon

MOMENT_MAX_TERMS = 10 ** 7


@dataclass(frozen=True)
class Prediction:
    """A theory value together with its truncation error."""

    kind: str
    inputs: dict
    value: float
    truncation_error: float

    def __post_init__(self):
        if not (self.truncation_error >= 0 and math.isfinite(self.truncation_error)
                and self.value >= 0):
            raise InvariantViolation(
                f"{self.kind} prediction {self.value!r} with truncation error "
                f"{self.truncation_error!r} is not nonnegative and finite")


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0 < gamma <= 1:
        raise BadParam(f"escape probability must be in (0, 1], got {gamma}")
    return gamma


def _check_j(j: int) -> None:
    if j < 1:
        raise BadParam(f"j must be >= 1, got {j}")


def _check_s(s: float) -> None:
    if not 0 <= s < 1:
        raise BadParam(f"s must be in [0, 1), got {s}")


def moment_limit(alpha: float, gamma: float, tol: float = 1e-10) -> Prediction:
    """lim L_n(alpha)/n = sum_j j^alpha gamma^2 (1-gamma)^(j-1).

    Partial sum with a geometric-envelope tail bound: once the ratio
    q = (1-gamma)(1+1/J)^alpha drops below 1, the tail after J terms is
    at most gamma^2 (1-gamma)^J (J+1)^alpha / (1-q).  gamma = 1 is the
    degenerate point mass at 1, where the value is exactly 1.  Raises
    BadParam for a non-finite or negative alpha, a tol that is not a
    positive number, a sum that overflows a double, and a sum that has
    not met tol after MOMENT_MAX_TERMS terms.
    """
    gamma = _check_gamma(gamma)
    _check_alpha(alpha)
    if not (math.isfinite(tol) and tol > 0):
        raise BadParam(f"tol must be finite and > 0, got {tol}")
    one_minus = 1.0 - gamma
    total = 0.0
    weight = gamma * gamma  # gamma^2 (1-gamma)^(j-1)
    try:
        for j in range(1, MOMENT_MAX_TERMS + 1):
            total += weight * j ** alpha
            weight *= one_minus
            q = one_minus * (1.0 + 1.0 / j) ** alpha
            if q < 1.0:
                bound = weight * (j + 1) ** alpha / (1.0 - q)
                if bound < tol:
                    return Prediction(kind="moment_limit",
                                      inputs={"alpha": alpha, "gamma": gamma},
                                      value=total, truncation_error=bound)
    except OverflowError:
        raise BadParam(f"moment sum overflows a double at alpha = {alpha}") from None
    raise BadParam(f"moment_limit did not converge within {MOMENT_MAX_TERMS} terms")


def geometric_pmf(gamma: float, u: int) -> float:
    """P(Z = u) = gamma (1-gamma)^(u-1) for Z ~ Geom(gamma)."""
    gamma = _check_gamma(gamma)
    if u < 1:
        raise BadParam(f"u must be >= 1, got {u}")
    return gamma * (1.0 - gamma) ** (u - 1)


def qj_limit(gamma: float, j: int) -> float:
    """lim E(Q_j(n))/n = gamma^2 (1-gamma)^(j-1)."""
    gamma = _check_gamma(gamma)
    _check_j(j)
    return gamma * gamma * (1.0 - gamma) ** (j - 1)


def expected_qj_formula(ret: ReturnLaw, j: int, n: int):
    """Exact E(Q_j(n)) from the no-return sequence.

    Splitting the path at the j visit times of a site visited exactly j
    times gives a no-return stretch, j-1 returns, and a final no-return
    stretch; summing over the visit times is the (j+1)-fold convolution
    (gamma-sequence) * (return-time law)^{*(j-1)} * (gamma-sequence),
    read off at index n.

    An exact ReturnLaw is convolved by Kronecker substitution.  Index m
    of both sequences is scaled by D**m (D = ret.denom), which makes every
    entry an integer at most D**m, and each sequence is packed into one
    int with n+1 fixed-width slots, index m in slot m.  A polynomial
    product is then one big-integer product, masked back to n+1 slots; j
    of them leave D**n E(Q_j(n)) in slot n.  A coefficient at index m of
    a product of j+1 such sequences is at most (m+1)**j D**m, so a slot
    of bits(D**n) + j bits(n+1) + 1 bits, rounded up to whole bytes,
    never carries into the next.  A float ReturnLaw runs the direct
    O(j n^2) convolution in doubles and returns a float; its sums are
    np.einsum and math.fsum, which call no BLAS, so the value does not
    depend on the BLAS thread count.
    """
    _check_j(j)
    if ret.horizon < n:
        raise BadParam(f"ReturnLaw horizon {ret.horizon} < n={n}")
    if ret.exact:
        return _kronecker_qj(ret, j, n)
    g = np.array(ret.gamma_seq[:n + 1], dtype=np.float64)
    tau = np.array([0, *ret.tau_pmf()[:n]], dtype=np.float64)
    conv = g
    for _ in range(j - 1):
        # row k of the window is conv[k - n..k], zero before conv[0]
        rows = sliding_window_view(np.concatenate([np.zeros(n), conv]), n + 1)
        conv = np.einsum("kj,j->k", rows, tau[::-1])
    return math.fsum((conv * g[::-1]).tolist())


def _kronecker_qj(ret: ReturnLaw, j: int, n: int) -> Fraction:
    """expected_qj_formula for an exact ReturnLaw, as j big-int products."""
    ret.check_invariants()  # the slot bound needs 0 <= entry <= D**m
    d = ret.denom
    g = ret.numerators()[:n + 1]
    # P(tau = m) D**m = D (gamma(m-1) D**(m-1)) - gamma(m) D**m
    tau = [0, *(d * a - b for a, b in zip(g, g[1:]))]
    width = ((d ** n).bit_length() + j * (n + 1).bit_length() + 8) // 8
    bits = 8 * width
    mask = (1 << bits * (n + 1)) - 1

    def pack(seq):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in seq),
                              "little")

    g_packed = pack(g)
    tau_packed = pack(tau)
    conv = g_packed
    for _ in range(j - 1):
        conv = (conv * tau_packed) & mask
    slot = ((conv * g_packed) >> (bits * n)) & ((1 << bits) - 1)
    return Fraction(slot, d ** n)


def qj_generating(ret: ReturnLaw, j: int, s: float, n: int) -> Prediction:
    """Truncated generating function of E(Q_j): A_N(s)^2 B_N(s)^(j-1).

    A_N truncates sum s^m gamma(m), B_N truncates sum s^m P(tau=m).  The
    truncation error combines the factor tails (each at most
    s^(N+1)/(1-s), pushed through the product rule) with the dropped
    coefficients beyond N (each E(Q_j(m)) <= m+1).
    """
    _check_j(j)
    _check_s(s)
    if ret.horizon < n:
        raise BadParam(f"ReturnLaw horizon {ret.horizon} < N={n}")
    powers = np.power(s, np.arange(n + 1))
    g = np.asarray([float(x) for x in ret.gamma_seq[:n + 1]])
    tau = np.asarray([0.0] + [float(x) for x in ret.tau_pmf()[:n]])
    a_val = math.fsum((powers * g).tolist())
    b_val = math.fsum((powers * tau).tolist())
    value = a_val ** 2 * b_val ** (j - 1)
    delta = s ** (n + 1) / (1.0 - s)
    factor_tail = (a_val + delta) ** 2 * (b_val + delta) ** (j - 1) - value
    coeff_tail = ((n + 2) * s ** (n + 1) * (1 - s) + s ** (n + 2)) / (1 - s) ** 2
    return Prediction(kind="qj_generating",
                      inputs={"j": j, "s": s, "N": n},
                      value=value, truncation_error=factor_tail + coeff_tail)


def green_cross_sum(law: StepLaw, n: int) -> float:
    """sum_y G_n(0,y) G_n(0,-y) for the n-step Green's function, in doubles.

    Because increments are iid, G_n(0,y) G_n(0,-y) summed over y equals
    sum over m, m' in [1,n] of P(S_{m+m'} = 0), and s = m+m' arises
    min(s-1, 2n+1-s) times; so only the return-probability sequence up to
    2n is needed, for rational and float laws alike.  The weighted terms
    are summed by math.fsum, correctly rounded and free of BLAS.
    """
    if n < 1:
        raise BadParam(f"n must be >= 1, got {n}")
    r = return_sequence(law, 2 * n)
    s = np.arange(2, 2 * n + 1)
    weights = np.minimum(s - 1, 2 * n + 1 - s)
    return math.fsum((weights * r[2:]).tolist())


def sup_pmf_sequence(law: StepLaw, m_max: int) -> np.ndarray:
    """sup_x P(S_m = x) for every m = 0..m_max in one float DP sweep."""
    _check_horizon(m_max)
    return np.array([ev.sup() for ev in _evolution(law.to_float(), m_max)])
