"""Known escape probabilities gamma = 1/G(0), one table for the gamma tests.

Each entry is a law, its true gamma and where that value comes from: a
closed form, or the continuous-time Green integral (axis_integral) for
laws whose atoms are signed unit vectors.  Nothing here calls walklab's
gamma engines, so a test can hold any leg against these values.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate, special

import walklab as wl
from walklab.steps import StepLaw


def axis_integral(law: StepLaw) -> float:
    """gamma of a law whose atoms are signed unit vectors or zero.

    Run in continuous time at rate 1 (the zero atom only waits), the walk
    has independent axes, and axis j, stepping up at rate u_j and down at
    rate v_j, is at 0 at time t with probability
    exp(-(u_j + v_j) t) I_0(2 sqrt(u_j v_j) t).  Each step takes mean time
    1, so G(0) = sum_m P(S_m = 0) is the integral over t >= 0 of the
    product of these, here written with the scaled Bessel function i0e.
    """
    up, down = np.zeros(law.d), np.zeros(law.d)
    for point, mass in law.atoms:
        axes = [(j, c) for j, c in enumerate(point) if c != 0]
        if len(axes) > 1 or any(abs(c) != 1 for _, c in axes):
            raise ValueError(f"atom {point} is not a signed unit vector or zero")
        for j, c in axes:
            (up if c == 1 else down)[j] += float(mass)
    rate = 2.0 * np.sqrt(up * down)
    decay = float((up + down - rate).sum())

    def at_origin(t: float) -> float:
        return math.exp(-decay * t) * float(np.prod(special.i0e(rate * t)))

    green, _ = integrate.quad(at_origin, 0.0, math.inf, limit=500, epsabs=0.0,
                              epsrel=1e-13)
    return 1.0 / green


def srw3_closed_form() -> float:
    """1/G(0) of srw(3), G(0) = sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24)
    Gamma(7/24) Gamma(11/24): 0.6594626704490009."""
    g = math.gamma
    return 32 * math.pi ** 3 / (math.sqrt(6) * g(1 / 24) * g(5 / 24) * g(7 / 24)
                                * g(11 / 24))


@dataclass(frozen=True)
class KnownGamma:
    law: StepLaw
    gamma: float
    source: str


KNOWN = {
    "srw3": KnownGamma(wl.srw(3), srw3_closed_form(),
                       "Glasser & Zucker, PNAS 74 (1977), closed form of G(0)"),
    # the eight diagonal steps: the body-centred cubic walk
    "diag3": KnownGamma(wl.make_law(3, [(v, 0.125) for v in itertools.product((1, -1), repeat=3)],
                                    False),
                        4 * math.pi ** 3 / math.gamma(1 / 4) ** 4,
                        "Watson, Q. J. Math. 10 (1939): G(0) = Gamma(1/4)^4 / (4 pi^3)"),
    **{f"bernoulli({p})": KnownGamma(wl.bernoulli(p), float(abs(2 * Fraction(p) - 1)),
                                     "|2p - 1|: a drifted line walk returns with 1 - |2p - 1|")
       for p in ("0.6", "0.7", "0.9")},
    # S_m = 0 iff m = 3a steps hold a up-steps (+2) and 2a down-steps (-1),
    # so G(0) = sum_a C(3a, a) / 8^a = B / (3 - 2B), B = sqrt(5) - 1 the
    # root of B = 1 + B^3 / 8 near 1
    "up2_down1": KnownGamma(wl.make_law(1, [((2,), 0.5), ((-1,), 0.5)], False),
                            (3 * math.sqrt(5) - 5) / 4,
                            "Graham, Knuth & Patashnik, Concrete Mathematics (5.61)"),
    **{name: KnownGamma(law, axis_integral(law), "axis_integral")
       for name, law in (("srw4", wl.srw(4)), ("srw5", wl.srw(5)),
                         ("drifted_srw(2,0.1)", wl.drifted_srw(2, 0.1)))},
}


def covers(value: float, error: float, gamma: float) -> bool:
    """|value - gamma| <= error, plus 4 eps * gamma of rounding, which the
    taboo DP's error bar, a Green tail, leaves out."""
    return abs(value - gamma) <= error + 4 * sys.float_info.epsilon * gamma
