"""The Definition 5 simulation harness (Lemmas 7 and 8, empirically).

A protocol is private in the semi-honest model if each party's view can
be *simulated* from its own input and output alone.  The paper proves
this for the Multiplication Protocol (Lemma 7) and Protocol HDP
(Lemma 8) by exhibiting simulators; this module implements those
simulators and an empirical indistinguishability check: run the real
protocol many times, run the simulator many times, and compare the
resulting view distributions with a two-sample Kolmogorov-Smirnov test.

A statistical test cannot prove *computational* indistinguishability --
it checks the necessary condition that no gross statistical artifact
separates real views from simulated ones (and it readily exposes broken
maskings: e.g. masks that fail to cover the value range fail these tests
immediately).  Experiment E11 reports the KS statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.paillier import PaillierKeyPair
from repro.net.channel import Channel, drive
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession


@dataclass(frozen=True)
class KsReport:
    """Two-sample KS comparison of real vs simulated view samples."""

    statistic: float
    p_value: float
    samples: int

    def indistinguishable(self, alpha: float = 0.01) -> bool:
        """True when the test does NOT reject equality at level alpha."""
        return self.p_value >= alpha


def ks_two_sample(real: list[float], simulated: list[float]) -> KsReport:
    """Two-sample KS test, implemented directly (no scipy dependency).

    Exact enough for the sample sizes used here; p-value via the
    asymptotic Kolmogorov distribution.
    """
    if not real or not simulated:
        raise ValueError("both samples must be non-empty")
    n, m = len(real), len(simulated)
    pooled = sorted(set(real) | set(simulated))
    real_sorted = sorted(real)
    sim_sorted = sorted(simulated)
    statistic = 0.0
    for value in pooled:
        cdf_real = _cdf(real_sorted, value)
        cdf_sim = _cdf(sim_sorted, value)
        statistic = max(statistic, abs(cdf_real - cdf_sim))
    effective = (n * m / (n + m)) ** 0.5
    p_value = _kolmogorov_sf((effective + 0.12 + 0.11 / effective) * statistic)
    return KsReport(statistic=statistic, p_value=p_value,
                    samples=min(n, m))


def _cdf(sorted_values: list[float], value: float) -> float:
    import bisect
    return bisect.bisect_right(sorted_values, value) / len(sorted_values)


def _kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution (series form)."""
    if t <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = (-1) ** (k - 1) * pow(2.718281828459045, -2.0 * k * k * t * t)
        total += term
        if abs(term) < 1e-12:
            break
    return max(0.0, min(1.0, 2.0 * total))


# ---------------------------------------------------------------------------
# Lemma 7: Multiplication Protocol views.
# ---------------------------------------------------------------------------

def real_masker_view_samples(trials: int, x: int, y: int,
                             config: SmcConfig,
                             seed: int = 0) -> list[float]:
    """The masker's view in real runs: the ciphertext ``E(x)`` it receives.

    Values are normalized to [0, 1) (divided by n^2) so KS operates on
    comparable scalars.
    """
    samples = []
    for trial in range(trials):
        channel = Channel()
        alice, bob = make_party_pair(channel, seed + trial, seed + trial + 1)
        session = SmcSession(alice, bob, config)
        mask = bob.rng.randrange(1 << 16)
        drive(session.multiplication(alice, x, bob, y, mask))
        n_squared = session.paillier_keys(alice.name).public_key.n_squared
        for entry in channel.transcript.with_label("mult/encrypted_x"):
            samples.append(entry.value / n_squared)
    return samples


def simulated_masker_view_samples(trials: int, keypair: PaillierKeyPair,
                                  rng: random.Random) -> list[float]:
    """Lemma 7's simulator for the masker: a uniform random group element.

    "Bob can simulate ... the encrypted value ... simply by generating a
    random [number] from an uniform distribution."
    """
    n_squared = keypair.public_key.n_squared
    samples = []
    for _ in range(trials):
        while True:
            candidate = rng.randrange(1, n_squared)
            if candidate % keypair.public_key.n != 0:
                break
        samples.append(candidate / n_squared)
    return samples


def real_receiver_output_samples(trials: int, x: int, y: int,
                                 mask_bound: int, config: SmcConfig,
                                 seed: int = 0) -> list[float]:
    """The receiver's protocol output ``u = x*y + v`` across real runs."""
    samples = []
    for trial in range(trials):
        channel = Channel()
        alice, bob = make_party_pair(channel, seed + trial, seed + 7 * trial + 3)
        session = SmcSession(alice, bob, config)
        mask = bob.rng.randrange(mask_bound)
        u = drive(session.multiplication(alice, x, bob, y, mask))
        samples.append(u / (abs(x * y) + mask_bound))
    return samples


def simulated_receiver_output_samples(trials: int, x: int, y_bound: int,
                                      mask_bound: int,
                                      rng: random.Random) -> list[float]:
    """Lemma 7's simulator for the receiver: ``x*y' + v'`` with random
    ``y'``, ``v'`` -- the simulated output distribution."""
    samples = []
    for _ in range(trials):
        y_prime = rng.randrange(-y_bound, y_bound + 1)
        v_prime = rng.randrange(mask_bound)
        samples.append((x * y_prime + v_prime) / (abs(x * y_bound) + mask_bound))
    return samples


# ---------------------------------------------------------------------------
# Lemma 8: Protocol HDP views (the peer's masked cross terms).
# ---------------------------------------------------------------------------

def real_hdp_term_samples(trials: int, querier_point: tuple[int, ...],
                          peer_point: tuple[int, ...], value_bound: int,
                          config: SmcConfig,
                          seed: int = 0) -> list[float]:
    """The peer's received masked cross terms ``d_x,t * d_y,t + r_t``.

    Samples all but the last coordinate's term (the last mask is the
    balancing term ``-sum r_t``, whose distribution is a sum, not a
    uniform draw -- Lemma 8's simulator covers the independent draws).
    """
    mask_bound = config.mask_bound(value_bound)
    samples = []
    for trial in range(trials):
        channel = Channel()
        alice, bob = make_party_pair(channel, seed + trial, seed + trial + 11)
        session = SmcSession(alice, bob, config)
        masks = [alice.rng.randrange(-mask_bound, mask_bound + 1)
                 for _ in range(len(querier_point) - 1)]
        masks.append(-sum(masks))
        received = drive(session.masked_dot_terms(
            bob, list(peer_point), alice, list(querier_point), masks))
        samples.extend(term / mask_bound for term in received[:-1])
    return samples


def simulated_hdp_term_samples(trials: int, dimensions: int,
                               value_bound: int, config: SmcConfig,
                               rng: random.Random) -> list[float]:
    """Lemma 8's simulator: "simulate r'_1..r'_m by generating m random
    numbers from a uniform random distribution"."""
    mask_bound = config.mask_bound(value_bound)
    samples = []
    for _ in range(trials):
        for _ in range(dimensions - 1):
            samples.append(rng.randrange(-mask_bound, mask_bound + 1)
                           / mask_bound)
    return samples
