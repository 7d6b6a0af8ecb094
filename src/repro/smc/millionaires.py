"""Yao's Millionaires' Problem Protocol -- Algorithm 1, implemented literally.

Roles follow the paper exactly: the *i-holder* ("Alice" in Algorithm 1)
owns the RSA keypair; the *j-holder* ("Bob") learns whether ``i < j``
first and, in step 7, tells the i-holder.

Protocol recap (Algorithm 1):

1. Bob picks a random N-bit integer ``x`` and computes ``k = Ea(x)``.
2. Bob sends Alice ``k - j + 1``.
3. Alice computes ``y_u = Da(k - j + u)`` for ``u = 1..n0``.
4. Alice draws random primes ``p`` of ``N/2`` bits until all
   ``z_u = y_u mod p`` pairwise differ by at least 2 in the mod-p sense.
5. Alice sends ``p`` and ``z_1..z_i, z_{i+1}+1, ..., z_{n0}+1`` (mod p).
6. Bob inspects the j-th number: equal to ``x mod p`` means ``i >= j``,
   otherwise ``i < j``.
7. Bob tells Alice the conclusion.

Correctness hinges on ``y_j = Da(k - j + j) = Da(Ea(x)) = x``.
Communication is ``O(c2 * n0)`` bits per execution (one number out,
``n0 + 1`` numbers back, one conclusion bit) -- exactly the term the
paper's cost formulas charge per comparison.
"""

from __future__ import annotations

import random

from repro.crypto.engine import ModexpEngine, default_engine
from repro.crypto.primes import random_prime_in_range
from repro.crypto.rsa import RsaKeyPair
from repro.net.party import Party

# Step 4 retries a fresh prime when residues collide; with p >= 8*n0 the
# per-draw failure probability is small, so this bound is generous.
_MAX_PRIME_RETRIES = 5000


class YmppError(ValueError):
    """Raised on domain violations or a failed prime search."""


def ympp_bit_parameter(n0: int) -> int:
    """The N of Algorithm 1: the bit size of Bob's random ``x``.

    ``p`` has ``N/2`` bits.  The step-4 separation check succeeds only
    when no two of the ``n0`` pseudorandom residues land within 2 of each
    other mod ``p`` -- a birthday bound, so ``p`` must comfortably exceed
    ``n0^2`` (we size ``p >= 64 * n0^2``, putting the per-draw collision
    probability around 3/64 and keeping the retry loop short).
    """
    return 2 * max(16, 2 * n0.bit_length() + 6)


async def ympp_less_than(i_party: Party, i: int, j_party: Party, j: int,
                         n0: int, keypair: RsaKeyPair, *,
                         announce: bool = True, label: str = "ympp",
                         engine: ModexpEngine | None = None) -> bool:
    """Run Algorithm 1: decide ``i < j`` for ``i, j`` in ``[1, n0]``.

    Args:
        i_party: holder of ``i`` and of the RSA keypair (Algorithm 1's
            Alice).  Their ``rng`` drives the prime search.
        i: i_party's private value.
        j_party: holder of ``j`` (Algorithm 1's Bob); learns the result.
        j: j_party's private value.
        n0: public domain bound; both inputs must lie in ``[1, n0]``.
        keypair: i_party's RSA keypair.  The public half is assumed to be
            known to j_party already (the session sends it once).
        announce: when True, run step 7 so both parties hold the result.
        label: transcript label prefix.
        engine: optional :class:`~repro.crypto.engine.ModexpEngine`; the
            step-3 decryption sweep (``n0`` RSA powmods) runs as one
            sharded job batch through it.

    Returns:
        ``i < j``.  Semantically the value is known to j_party, and to
        i_party only if ``announce``.
    """
    if not 1 <= i <= n0:
        raise YmppError(f"i={i} outside domain [1, {n0}]")
    if not 1 <= j <= n0:
        raise YmppError(f"j={j} outside domain [1, {n0}]")
    modulus = keypair.public_key.n
    bit_parameter = ympp_bit_parameter(n0)
    if modulus.bit_length() <= bit_parameter:
        raise YmppError(
            f"RSA modulus ({modulus.bit_length()} bits) too small for "
            f"N={bit_parameter}; increase rsa_bits or decrease n0"
        )

    # --- Step 1 (j_party): random N-bit x, k = Ea(x). -------------------
    x = j_party.rng.getrandbits(bit_parameter)
    k = keypair.public_key.encrypt(x % modulus)

    # --- Step 2 (j_party -> i_party): k - j + 1. -------------------------
    await j_party.send(f"{label}/step2_shifted_cipher", (k - j + 1) % modulus)

    # --- Step 3 (i_party): y_u = Da(k - j + u), u = 1..n0. ---------------
    shifted = i_party.receive(f"{label}/step2_shifted_cipher")
    y_values = (engine or default_engine()).modexp_batch(
        [((shifted + u - 1) % modulus, keypair.private_key.d, modulus)
         for u in range(1, n0 + 1)])

    # --- Step 4 (i_party): prime search with the mod-p separation check. -
    prime, residues = _search_separated_prime(
        y_values, bit_parameter, i_party.rng)

    # --- Step 5 (i_party -> j_party): p, then z_u (+1 past position i). --
    disclosed = [residues[u - 1] if u <= i else (residues[u - 1] + 1) % prime
                 for u in range(1, n0 + 1)]
    await i_party.send(f"{label}/step5_prime", prime)
    await i_party.send(f"{label}/step5_sequence", disclosed)

    # --- Step 6 (j_party): check the j-th number. -------------------------
    prime_received = j_party.receive(f"{label}/step5_prime")
    sequence = j_party.receive(f"{label}/step5_sequence")
    i_less_than_j = sequence[j - 1] != x % prime_received

    # --- Step 7 (j_party -> i_party): announce. ---------------------------
    if announce:
        await j_party.send(f"{label}/step7_conclusion", i_less_than_j)
        return i_party.receive(f"{label}/step7_conclusion")
    return i_less_than_j


def _search_separated_prime(y_values: list[int], bit_parameter: int,
                            rng: random.Random) -> tuple[int, list[int]]:
    """Step 4: find ``p`` such that all ``y_u mod p`` differ by >= 2 mod p."""
    half_bits = bit_parameter // 2
    low = 1 << (half_bits - 1)
    high = 1 << half_bits
    for _ in range(_MAX_PRIME_RETRIES):
        prime = random_prime_in_range(low, high, rng)
        residues = [y % prime for y in y_values]
        if _pairwise_separated(residues, prime):
            return prime, residues
    raise YmppError(
        f"no prime of {half_bits} bits separated {len(y_values)} residues "
        f"after {_MAX_PRIME_RETRIES} attempts"
    )


def _pairwise_separated(residues: list[int], prime: int) -> bool:
    """All residues differ by at least 2 "in the mod p sense" (circular)."""
    ordered = sorted(residues)
    for left, right in zip(ordered, ordered[1:]):
        if right - left < 2:
            return False
    # Wrap-around gap between the largest and smallest residue.
    if len(ordered) >= 2 and (ordered[0] + prime) - ordered[-1] < 2:
        return False
    return True
