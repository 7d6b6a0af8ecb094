"""Secure comparison backends behind one ``a <= b`` interface.

The DBSCAN protocols only ever need one predicate: *"decide whether
``a <= b`` where one party holds ``a``, the other holds ``b``, both lie
in a public interval, and a designated party (or both) learns the
answer"*.  Three interchangeable backends provide it:

- :class:`YaoMillionairesComparison` -- the paper's Algorithm 1, literal,
  ``O(n0)`` communication; practical for small public domains.
- :class:`BitwiseComparison` -- DGK-style, ``O(log n0)`` communication;
  the default for fixed-point distance domains (see DESIGN.md,
  Substitutions).
- :class:`OracleComparison` -- the ideal functionality: a trusted third
  party that sends nothing.  Zero communication and zero crypto, used to
  (a) run fast functional tests of the clustering layers and (b) serve as
  the ideal world that the simulation-paradigm tests compare against.

Strict/loose mapping: all backends reduce ``a <= b`` to the primitive
each protocol natively offers (YMPP decides ``i < j``; DGK decides
``x > y``) using the integer identity ``a <= b  <=>  a < b + 1`` so no
backend ever mis-handles ties.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.dgk import DgkKeyPair
from repro.crypto.engine import ModexpEngine
from repro.crypto.rsa import RsaKeyPair
from repro.net.party import Party
from repro.smc.bitwise_comparison import (
    dgk_greater_than,
    dgk_greater_than_batch,
)
from repro.smc.millionaires import ympp_less_than


class ComparisonError(ValueError):
    """Raised for out-of-interval inputs or invalid reveal targets."""


_REVEAL_TARGETS = ("a", "b", "both")


def _check_reveal_and_interval(reveal_to: str, lo: int, hi: int) -> None:
    if reveal_to not in _REVEAL_TARGETS:
        raise ComparisonError(f"reveal_to must be one of {_REVEAL_TARGETS}")
    if hi < lo:
        raise ComparisonError(f"empty interval [{lo}, {hi}]")


def _check_in_interval(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ComparisonError(f"{name}={value} outside [{lo}, {hi}]")


def _revealed(reveal_to: str, a_party: Party,
              b_party: Party) -> tuple[str, ...]:
    if reveal_to == "both":
        return (a_party.name, b_party.name)
    return (a_party.name if reveal_to == "a" else b_party.name,)


@dataclass
class ComparisonOutcome:
    """Result of one comparison plus who learned it (for the ledger)."""

    result: bool
    revealed_to: tuple[str, ...]


class SecureComparison(ABC):
    """Backend interface: decide ``a <= b`` over a public interval.

    Subclasses count invocations (``self.invocations``) so benchmarks can
    report secure-comparison counts (experiment E8) without touching
    protocol internals.
    """

    name: str = "abstract"

    def __init__(self):
        self.invocations = 0

    def leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
            lo: int, hi: int, reveal_to: str = "both",
            label: str = "cmp") -> ComparisonOutcome:
        """Decide ``a <= b``; ``a, b`` must lie in ``[lo, hi]``.

        Args:
            a_party: holder of ``a``.
            b_party: holder of ``b``.
            lo, hi: public interval bounds (inclusive).
            reveal_to: ``"a"``, ``"b"``, or ``"both"`` -- which party may
                learn the predicate.  When ``"both"``, the learning party
                sends one conclusion bit to the peer (counted).
            label: transcript label prefix.
        """
        _check_reveal_and_interval(reveal_to, lo, hi)
        _check_in_interval("a", a, lo, hi)
        _check_in_interval("b", b, lo, hi)
        self.invocations += 1
        result = self._leq(a_party, a - lo, b_party, b - lo,
                           domain=hi - lo, reveal_to=reveal_to,
                           label=f"{label}/{self.name}")
        return ComparisonOutcome(result=result,
                                 revealed_to=_revealed(reveal_to, a_party,
                                                       b_party))

    def leq_batch(self, a_party: Party, a_values: list[int], b_party: Party,
                  b_values: list[int], *, lo: int, hi: int,
                  reveal_to: str = "both", amortize: bool = False,
                  label: str = "cmp") -> list[ComparisonOutcome]:
        """Decide ``a_i <= b_i`` for every pair; semantics of one
        :meth:`leq` per pair.

        Every item is interval-checked exactly as :meth:`leq` checks its
        scalar inputs, each pair counts as one invocation (the E8
        secure-comparison count is the number of predicates evaluated,
        not the number of message round-trips), and the reveal target
        applies to every item.

        ``amortize`` is the caller's declaration that the *learning
        party's* value -- the DGK key-holder side, i.e. the ``a`` values
        when ``reveal_to`` is ``"a"``/``"both"``, the ``b`` values when
        ``"b"`` -- is constant across the batch **as a matter of public
        protocol structure** (e.g. a region query compares every peer
        point against one threshold).  Backends with a native batch
        protocol then share a single bit-encryption and round-trip for
        the whole batch; the declaration is validated and a mismatch
        raises before anything crosses the wire.  Without the
        declaration every backend runs one :meth:`_leq` per pair --
        identical messages to a caller-side loop.  The amortization
        decision is deliberately *never inferred* by comparing the
        private values themselves: message shapes would then depend on
        secret-value collisions, an equality side channel the
        per-point protocol does not have.
        """
        _check_reveal_and_interval(reveal_to, lo, hi)
        if len(a_values) != len(b_values):
            raise ComparisonError(
                f"{len(a_values)} a-values but {len(b_values)} b-values")
        for a in a_values:
            _check_in_interval("a", a, lo, hi)
        for b in b_values:
            _check_in_interval("b", b, lo, hi)
        if not a_values:
            return []
        if amortize:
            key_side = a_values if reveal_to in ("a", "both") else b_values
            if any(value != key_side[0] for value in key_side):
                raise ComparisonError(
                    "amortize=True declares a constant key-holder side, "
                    "but the values differ")
        self.invocations += len(a_values)
        results = self._leq_batch(
            a_party, [a - lo for a in a_values],
            b_party, [b - lo for b in b_values],
            domain=hi - lo, reveal_to=reveal_to, amortize=amortize,
            label=f"{label}/{self.name}")
        revealed = _revealed(reveal_to, a_party, b_party)
        return [ComparisonOutcome(result=result, revealed_to=revealed)
                for result in results]

    @abstractmethod
    def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
             domain: int, reveal_to: str, label: str) -> bool:
        """Decide ``a <= b`` for shifted inputs in ``[0, domain]``."""

    def _leq_batch(self, a_party: Party, a_values: list[int], b_party: Party,
                   b_values: list[int], *, domain: int, reveal_to: str,
                   amortize: bool, label: str) -> list[bool]:
        """Serial fallback: one :meth:`_leq` per pair (YMPP, oracle)."""
        return [self._leq(a_party, a, b_party, b, domain=domain,
                          reveal_to=reveal_to, label=label)
                for a, b in zip(a_values, b_values)]


class YaoMillionairesComparison(SecureComparison):
    """Algorithm 1 as the comparison backend.

    Input mapping: values are shifted to ``[1, n0]`` with
    ``n0 = domain + 2`` (one slot of headroom for the ``b + 1`` strict-to-
    loose trick).  The party that must learn the result plays the
    j-holder role (Algorithm 1's Bob); the peer runs Algorithm 1's Alice
    under **its own** RSA keypair, looked up by party identity -- never
    by which argument slot the caller happened to pass the party in.
    """

    name = "ympp"

    def __init__(self, keys_by_party: dict[str, RsaKeyPair],
                 engine: ModexpEngine | None = None):
        super().__init__()
        self._keys = dict(keys_by_party)
        self._engine = engine

    def _keys_of(self, party: Party) -> RsaKeyPair:
        try:
            return self._keys[party.name]
        except KeyError:
            raise ComparisonError(
                f"no RSA key material registered for party {party.name!r}")

    def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
             domain: int, reveal_to: str, label: str) -> bool:
        n0 = domain + 2
        if reveal_to in ("a", "both"):
            # a-holder learns: run with i = b, j = a (the i-holder --
            # b_party -- owns the keypair), so the j-holder (a-holder)
            # learns b < a, and a <= b  <=>  not (b < a).
            strictly_greater = ympp_less_than(
                b_party, b + 1, a_party, a + 1, n0,
                self._keys_of(b_party), announce=(reveal_to == "both"),
                label=f"{label}/b_lt_a", engine=self._engine)
            return not strictly_greater
        # b-holder learns: i = a, j = b + 1 -> j-holder learns
        # a < b + 1 <=> a <= b.
        return ympp_less_than(
            a_party, a + 1, b_party, b + 2, n0,
            self._keys_of(a_party), announce=False, label=f"{label}/a_le_b",
            engine=self._engine)


class BitwiseComparison(SecureComparison):
    """DGK backend; the key holder is the learning party.

    Key material is looked up by *party identity*: whichever party plays
    the DGK key holder runs under its own DGK keypair, regardless of
    which argument slot it arrived in (the seed-era code bound keys to
    the ``a``/``b`` roles, so passing ``a_party=bob`` ran DGK under
    alice's keypair -- functionally correct in-process, wrong key
    ownership for any real network deployment).
    """

    name = "bitwise"

    def __init__(self, keys_by_party: dict[str, DgkKeyPair]):
        super().__init__()
        self._keys = dict(keys_by_party)

    def _keys_of(self, party: Party) -> DgkKeyPair:
        keypair = self._keys.get(party.name)
        if keypair is None:
            raise ComparisonError(
                f"no Paillier key exchange delivered a DGK key for party "
                f"{party.name!r}")
        return keypair

    def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
             domain: int, reveal_to: str, label: str) -> bool:
        # Width covers domain + 1 so the b + 1 trick cannot overflow.
        bits = max(1, (domain + 1).bit_length())
        if reveal_to in ("a", "both"):
            # a-holder keyed, learns a > b; a <= b is the negation.
            greater = dgk_greater_than(
                a_party, a, b_party, b, bits, self._keys_of(a_party),
                label=label)
            result = not greater
            if reveal_to == "both":
                a_party.send(f"{label}/conclusion", result)
                if b_party.hosted:
                    result = b_party.receive(f"{label}/conclusion")
            return result
        # b-holder keyed, learns b + 1 > a  <=>  a <= b.
        return dgk_greater_than(
            b_party, b + 1, a_party, a, bits, self._keys_of(b_party),
            label=label)

    def _leq_batch(self, a_party: Party, a_values: list[int], b_party: Party,
                   b_values: list[int], *, domain: int, reveal_to: str,
                   amortize: bool, label: str) -> list[bool]:
        """Amortized DGK: one bit-encryption for a declared-constant side.

        Only when the caller *declared* (``amortize=True``, validated in
        :meth:`SecureComparison.leq_batch`) that the key holder's value
        (``a`` when the a-holder learns, ``b + 1`` when the b-holder
        learns) is constant across the batch does the whole batch run as
        a single
        :func:`~repro.smc.bitwise_comparison.dgk_greater_than_batch`:
        one bit-encryption, one round-trip.  Undeclared batches fall
        back to the per-pair loop, so the message pattern is a pure
        function of the declaration -- never of private-value equality,
        which would leak key-holder-side collisions (e.g. equal
        ``blind_cross_sum`` offsets) to the evaluating party.
        Predicate bits are identical to the per-pair loop either way.
        """
        if not amortize:
            return super()._leq_batch(
                a_party, a_values, b_party, b_values, domain=domain,
                reveal_to=reveal_to, amortize=amortize, label=label)
        # Width covers domain + 1 so the b + 1 trick cannot overflow.
        bits = max(1, (domain + 1).bit_length())
        if reveal_to in ("a", "both"):
            key_party, other_party = a_party, b_party
            holder_value, other_values = a_values[0], b_values
        else:
            key_party, other_party = b_party, a_party
            holder_value, other_values = b_values[0] + 1, a_values
        greater = dgk_greater_than_batch(
            key_party, holder_value, other_party, other_values, bits,
            self._keys_of(key_party), label=f"{label}/batch")
        if reveal_to == "b":
            # b-holder keyed, learns b + 1 > a  <=>  a <= b.
            return greater
        # a-holder keyed, learns a > b; a <= b is the negation.
        results = [not g for g in greater]
        if reveal_to == "both":
            a_party.send(f"{label}/batch/conclusion", results)
            if b_party.hosted:
                results = b_party.receive(f"{label}/batch/conclusion")
        return results


class OracleComparison(SecureComparison):
    """Ideal functionality: a trusted third party, zero communication.

    Exists for fast functional testing of the clustering layers and as
    the ideal-world reference in simulation tests.  Never use where the
    privacy properties themselves are under test.
    """

    name = "oracle"

    def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
             domain: int, reveal_to: str, label: str) -> bool:
        return a <= b


def make_comparison_backend(kind: str, *,
                            rsa_keys: dict[str, RsaKeyPair] | None = None,
                            dgk_keys: dict[str, DgkKeyPair | None] | None
                            = None,
                            engine: ModexpEngine | None = None,
                            ) -> SecureComparison:
    """Factory used by :class:`repro.smc.session.SmcSession`.

    ``kind`` is one of ``"ympp"``, ``"bitwise"``, ``"oracle"``; the
    relevant key material must be supplied for the crypto backends as a
    ``{party_name: keypair}`` mapping -- keys follow party identity, not
    argument roles.  A party whose DGK entry is ``None`` (injected key
    material without one) fails only when it would hold the key.
    ``engine`` shards YMPP's RSA sweep; the bitwise backend runs no
    engine jobs.
    """
    if kind == "ympp":
        if not rsa_keys or len(rsa_keys) < 2:
            raise ComparisonError(
                "ympp backend requires an RSA keypair per party")
        return YaoMillionairesComparison(rsa_keys, engine=engine)
    if kind == "bitwise":
        if not dgk_keys or len(dgk_keys) < 2:
            raise ComparisonError(
                "bitwise backend requires a DGK keypair per party")
        return BitwiseComparison(dgk_keys)
    if kind == "oracle":
        return OracleComparison()
    raise ComparisonError(f"unknown comparison backend {kind!r}")
