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

Batches: :meth:`SecureComparison.leq_batch` decides many pairs in one
call.  On the bitwise backend an undeclared batch is one DGK round-trip
for all its pairs, each pair keeping its own messages (a blinded region
query's thresholds); a batch declared ``amortize`` also shares one
bit-encryption.

Lanes: :meth:`SecureComparison.leq_lanes` decides several batches at
once -- one :class:`ComparisonLane` each, with its own parties,
interval, label and ``gap``, a public bound on every ``|a_i - b_i|``.
A lane pays for its gap instead of its interval: the bitwise backend
compares on ``bits(gap) + 1`` positions
(:func:`~repro.smc.bitwise_comparison.dgk_leq_within_gap_lanes`), the
oracle checks the promise on every item, and YMPP ignores it.  The
Section 5 protocol runs its selection steps and final core tests as
lanes, whose masks widen the interval far beyond the distances they
hide.  The bitwise backend runs the lanes phase by phase across them,
so the protocol's two passes, one lane each in opposite directions,
share every flight of a step (DESIGN.md, "Overlapped Section 5
passes").

Strict/loose mapping: all backends reduce ``a <= b`` to the primitive
each protocol natively offers (YMPP decides ``i < j``; DGK decides
``x > y``) using the integer identity ``a <= b  <=>  a < b + 1`` so no
backend ever mis-handles ties.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.crypto.dgk import DgkKeyPair
from repro.crypto.engine import ModexpEngine
from repro.crypto.rsa import RsaKeyPair
from repro.net.party import Party
from repro.smc.bitwise_comparison import (
    GapLane,
    dgk_greater_than,
    dgk_greater_than_batch,
    dgk_greater_than_pairwise,
    dgk_leq_within_gap_lanes,
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


def _check_gap(gap: int) -> None:
    if type(gap) is not int or gap < 0:
        raise ComparisonError(f"gap must be a non-negative int, got {gap!r}")


def _check_in_interval(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ComparisonError(f"{name}={value} outside [{lo}, {hi}]")


def _check_batch(a_values, b_values, lo: int, hi: int) -> None:
    """Equal lengths, and every item inside ``[lo, hi]``."""
    if len(a_values) != len(b_values):
        raise ComparisonError(
            f"{len(a_values)} a-values but {len(b_values)} b-values")
    for a in a_values:
        _check_in_interval("a", a, lo, hi)
    for b in b_values:
        _check_in_interval("b", b, lo, hi)


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


@dataclass(frozen=True)
class ComparisonLane:
    """One lane of :meth:`SecureComparison.leq_lanes`: ``a_i <= b_i`` for
    every pair, revealed to ``a_party``, over the public interval
    ``[lo, hi]`` and under the public promise ``|a_i - b_i| <= gap``."""

    a_party: Party
    a_values: Sequence[int]
    b_party: Party
    b_values: Sequence[int]
    lo: int
    hi: int
    gap: int
    label: str = "cmp"


class SecureComparison(ABC):
    """Backend interface: decide ``a <= b`` over a public interval.

    Subclasses count invocations (``self.invocations``) so benchmarks can
    report secure-comparison counts (experiment E8) without touching
    protocol internals.
    """

    name: str = "abstract"

    def __init__(self):
        self.invocations = 0

    async def leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
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
        result = await self._leq(a_party, a - lo, b_party, b - lo,
                                 domain=hi - lo, reveal_to=reveal_to,
                                 label=f"{label}/{self.name}")
        return ComparisonOutcome(result=result,
                                 revealed_to=_revealed(reveal_to, a_party,
                                                       b_party))

    async def leq_batch(self, a_party: Party, a_values: list[int],
                        b_party: Party, b_values: list[int], *, lo: int,
                        hi: int, reveal_to: str = "both",
                        amortize: bool = False,
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
        declaration every pair runs its own comparison, with the
        messages of a caller-side loop of :meth:`leq`; the bitwise
        backend sends them phase by phase, so the whole batch takes one
        round-trip (YMPP and the oracle loop).  The amortization
        decision is deliberately *never inferred* by comparing the
        private values themselves: message shapes would then depend on
        secret-value collisions, an equality side channel the
        per-point protocol does not have.
        """
        _check_reveal_and_interval(reveal_to, lo, hi)
        _check_batch(a_values, b_values, lo, hi)
        if not a_values:
            return []
        if amortize:
            key_side = a_values if reveal_to in ("a", "both") else b_values
            if any(value != key_side[0] for value in key_side):
                raise ComparisonError(
                    "amortize=True declares a constant key-holder side, "
                    "but the values differ")
        self.invocations += len(a_values)
        results = await self._leq_batch(
            a_party, [a - lo for a in a_values],
            b_party, [b - lo for b in b_values],
            domain=hi - lo, reveal_to=reveal_to, amortize=amortize,
            label=f"{label}/{self.name}")
        revealed = _revealed(reveal_to, a_party, b_party)
        return [ComparisonOutcome(result=result, revealed_to=revealed)
                for result in results]

    async def leq_lanes(self, lanes: Sequence[ComparisonLane]
                        ) -> list[list[ComparisonOutcome]]:
        """Decide every lane's ``a_i <= b_i``, each lane a batch revealed
        to its ``a_party`` under the public promise
        ``|a_i - b_i| <= gap``; semantics of one :meth:`leq_batch` per
        lane, revealed to ``"a"``.

        Every lane is validated -- its gap, its interval and every item
        in it -- before anything is sent, and each pair counts one
        invocation.  The bitwise backend runs the lanes phase by phase
        across them
        (:func:`~repro.smc.bitwise_comparison.dgk_leq_within_gap_lanes`):
        every lane's requests, then every lane's answers, so lanes in
        opposite directions share their flights.  The oracle refuses a
        broken promise; YMPP ignores the gap and runs lane after lane.
        """
        shifted = []
        for lane in lanes:
            _check_reveal_and_interval("a", lane.lo, lane.hi)
            _check_gap(lane.gap)
            _check_batch(lane.a_values, lane.b_values, lane.lo, lane.hi)
            shifted.append(replace(
                lane, a_values=[a - lane.lo for a in lane.a_values],
                b_values=[b - lane.lo for b in lane.b_values], lo=0,
                hi=lane.hi - lane.lo, label=f"{lane.label}/{self.name}"))
        self.invocations += sum(len(lane.a_values) for lane in lanes)
        return [[ComparisonOutcome(result=result,
                                   revealed_to=(lane.a_party.name,))
                 for result in results]
                for lane, results in zip(lanes,
                                         await self._leq_lanes(shifted))]

    @abstractmethod
    async def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
                   domain: int, reveal_to: str, label: str) -> bool:
        """Decide ``a <= b`` for shifted inputs in ``[0, domain]``."""

    async def _leq_batch(self, a_party: Party, a_values: list[int],
                         b_party: Party, b_values: list[int], *,
                         domain: int, reveal_to: str, amortize: bool,
                         label: str) -> list[bool]:
        """Serial fallback: one :meth:`_leq` per pair (YMPP, oracle)."""
        return [await self._leq(a_party, a, b_party, b, domain=domain,
                                reveal_to=reveal_to, label=label)
                for a, b in zip(a_values, b_values)]

    async def _leq_lanes(self, lanes: list[ComparisonLane]
                         ) -> list[list[bool]]:
        """Serial fallback: each lane as one :meth:`_leq_batch` revealed
        to ``a``, lane after lane (YMPP, oracle); the gap is not used.
        Lanes arrive shifted into ``[0, hi]``."""
        return [await self._leq_batch(lane.a_party, lane.a_values,
                                      lane.b_party, lane.b_values,
                                      domain=lane.hi, reveal_to="a",
                                      amortize=False, label=lane.label)
                for lane in lanes]


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

    async def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
                   domain: int, reveal_to: str, label: str) -> bool:
        n0 = domain + 2
        if reveal_to in ("a", "both"):
            # a-holder learns: run with i = b, j = a (the i-holder --
            # b_party -- owns the keypair), so the j-holder (a-holder)
            # learns b < a, and a <= b  <=>  not (b < a).
            strictly_greater = await ympp_less_than(
                b_party, b + 1, a_party, a + 1, n0,
                self._keys_of(b_party), announce=(reveal_to == "both"),
                label=f"{label}/b_lt_a", engine=self._engine)
            return not strictly_greater
        # b-holder learns: i = a, j = b + 1 -> j-holder learns
        # a < b + 1 <=> a <= b.
        return await ympp_less_than(
            a_party, a + 1, b_party, b + 2, n0,
            self._keys_of(a_party), announce=False, label=f"{label}/a_le_b",
            engine=self._engine)


class BitwiseComparison(SecureComparison):
    """DGK backend; the key holder is the learning party.

    Key material is looked up by *party identity*: whichever party plays
    the DGK key holder runs under its own DGK keypair, regardless of
    which argument slot it arrived in: each party holds only its own
    private key, as in a network deployment.
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

    async def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
                   domain: int, reveal_to: str, label: str) -> bool:
        # Width covers domain + 1 so the b + 1 trick cannot overflow.
        bits = max(1, (domain + 1).bit_length())
        if reveal_to in ("a", "both"):
            # a-holder keyed, learns a > b; a <= b is the negation.
            greater = await dgk_greater_than(
                a_party, a, b_party, b, bits, self._keys_of(a_party),
                label=label)
            result = not greater
            if reveal_to == "both":
                await a_party.send(f"{label}/conclusion", result)
                if b_party.hosted:
                    result = b_party.receive(f"{label}/conclusion")
            return result
        # b-holder keyed, learns b + 1 > a  <=>  a <= b.
        return await dgk_greater_than(
            b_party, b + 1, a_party, a, bits, self._keys_of(b_party),
            label=label)

    async def _leq_batch(self, a_party: Party, a_values: list[int],
                         b_party: Party, b_values: list[int], *,
                         domain: int, reveal_to: str, amortize: bool,
                         label: str) -> list[bool]:
        """Every pair of the batch in one DGK round-trip.

        Undeclared batches run one independent comparison per pair --
        its own bit ciphertexts, witnesses and messages, as in
        :meth:`_leq` -- phase by phase
        (:func:`~repro.smc.bitwise_comparison.dgk_greater_than_pairwise`):
        every pair's bit ciphertexts, then every pair's witnesses, then
        (``reveal_to="both"``) every conclusion.  Messages, bytes and
        each party's coins equal the per-pair loop; only their order
        changes, so the batch takes one round-trip whatever its size.

        Only when the caller *declared* (``amortize=True``, validated in
        :meth:`SecureComparison.leq_batch`) that the key holder's value
        (``a`` when the a-holder learns, ``b + 1`` when the b-holder
        learns) is constant across the batch does the whole batch run as
        a single
        :func:`~repro.smc.bitwise_comparison.dgk_greater_than_batch`:
        one bit-encryption, two messages.  The message pattern is a pure
        function of the declaration and the batch size -- never of
        private-value equality, which would leak key-holder-side
        collisions (e.g. equal ``blind_cross_sum`` offsets) to the
        evaluating party.  Predicate bits are identical to the per-pair
        loop either way.
        """
        # Width covers domain + 1 so the b + 1 trick cannot overflow.
        bits = max(1, (domain + 1).bit_length())
        if reveal_to in ("a", "both"):
            key_party, other_party = a_party, b_party
            holder_values, other_values = a_values, b_values
        else:
            key_party, other_party = b_party, a_party
            holder_values, other_values = [b + 1 for b in b_values], a_values
        keypair = self._keys_of(key_party)
        if amortize:
            label = f"{label}/batch"
            greater = await dgk_greater_than_batch(
                key_party, holder_values[0], other_party, other_values,
                bits, keypair, label=label)
        else:
            greater = await dgk_greater_than_pairwise(
                key_party, holder_values, other_party, other_values, bits,
                keypair, label=label)
        if reveal_to == "b":
            # b-holder keyed, learns b + 1 > a  <=>  a <= b.
            return greater
        # a-holder keyed, learns a > b; a <= b is the negation.
        results = [not g for g in greater]
        if reveal_to == "both":
            # One conclusion for the amortized batch, one per pair else.
            conclusions = [results] if amortize else results
            for conclusion in conclusions:
                await a_party.send(f"{label}/conclusion", conclusion)
            if b_party.hosted:
                received = [b_party.receive(f"{label}/conclusion")
                            for _ in conclusions]
                results = received[0] if amortize else received
        return results

    async def _leq_lanes(self, lanes: list[ComparisonLane]
                         ) -> list[list[bool]]:
        """Every lane at its gap's width, each a-holder keyed: the same
        messages and labels as an undeclared batch per lane,
        ``bits(gap) + 1`` positions, and one round trip for all lanes
        (:func:`~repro.smc.bitwise_comparison.dgk_leq_within_gap_lanes`).
        """
        return await dgk_leq_within_gap_lanes(
            [GapLane(lane.a_party, lane.a_values, lane.b_party,
                     lane.b_values, lane.gap, self._keys_of(lane.a_party),
                     lane.label)
             for lane in lanes])


class OracleComparison(SecureComparison):
    """Ideal functionality: a trusted third party, zero communication.

    Exists for fast functional testing of the clustering layers and as
    the ideal-world reference in simulation tests.  Never use where the
    privacy properties themselves are under test.
    """

    name = "oracle"

    async def _leq(self, a_party: Party, a: int, b_party: Party, b: int, *,
                   domain: int, reveal_to: str, label: str) -> bool:
        return a <= b

    async def _leq_lanes(self, lanes: list[ComparisonLane]
                         ) -> list[list[bool]]:
        """The serial fallback, refusing a broken ``gap`` promise in any
        lane."""
        for lane in lanes:
            for a, b in zip(lane.a_values, lane.b_values):
                if abs(a - b) > lane.gap:
                    raise ComparisonError(
                        f"|a - b| = {abs(a - b)} breaks the declared "
                        f"gap {lane.gap}")
        return await super()._leq_lanes(lanes)


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
