"""The paper's distance protocols: HDP (4.2), VDP (4.3), ADP (4.4).

All three decide ``dist(d_x, d_y)^2 <= Eps^2`` for a pair of records
without either party seeing the other's attribute values; they differ in
who holds which pieces of the squared distance:

- **HDP** (horizontal): the querying party holds one whole record, the
  peer the other.  The peer obtains the masked cross terms through the
  Multiplication Protocol; the final comparison splits the distance as
  ``||d_x||^2`` (querier) + ``||d_y||^2 - 2<d_x, d_y>`` (peer).
- **VDP** (vertical): each party locally sums its own attributes'
  squared differences; one secure comparison finishes the job.
- **ADP** (arbitrary): attribute-by-attribute composition of the two.

Every function takes a ``value_bound`` -- the public upper bound on any
squared distance -- from which mask sizes and comparison intervals are
derived.  Results are directional: ``reveal_to`` states who may learn
the predicate (Algorithm 4 steps 3/13 give it to the querier only).

Region queries: :func:`hdp_region_query` (and its cached twin
:func:`hdp_region_query_cached`) run one whole Algorithm 4 step-3/13
region query -- the querier's point against *all* peer points -- through
a single batched cross-term exchange and one amortized comparison batch.
They are the only way the protocols query a peer.  The per-point
:func:`hdp_within_eps` / :func:`hdp_within_eps_cached` are Section 4.2
as written; they stay as the reference the batched queries are tested
against.  Predicate bits, comparison counts and every ledger disclosure
are identical to a loop of the per-point protocol; only the encryption
count (querier: ``O(d)`` per query instead of ``O(n_peer * d)``) and the
message count differ.
"""

from __future__ import annotations

from repro.core.leakage import Disclosure, LeakageLedger
from repro.net.party import Party
from repro.net.serialization import FixedWidthList
from repro.smc.permutation import PermutedView
from repro.smc.session import SmcSession


class DistanceProtocolError(ValueError):
    """Raised on dimension mismatches."""


def _comparison_interval(value_bound: int, eps_squared: int,
                         mask_spread: int = 0) -> tuple[int, int]:
    """A public interval containing every side-value the protocols compare.

    Side values are sums/differences of squared norms, dot products, the
    threshold, and (when blinding) a mask, so +/- the sum of their bounds
    is always sufficient.
    """
    spread = 3 * value_bound + eps_squared + mask_spread + 1
    return -spread, spread


async def hdp_within_eps(session: SmcSession, querier: Party,
                         querier_point: tuple[int, ...], peer: Party,
                         peer_point: tuple[int, ...], eps_squared: int,
                         value_bound: int, *,
                         ledger: LeakageLedger | None = None,
                         blind_cross_sum: bool = False,
                         label: str = "hdp") -> bool:
    """Protocol HDP: querier learns whether the peer's point is within Eps.

    Faithful to Section 4.2: the querier draws per-attribute masks
    ``r_1..r_m`` summing to zero, the Multiplication Protocol hands the
    peer each ``d_x,t * d_y,t + r_t``, and YMPP (or the configured
    backend) compares the two halves of the squared distance.

    With ``blind_cross_sum=True`` the masks sum to a random offset the
    querier compensates for in the comparison, hiding the exact dot
    product from the peer (see DESIGN.md; the ledger records the
    difference).
    """
    if len(querier_point) != len(peer_point):
        raise DistanceProtocolError(
            f"dimension mismatch: {len(querier_point)} vs {len(peer_point)}")
    dimensions = len(querier_point)
    mask_bound = session.config.mask_bound(value_bound)

    # Querier-side masks r_1..r_m.
    masks = [querier.rng.randrange(-mask_bound, mask_bound + 1)
             for _ in range(dimensions - 1)]
    if blind_cross_sum:
        offset = querier.rng.randrange(mask_bound + 1)
    else:
        offset = 0  # the paper's "r_1 + ... + r_m = 0"
    masks.append(offset - sum(masks))

    # Multiplication Protocol batch: the peer receives d_x,t*d_y,t + r_t.
    received = await session.masked_dot_terms(
        peer, list(peer_point), querier, list(querier_point), masks,
        label=f"{label}/cross_terms")
    cross_sum = sum(received)  # = <d_x, d_y> + offset

    if ledger is not None and not blind_cross_sum:
        ledger.record(label, peer.name, Disclosure.DOT_PRODUCT,
                      detail="zero-sum masks expose the exact cross dot product")

    # The peer's side absorbed -2*offset through the masked cross terms,
    # so dist^2 = querier_side + peer_side + 2*offset and the predicate
    # becomes: peer_side <= eps^2 - querier_side - 2*offset.
    querier_side = sum(c * c for c in querier_point)
    peer_side = sum(c * c for c in peer_point) - 2 * cross_sum
    threshold = eps_squared - querier_side - 2 * offset

    lo, hi = _comparison_interval(value_bound, eps_squared,
                                  mask_spread=2 * (mask_bound + 1))
    outcome = await session.compare_leq(
        peer, peer_side, querier, threshold,
        lo=lo, hi=hi, reveal_to="b", label=f"{label}/threshold")
    if ledger is not None:
        ledger.record(label, querier.name, Disclosure.NEIGHBOR_BIT)
    return outcome.result


def _query_offsets(querier: Party, count: int, mask_bound: int, *,
                   blind_cross_sum: bool,
                   query_constant_blinding: bool) -> list[int]:
    """The querier-side blinding offsets for one region query.

    Paper-faithful mode: all zero (the zero-sum masks).  Blind mode:
    one fresh offset per peer point, or -- with
    ``query_constant_blinding`` -- a single offset shared by the whole
    query, which keeps the comparison thresholds constant so the DGK
    batch can amortize (the relative disclosure this buys is recorded
    by the caller).
    """
    if not blind_cross_sum:
        return [0] * count
    if query_constant_blinding:
        return [querier.rng.randrange(mask_bound + 1)] * count
    return [querier.rng.randrange(mask_bound + 1) for _ in range(count)]


async def hdp_region_query(session: SmcSession, querier: Party,
                           querier_point: tuple[int, ...], peer: Party,
                           peer_points: list[tuple[int, ...]],
                           eps_squared: int, value_bound: int, *,
                           ledger: LeakageLedger | None = None,
                           blind_cross_sum: bool = False,
                           query_constant_blinding: bool = False,
                           label: str = "hdp") -> list[bool]:
    """Batched HDP: one region query against all of the peer's points.

    Semantically one :func:`hdp_within_eps` per peer point -- same
    predicate bits, same per-point ledger disclosures (``DOT_PRODUCT``
    to the peer unless blinded, ``NEIGHBOR_BIT`` to the querier), same
    comparison interval -- but the querier's coordinates are encrypted
    **once** for the whole query (``O(d)`` querier encryptions,
    independent of the peer point count) and the cross terms for every
    peer point travel in one message round-trip.  The per-point
    threshold comparisons also run as one amortized batch -- under the
    bitwise backend the querier's threshold bits are encrypted once per
    query instead of once per peer point (the threshold is constant when
    ``blind_cross_sum`` is off).  With ``blind_cross_sum`` the
    amortization normally degrades to per-point runs (per-point secret
    offsets); ``query_constant_blinding`` restores it by sharing one
    offset per query, trading the ``DOT_DIFFERENCE`` relative disclosure
    recorded in the ledger.

    The peer presents its points in a fresh random order
    (Algorithm 4's ``SetOfPointsOfBobPermutation``), so the returned
    bits -- in presentation order -- are unlinkable across queries; only
    their sum is meaningful to callers.
    """
    if not peer_points:
        return []
    for peer_point in peer_points:
        if len(querier_point) != len(peer_point):
            raise DistanceProtocolError(
                f"dimension mismatch: {len(querier_point)} vs "
                f"{len(peer_point)}")
    mask_bound = session.config.mask_bound(value_bound)

    view = PermutedView.fresh(len(peer_points), peer.rng)
    presented = [peer_points[view.true_index(position)]
                 for position in range(len(view))]
    offsets = _query_offsets(
        querier, len(presented), mask_bound,
        blind_cross_sum=blind_cross_sum,
        query_constant_blinding=query_constant_blinding)

    # Batched cross terms: the peer ends with <d_x, d_y_i> + offset_i for
    # every presented point -- exactly the per-point HDP cross sum.
    cross_sums = await session.masked_dot_terms_batch(
        querier, list(querier_point), peer,
        [list(point) for point in presented], offsets,
        blind_bound=mask_bound, label=f"{label}/cross_terms")

    return await _batched_threshold_comparisons(
        session, querier, querier_point, peer, presented, cross_sums,
        offsets, eps_squared, value_bound, mask_bound, ledger=ledger,
        blind_cross_sum=blind_cross_sum,
        query_constant_blinding=query_constant_blinding, point_ids=None,
        label=label)


async def _batched_threshold_comparisons(session: SmcSession, querier: Party,
                                         querier_point: tuple[int, ...],
                                         peer: Party,
                                         presented: list[tuple[int, ...]],
                                         cross_sums: list[int],
                                         offsets: list[int], eps_squared: int,
                                         value_bound: int, mask_bound: int, *,
                                         ledger: LeakageLedger | None,
                                         blind_cross_sum: bool,
                                         query_constant_blinding: bool = False,
                                         point_ids: list[int] | None,
                                         label: str) -> list[bool]:
    """Per-point threshold comparisons shared by the batched variants.

    Reproduces the per-point HDP tail exactly: identical comparison
    sides, interval, reveal direction, and ledger record sequence.  All
    thresholds of the query go through
    :meth:`SmcSession.compare_leq_batch` in one call -- the querier's
    threshold ``eps^2 - querier_side - 2*offset`` is constant across the
    query when ``blind_cross_sum`` is off, so the bitwise backend shares
    a single DGK bit-encryption for the whole query.  The predicate bits,
    invocation counts, and ledger record sequence equal one
    :meth:`SmcSession.compare_leq` per point (property-tested).
    """
    querier_side = sum(c * c for c in querier_point)
    lo, hi = _comparison_interval(value_bound, eps_squared,
                                  mask_spread=2 * (mask_bound + 1))
    peer_sides = [sum(c * c for c in peer_point) - 2 * cross_sum
                  for peer_point, cross_sum in zip(presented, cross_sums)]
    thresholds = [eps_squared - querier_side - 2 * offset
                  for offset in offsets]
    # Without blinding the offsets are all zero, so the querier's
    # threshold is constant across the query *by protocol structure*
    # (public knowledge) and the comparison may amortize one
    # bit-encryption across the batch.  The same structural argument
    # holds under query-constant blinding: the offset is secret but
    # declared shared across the query, so the constant-side batch is
    # public shape, not a value leak.  With per-point blinding the
    # thresholds are per-point secrets; amortization is never declared,
    # so the message pattern cannot leak offset collisions.
    amortize = not blind_cross_sum or query_constant_blinding
    outcomes = await session.compare_leq_batch(
        peer, peer_sides, querier, thresholds,
        lo=lo, hi=hi, reveal_to="b", amortize=amortize,
        label=f"{label}/threshold")
    # Ledger records replay in per-point order -- DOT_PRODUCT before each
    # point's NEIGHBOR_BIT -- so the disclosure sequence is identical to
    # one hdp_within_eps per peer point.  Query-constant blinding adds
    # its own record up front: the shared offset hands the peer the
    # exact differences between this query's cross dot products.
    if (ledger is not None and blind_cross_sum and query_constant_blinding
            and len(presented) > 1):
        ledger.record(label, peer.name, Disclosure.DOT_DIFFERENCE,
                      detail=f"query-constant blind offset over "
                             f"{len(presented)} cross sums")
    results = []
    for position, outcome in enumerate(outcomes):
        if ledger is not None and not blind_cross_sum:
            ledger.record(label, peer.name, Disclosure.DOT_PRODUCT,
                          detail="zero-sum masks expose the exact cross "
                                 "dot product")
        if ledger is not None:
            ledger.record(label, querier.name, Disclosure.NEIGHBOR_BIT)
            if point_ids is not None and outcome.result:
                ledger.record(label, querier.name,
                              Disclosure.LINKED_NEIGHBOR_ID,
                              detail=f"stable peer point id "
                                     f"{point_ids[position]}")
        results.append(outcome.result)
    return results


class PeerCipherCache:
    """Cache of a peer's encrypted coordinates, keyed by stable point id.

    The optimization behind :func:`hdp_within_eps_cached`: a peer point's
    Paillier-encrypted coordinates depend only on the point and the key,
    so they can be transmitted once per run instead of once per query.
    The price is a *stable identifier* on the wire -- the querier can now
    link hits on the same peer point across queries, which is precisely
    the disclosure that re-enables the Figure 1 intersection attack.
    Experiment E12 measures both sides of the trade.
    """

    def __init__(self):
        self.ciphers: dict[int, list[int]] = {}

    def __contains__(self, point_id: int) -> bool:
        return point_id in self.ciphers

    def store(self, point_id: int, cipher_values: list[int]) -> None:
        self.ciphers[point_id] = list(cipher_values)

    def get(self, point_id: int) -> list[int]:
        return self.ciphers[point_id]

    def __len__(self) -> int:
        return len(self.ciphers)


async def hdp_within_eps_cached(session: SmcSession, querier: Party,
                                querier_point: tuple[int, ...], peer: Party,
                                peer_point: tuple[int, ...],
                                peer_point_id: int, cache: PeerCipherCache,
                                eps_squared: int,
                                value_bound: int, *,
                                ledger: LeakageLedger | None = None,
                                blind_cross_sum: bool = False,
                                label: str = "hdp_cached") -> bool:
    """HDP with the peer's encrypted coordinates cached across queries.

    Functionally identical to :func:`hdp_within_eps` (property-tested);
    differs in cost (the peer->querier ciphertext batch is sent once per
    point per run) and in disclosure (the stable ``peer_point_id``
    crosses the wire, recorded as ``LINKED_NEIGHBOR_ID`` on every hit).
    """
    if len(querier_point) != len(peer_point):
        raise DistanceProtocolError(
            f"dimension mismatch: {len(querier_point)} vs {len(peer_point)}")
    from repro.crypto.encoding import SignedEncoder
    from repro.crypto.paillier import PaillierCiphertext

    dimensions = len(querier_point)
    mask_bound = session.config.mask_bound(value_bound)
    peer_keys = session.paillier_keys(peer.name)
    public = peer_keys.public_key
    width = public.ciphertext_width
    encoder = SignedEncoder(public.n)

    # Peer announces which cached entry this query uses (the linkable id)
    # and uploads the encrypted coordinates on first use.
    await peer.send(f"{label}/point_id", peer_point_id)
    announced_id = querier.receive(f"{label}/point_id")
    if peer_point_id not in cache:
        encrypted = FixedWidthList(
            [cipher.value for cipher in session.engine.encrypt_batch(
                public, [encoder.encode(c) for c in peer_point],
                peer.rng)], width)
        await peer.send(f"{label}/coords", encrypted)
        cache.store(peer_point_id,
                    public.check_width(querier.receive(f"{label}/coords")))

    # Querier-side masks, as in the base protocol.
    masks = [querier.rng.randrange(-mask_bound, mask_bound + 1)
             for _ in range(dimensions - 1)]
    offset = (querier.rng.randrange(mask_bound + 1) if blind_cross_sum
              else 0)
    masks.append(offset - sum(masks))

    # Querier is the masker: reply = E(y_t)^{x_t} * E(r_t).  The fresh
    # encryption of the mask is the reply's rerandomization (one factor;
    # see repro.smc.scalar_product).
    replies = FixedWidthList([], width)
    for cipher_value, coordinate, mask in zip(cache.get(announced_id),
                                              querier_point, masks):
        product = (PaillierCiphertext(public, cipher_value)
                   * encoder.encode(coordinate))
        masked = product + public.encrypt(encoder.encode(mask), querier.rng)
        replies.append(masked.value)
    await querier.send(f"{label}/masked_terms", replies)

    received = public.check_width(peer.receive(f"{label}/masked_terms"))
    cross_sum = sum(
        encoder.decode(value) for value in session.engine.decrypt_raw_batch(
            peer_keys.private_key, received))

    querier_side = sum(c * c for c in querier_point)
    peer_side = sum(c * c for c in peer_point) - 2 * cross_sum
    threshold = eps_squared - querier_side - 2 * offset

    if ledger is not None and not blind_cross_sum:
        ledger.record(label, peer.name, Disclosure.DOT_PRODUCT,
                      detail="zero-sum masks expose the exact cross dot product")

    lo, hi = _comparison_interval(value_bound, eps_squared,
                                  mask_spread=2 * (mask_bound + 1))
    outcome = await session.compare_leq(
        peer, peer_side, querier, threshold,
        lo=lo, hi=hi, reveal_to="b", label=f"{label}/threshold")
    if ledger is not None:
        ledger.record(label, querier.name, Disclosure.NEIGHBOR_BIT)
        if outcome.result:
            ledger.record(label, querier.name,
                          Disclosure.LINKED_NEIGHBOR_ID,
                          detail=f"stable peer point id {peer_point_id}")
    return outcome.result


async def hdp_region_query_cached(session: SmcSession, querier: Party,
                                  querier_point: tuple[int, ...], peer: Party,
                                  peer_points: list[tuple[int, ...]],
                                  point_ids: list[int], cache: PeerCipherCache,
                                  eps_squared: int, value_bound: int, *,
                                  ledger: LeakageLedger | None = None,
                                  blind_cross_sum: bool = False,
                                  query_constant_blinding: bool = False,
                                  label: str = "hdp_cached") -> list[bool]:
    """Batched cached HDP: one region query over the peer's cached ciphers.

    The batched form of :func:`hdp_within_eps_cached`: the peer's
    encrypted coordinates are uploaded once per stable ``point_id`` (the
    linkable disclosure E12 measures -- recorded per hit exactly as in
    the per-point variant), and each query sends back **one accumulated
    ciphertext per peer point** -- ``E(<d_x, d_y_i> + offset_i)`` built
    homomorphically from the cached coordinates -- instead of ``d``
    masked terms per point.  The peer decrypts the same cross sum the
    per-point protocol delivers, so bits and disclosures are identical.

    Each party's steps run only where it is hosted
    (:attr:`~repro.net.party.Party.hosted`); a process that does not host
    the querier returns placeholder bits.
    """
    if len(point_ids) != len(peer_points):
        raise DistanceProtocolError(
            f"{len(peer_points)} peer points but {len(point_ids)} ids")
    for peer_point in peer_points:
        if len(querier_point) != len(peer_point):
            raise DistanceProtocolError(
                f"dimension mismatch: {len(querier_point)} vs "
                f"{len(peer_point)}")
    if not peer_points:
        return []
    from repro.crypto.encoding import SignedEncoder
    from repro.crypto.paillier import PaillierCiphertext

    mask_bound = session.config.mask_bound(value_bound)
    peer_keys = session.paillier_keys(peer.name)
    public = peer_keys.public_key
    width = public.ciphertext_width
    encoder = SignedEncoder(public.n)

    # First-use upload: ids the cache has not seen yet, in one message.
    missing = [(point_id, point)
               for point_id, point in zip(point_ids, peer_points)
               if point_id not in cache]
    if missing:
        payload = None
        if peer.hosted:
            # One engine batch over all missing coordinates, in the same
            # RNG order as per-point encryption, then regrouped per point.
            flat = session.engine.encrypt_batch(
                public,
                [encoder.encode(c) for _, point in missing for c in point],
                peer.rng)
            payload = []
            cursor = 0
            for point_id, point in missing:
                payload.append([point_id, FixedWidthList(
                    [cipher.value for cipher in
                     flat[cursor:cursor + len(point)]], width)])
                cursor += len(point)
        await peer.send(f"{label}/coords", payload)
        # The cache is the querier's, but the uploading peer picks the
        # missing ids from it too: without a hosted querier to receive
        # the upload, the peer records what it sent.
        if querier.hosted:
            payload = querier.receive(f"{label}/coords")
        for point_id, ciphers in payload:
            cache.store(point_id, public.check_width(ciphers))

    offsets = _query_offsets(
        querier, len(peer_points), mask_bound,
        blind_cross_sum=blind_cross_sum,
        query_constant_blinding=query_constant_blinding)

    # Querier accumulates E(<d_x, d_y_i> + offset_i) per cached point.
    replies = None
    if querier.hosted:
        replies = FixedWidthList([], width)
        for point_id, offset in zip(point_ids, offsets):
            accumulator = None
            for cipher_value, coordinate in zip(cache.get(point_id),
                                                querier_point):
                term = (PaillierCiphertext(public, cipher_value)
                        * encoder.encode(coordinate))
                accumulator = (term if accumulator is None
                               else accumulator + term)
            if offset:
                accumulator = accumulator + encoder.encode(offset)
            # Only a plaintext offset entered: the sum is still a
            # function of the peer's own ciphertexts, so it needs its
            # own fresh randomness.
            replies.append(accumulator.rerandomize(querier.rng).value)
    await querier.send(f"{label}/masked_sums", replies)

    cross_sums = [0] * len(peer_points)
    if peer.hosted:
        cross_sums = [encoder.decode(value) for value in
                      session.engine.decrypt_raw_batch(
                          peer_keys.private_key,
                          public.check_width(
                              peer.receive(f"{label}/masked_sums")))]

    return await _batched_threshold_comparisons(
        session, querier, querier_point, peer, list(peer_points),
        cross_sums, offsets, eps_squared, value_bound, mask_bound,
        ledger=ledger, blind_cross_sum=blind_cross_sum,
        query_constant_blinding=query_constant_blinding,
        point_ids=list(point_ids), label=label)


async def vdp_within_eps(session: SmcSession, alice: Party, alice_partial: int,
                         bob: Party, bob_partial: int, eps_squared: int,
                         value_bound: int, *,
                         ledger: LeakageLedger | None = None,
                         reveal_to: str = "both",
                         label: str = "vdp") -> bool:
    """Protocol VDP: compare locally-computed partial squared distances.

    ``alice_partial`` / ``bob_partial`` are each party's sum of squared
    attribute differences over their own columns; the predicate is
    ``alice_partial <= eps^2 - bob_partial``.
    """
    lo, hi = _comparison_interval(value_bound, eps_squared)
    outcome = await session.compare_leq(
        alice, alice_partial, bob, eps_squared - bob_partial,
        lo=lo, hi=hi, reveal_to=reveal_to, label=f"{label}/threshold")
    if ledger is not None:
        for learner in outcome.revealed_to:
            ledger.record(label, learner, Disclosure.NEIGHBOR_BIT)
    return outcome.result


async def adp_within_eps(session: SmcSession, alice: Party, bob: Party,
                         x_values: dict[int, tuple[str, int]],
                         y_values: dict[int, tuple[str, int]],
                         eps_squared: int, value_bound: int, *,
                         ledger: LeakageLedger | None = None,
                         reveal_to: str = "both",
                         label: str = "adp") -> bool:
    """Protocol for arbitrarily partitioned data (Section 4.4).

    ``x_values`` / ``y_values`` map attribute index -> ``(owner, value)``
    for the two records.  Same-owner attributes accumulate locally
    (vertical part); cross-owner attributes route their products through
    the Multiplication Protocol to Bob with Alice-known masks whose sum
    Alice compensates on her side (horizontal part; the random-offset
    generalization is required here because a pair may share only one
    cross attribute -- see DESIGN.md).
    """
    if set(x_values) != set(y_values):
        raise DistanceProtocolError(
            "records disagree on attribute indices: "
            f"{sorted(x_values)} vs {sorted(y_values)}")

    alice_side = 0
    bob_side = 0
    # Cross terms: (alice_value, bob_value) pairs whose product is needed.
    cross_alice: list[int] = []
    cross_bob: list[int] = []

    for attribute in sorted(x_values):
        x_owner, x_value = x_values[attribute]
        y_owner, y_value = y_values[attribute]
        difference_squared = (x_value - y_value) ** 2
        if x_owner == y_owner == alice.name:
            alice_side += difference_squared
        elif x_owner == y_owner == bob.name:
            bob_side += difference_squared
        else:
            a_value = x_value if x_owner == alice.name else y_value
            b_value = y_value if x_owner == alice.name else x_value
            alice_side += a_value * a_value
            bob_side += b_value * b_value
            cross_alice.append(a_value)
            cross_bob.append(b_value)

    mask_bound = session.config.mask_bound(value_bound)
    offset = 0
    if cross_alice:
        masks = [alice.rng.randrange(-mask_bound, mask_bound + 1)
                 for _ in cross_alice]
        offset = sum(masks)
        received = await session.masked_dot_terms(
            bob, cross_bob, alice, cross_alice, masks,
            label=f"{label}/cross_terms")
        bob_side += -2 * sum(received)  # -2 * (<a, b> + offset)

    # dist^2 = alice_side + bob_side + 2*offset; predicate:
    #   alice_side + 2*offset <= eps^2 - bob_side.
    lo, hi = _comparison_interval(
        value_bound, eps_squared,
        mask_spread=2 * len(cross_alice) * (mask_bound + 1))
    outcome = await session.compare_leq(
        alice, alice_side + 2 * offset, bob, eps_squared - bob_side,
        lo=lo, hi=hi, reveal_to=reveal_to, label=f"{label}/threshold")
    if ledger is not None:
        for learner in outcome.revealed_to:
            ledger.record(label, learner, Disclosure.NEIGHBOR_BIT)
    return outcome.result
