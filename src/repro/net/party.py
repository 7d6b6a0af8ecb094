"""Party abstraction: a named principal with private state and randomness.

Protocol implementations take :class:`Party` objects rather than raw
endpoints so that each party's private data, keys, and RNG are grouped in
one place and never accidentally cross the channel except through
explicit ``send`` calls.  ``send`` is a coroutine that every
choreography awaits -- on a daemon's mirror channel it is where a
remote party's frame is awaited -- and ``receive`` a plain call
(:mod:`repro.net.channel`).
"""

from __future__ import annotations

import random

from repro.net.channel import ChannelEndpoint


class Party:
    """A protocol participant.

    Attributes:
        name: party identifier ("alice" / "bob" in the paper).
        endpoint: this party's channel endpoint.
        rng: private randomness; all of the party's coin tosses
            (Definition 5's ``r1``/``r2``) come from here, which makes
            executions reproducible under a seed.
    """

    def __init__(self, endpoint: ChannelEndpoint,
                 rng: random.Random | None = None):
        self.endpoint = endpoint
        self.rng = rng if rng is not None else random.Random()

    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def peer_name(self) -> str:
        return self.endpoint.peer_name

    @property
    def hosted(self) -> bool:
        """Whether this process executes the party's steps.

        Always true in process.  Under the mirrored runtime only the
        local party is hosted: a choreography skips a non-hosted party's
        step blocks, keeps its awaited ``send`` as the point where the
        mirror substitutes the authentic frame (awaiting it when it has
        not arrived), and returns shape-correct placeholders for its
        results.
        """
        return self.endpoint.hosted

    async def send(self, label: str, value) -> None:
        await self.endpoint.send(label, value)

    def receive(self, expected_label: str | None = None):
        return self.endpoint.receive(expected_label)

    def __repr__(self) -> str:
        return f"Party({self.name!r})"


def make_party_pair(channel, alice_seed: int | None = None,
                    bob_seed: int | None = None) -> tuple[Party, Party]:
    """Build the (Alice, Bob) pair over an existing channel.

    Seeds are optional; passing them makes the whole protocol execution
    deterministic, which the correctness tests and simulators rely on.
    """
    alice = Party(channel.left, random.Random(alice_seed))
    bob = Party(channel.right, random.Random(bob_seed))
    return alice, bob
