"""Labeled sub-seed derivation for reproducible random streams.

Every random draw in the package flows from one master seed. Independent
concerns (entity placement, link sampling, arrivals, policy draws, path
noise) each derive their own sub-seed by hashing the master seed together
with string labels, so adding or reordering one consumer never shifts the
streams seen by the others. Python's builtin ``hash`` is salted per process
and therefore unusable here; blake2b is stable. A master seed is an int in
[0, MAX_SEED]; each caller that takes one checks it with
`model.check_number`.
"""

from __future__ import annotations

import random

from _blake2 import blake2b  # hashlib also loads OpenSSL; random.py takes _sha512 the same way

_SEED_BYTES = 8
MAX_SEED = 2**64 - 1


def _label_bytes(labels) -> bytes:
    """What a label path adds to the hash: each label, UTF-8, after a 0x1f byte."""
    if len(labels) == 1:  # most draws; skips the join
        return ("\x1f" + str(labels[0])).encode("utf-8")
    return "".join(["\x1f" + str(label) for label in labels]).encode("utf-8")


def _master_hash(master: int, labels) -> blake2b:
    return blake2b(
        str(int(master)).encode("utf-8") + _label_bytes(labels), digest_size=_SEED_BYTES
    )


def derive_seed(master: int, *labels: object) -> int:
    """Derive a 64-bit sub-seed from a master seed and a label path."""
    return int.from_bytes(_master_hash(master, labels).digest(), "big")


def rng_for(master: int, *labels: object) -> random.Random:
    """Fresh ``random.Random`` seeded from :func:`derive_seed`."""
    return random.Random(derive_seed(master, *labels))


class SeededStream:
    """One draw per label path under a fixed prefix, without a Random per draw.

    ``stream.normal(*labels)`` equals
    ``rng_for(master, *prefix, *labels).normalvariate(0.0, 1.0)`` and
    ``stream.random(*labels)`` equals ``rng_for(master, *prefix, *labels).random()``,
    by construction: the prefix is hashed once, each draw copies that hash
    state, adds its labels and re-seeds one private generator in place. The
    generator never escapes, so no caller can advance it between draws.
    Generators that draw many values from one label path use :func:`rng_for`.

    The re-seed calls the C base class's ``seed`` directly. For an int seed
    it sets the same state; ``random.Random.seed`` only also clears
    ``gauss_next``, which neither ``normalvariate`` nor ``random`` reads.
    """

    def __init__(self, master: int, *prefix: object) -> None:
        self._prefix = _master_hash(master, prefix)
        self._rng = random.Random()
        self._reseed = super(random.Random, self._rng).seed

    def _seeded(self, labels) -> random.Random:
        h = self._prefix.copy()
        h.update(_label_bytes(labels))
        self._reseed(int.from_bytes(h.digest(), "big"))
        return self._rng

    def normal(self, *labels: object) -> float:
        """A standard normal draw for the label path."""
        return self._seeded(labels).normalvariate(0.0, 1.0)

    def random(self, *labels: object) -> float:
        """A uniform draw in [0, 1) for the label path."""
        return self._seeded(labels).random()
