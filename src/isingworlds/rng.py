"""Seeded, splittable randomness for reproducible simulation runs.

A stream is identified by ``(seed, stream)``, a nonnegative integer
seed and a tuple of nonnegative integer stream ids; the same pair always
replays the same draw sequence.  The key ``(seed, *stream)`` is written
as lowercase hex digits, each integer followed by a comma (so
``(1, 23)``, ``(12, 3)`` and ``(1, 2, 3)`` give different bytes), and the
16-byte ``hashlib.blake2b`` digest of those bytes, read as a
little-endian integer, seeds the stream's ``random.Random``.  Distinct
keys thus give well separated streams, a substream is the key with one
more id, and nothing here needs numpy.  A stream keeps its key's text,
so a substream checks and formats only its own id; what is left of its
cost is the digest and the seeding of the Mersenne Twister.  That
seeding skips ``Random.__init__`` and its Python-level ``seed``: the
stream makes a bare ``random.Random`` instance and seeds it through the
C base class's ``seed``, which for an int key is all the Python ``seed``
does besides clearing ``gauss_next``, so the generator's state equals
that of ``random.Random(key)``.  It stays a real ``random.Random``, so a
stream pickles, deep-copies and draws ``randrange`` as before.  ``draws``
counts the entropy-consuming calls, which is how reductions report
their Bernoulli budgets; degenerate Bernoulli draws (success
probability 0 or 1) are answered without consuming randomness.  A
``uniforms`` count, a ``randrange`` bound and a substream id are checked
as the key is, before any draw: a bool, a float or a negative number is
an error.

The batch draws save the per-call overhead of a Python-level draw.
:meth:`RngStream.uniforms` is draw for draw equal to ``uniform`` per
value: the same values, the same ``draws`` count and the same state of
the stream afterwards; it appends straight into a typed array, about 8
bytes a value, with no list in between.  :meth:`RngStream.bernoullis`
states the Bernoulli rule once, and ``bernoulli`` is that rule for one
parameter.
"""

from __future__ import annotations

import _random
import operator
from array import array
from hashlib import blake2b
from itertools import repeat, starmap
from random import Random
from typing import Iterable

from .errors import InvalidParameterError


# the C base class's seed, which ``Random.seed`` calls for an int key
_seed = _random.Random.seed


def _nonnegative_int(value: object, what: str) -> int:
    """``value`` as an exact nonnegative int; a bool, a float or a negative
    number is an :class:`InvalidParameterError`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{what} must be a nonnegative integer, got {value!r}") from None
    if value < 0:
        raise InvalidParameterError(f"{what} must be a nonnegative integer, got {value}")
    return value


class RngStream:
    """Reproducible uniform/Bernoulli source with draw counting."""

    def __init__(self, seed: int, stream: int | tuple[int, ...] = 0):
        seed = _nonnegative_int(seed, "seed")
        ids = stream if isinstance(stream, (tuple, list)) else (stream,)
        ids = tuple(_nonnegative_int(i, "stream id") for i in ids)
        self._start(seed, ids, "%x," * (1 + len(ids)) % (seed, *ids))

    def _start(self, seed: int, stream: tuple[int, ...], key: str) -> None:
        """Seed from ``key``, the formatted ``(seed, *stream)``, kept for
        the substreams."""
        self.seed = seed
        self.stream = stream
        self._key = key
        digest = blake2b(key.encode(), digest_size=16).digest()
        rng = Random.__new__(Random)  # Random(key) without its Python-level __init__ and seed
        _seed(rng, int.from_bytes(digest, "little"))
        rng.gauss_next = None  # all that Random.seed adds for an int key
        self._rng = rng
        self.draws = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, draws={self.draws})"

    def uniform(self) -> float:
        """One uniform draw in [0, 1)."""
        self.draws += 1
        return self._rng.random()

    def bernoulli(self, q: float) -> bool:
        """One Bernoulli(q) draw: :meth:`bernoullis` of the one parameter."""
        return self.bernoullis((q,))[0] == 1

    def bernoullis(self, qs: Iterable[float]) -> list[int]:
        """One 0/1 int per parameter q in [0, 1], in one call: 1 when a
        uniform draw falls below q, and 0 or 1 without a draw when q is
        0 or 1.

        Parameters are validated in the same pass; a bad one (NaN or
        outside [0, 1]) raises after the draws of the parameters before it.
        """
        random = self._rng.random
        out: list[int] = []
        fixed = 0  # answered without a draw
        for q in qs:
            if 0.0 < q < 1.0:
                out.append(1 if random() < q else 0)
            elif q == 0.0 or q == 1.0:
                out.append(int(q))
                fixed += 1
            else:
                self.draws += len(out) - fixed
                raise InvalidParameterError(f"Bernoulli parameter must lie in [0, 1], got {q}")
        self.draws += len(out) - fixed
        return out

    def uniforms(self, count: int, out: array) -> None:
        """Append ``count`` values of :meth:`uniform` to the ``array('d')``
        ``out``, in one call."""
        if type(count) is not int or count < 0:
            count = _nonnegative_int(count, "the uniform count")
        out.extend(starmap(self._rng.random, repeat((), count)))
        self.draws += count

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n); counts as one draw."""
        if type(n) is not int or n <= 0:
            n = _nonnegative_int(n, "the randrange bound")
            if not n:
                raise InvalidParameterError("randrange needs a positive bound, got 0")
        self.draws += 1
        return self._rng.randrange(n)

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; deterministic in (seed, stream, index).

        Only ``index`` is checked: the parent's key is valid and kept
        formatted, so the child's key is that plus ``index``."""
        if type(index) is not int or index < 0:
            index = _nonnegative_int(index, "stream id")
        child = object.__new__(RngStream)
        child._start(self.seed, self.stream + (index,), self._key + "%x," % index)
        return child
