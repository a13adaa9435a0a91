"""Seeded, splittable randomness for reproducible simulation runs.

A stream is identified by ``(seed, stream)``, a nonnegative integer
seed and a tuple of nonnegative integer stream ids; the same pair always
replays the same draw sequence.  The key ``(seed, *stream)`` is written
as lowercase hex digits, each integer followed by a comma (so
``(1, 23)``, ``(12, 3)`` and ``(1, 2, 3)`` give different bytes), and the
16-byte ``hashlib.blake2b`` digest of those bytes, read as a
little-endian integer, seeds the stream's ``random.Random``.  Distinct
keys thus give well separated streams, a substream is the key with one
more id, and nothing here needs numpy.  ``draws`` counts the
entropy-consuming calls, which is how reductions report their Bernoulli
budgets; degenerate Bernoulli draws (success probability 0 or 1) are
answered without consuming randomness.

The batch draws, :meth:`RngStream.bernoullis` and
:meth:`RngStream.uniforms`, are draw for draw equal to the scalar calls
they replace (``bernoulli`` per parameter, ``uniform`` per value): the
same values, the same ``draws`` count and the same state of the stream
afterwards.  They only save the per-call overhead of a Python-level
draw; ``uniforms`` appends straight into a typed array, about 8 bytes a
value, with no list in between.
"""

from __future__ import annotations

import math
import operator
import random as _random
from array import array
from hashlib import blake2b
from itertools import repeat, starmap
from typing import Iterable

from .errors import InvalidParameterError


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
        self.seed = _nonnegative_int(seed, "seed")
        ids = stream if isinstance(stream, (tuple, list)) else (stream,)
        self.stream: tuple[int, ...] = tuple(_nonnegative_int(i, "stream id") for i in ids)
        key = (self.seed, *self.stream)
        digest = blake2b(("%x," * len(key) % key).encode(), digest_size=16).digest()
        self._rng = _random.Random(int.from_bytes(digest, "little"))
        self.draws = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, draws={self.draws})"

    def uniform(self) -> float:
        """One uniform draw in [0, 1)."""
        self.draws += 1
        return self._rng.random()

    def bernoulli(self, q: float) -> bool:
        """Bernoulli(q) draw; q outside (0, 1) is answered deterministically
        without consuming randomness."""
        if math.isnan(q) or q < 0.0 or q > 1.0:
            raise InvalidParameterError(f"Bernoulli parameter must lie in [0, 1], got {q}")
        if q <= 0.0:
            return False
        if q >= 1.0:
            return True
        return self.uniform() < q

    def bernoullis(self, qs: Iterable[float]) -> list[int]:
        """``[bernoulli(q) for q in qs]`` as 0/1 ints, in one call.

        Parameters are validated in the same pass; a bad one raises after
        the draws of the parameters before it, as the scalar loop would.
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
        if count < 0:
            raise InvalidParameterError(f"the uniform count must be nonnegative, got {count}")
        out.extend(starmap(self._rng.random, repeat((), count)))
        self.draws += count

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n); counts as one draw."""
        if n <= 0:
            raise InvalidParameterError("randrange needs a positive bound")
        self.draws += 1
        return self._rng.randrange(n)

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; deterministic in (seed, stream, index)."""
        return RngStream(self.seed, self.stream + (index,))
