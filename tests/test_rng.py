"""Reproducibility contract of the seeded stream source."""

import copy
import math
import pickle
import random
from array import array
from hashlib import blake2b

import pytest

from isingworlds import InvalidParameterError, RngStream


def test_same_seed_same_sequence():
    a = RngStream(42)
    b = RngStream(42)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_distinct_streams_differ():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


def test_distinct_seeds_differ():
    assert RngStream(1).uniform() != RngStream(2).uniform()


def test_substream_deterministic():
    parent = RngStream(7, 3)
    child_a = parent.substream(5)
    child_b = RngStream(7, 3).substream(5)
    assert [child_a.uniform() for _ in range(10)] == [child_b.uniform() for _ in range(10)]


def test_substream_independent_of_parent_consumption():
    p1 = RngStream(7)
    p1.uniform()
    p2 = RngStream(7)
    assert p1.substream(0).uniform() == p2.substream(0).uniform()


def test_draw_counting():
    rng = RngStream(0)
    rng.uniform()
    rng.bernoulli(0.5)
    rng.randrange(10)
    assert rng.draws == 3


def test_degenerate_bernoulli_consumes_nothing():
    rng = RngStream(0)
    assert rng.bernoulli(0.0) is False
    assert rng.bernoulli(1.0) is True
    assert rng.draws == 0


def test_bernoulli_validates_parameter():
    rng = RngStream(0)
    with pytest.raises(InvalidParameterError):
        rng.bernoulli(1.5)
    with pytest.raises(InvalidParameterError):
        rng.bernoulli(-0.1)
    with pytest.raises(InvalidParameterError):
        rng.bernoulli(float("nan"))


@pytest.mark.parametrize("q", [0, 1, 0.3, True, math.nan, -0.1, 1.5])
def test_bernoulli_is_bernoullis_of_one(q):
    scalar, batch = RngStream(4), RngStream(4)
    try:
        (expected,) = batch.bernoullis([q])
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as raised:
            scalar.bernoulli(q)
        assert str(raised.value) == str(exc)
    else:
        assert scalar.bernoulli(q) is (expected == 1)
    assert scalar.draws == batch.draws
    assert scalar.uniform() == batch.uniform()  # the streams stay in step


def test_negative_seed_rejected():
    with pytest.raises(InvalidParameterError):
        RngStream(-1)


@pytest.mark.parametrize(
    "seed,stream",
    [(1, -1), (1, 1.5), (1.7, 0), (True, 0), (1, False), (1, (2, True)), (1, (2, -3)),
     ("1", 0), (1, "a")],
)
def test_key_needs_nonnegative_integers(seed, stream):
    with pytest.raises(InvalidParameterError):
        RngStream(seed, stream)


class TestStreamKey:
    def _head(self, rng, n=8):
        return [rng.uniform() for _ in range(n)]

    def test_framing_separates_keys(self):
        # the same digits split differently are different keys
        keys = ((1, (23,)), (12, (3,)), (1, (2, 3)))
        assert len({tuple(self._head(RngStream(seed, stream))) for seed, stream in keys}) == 3

    def test_substream_is_the_longer_key(self):
        for seed, stream, index in ((0, (), 0), (7, (3,), 5), (2024, (1, 2), 9)):
            assert self._head(RngStream(seed, stream).substream(index)) == self._head(
                RngStream(seed, stream + (index,))
            )

    def test_int_stream_is_a_one_id_key(self):
        assert self._head(RngStream(4, 6)) == self._head(RngStream(4, (6,)))

    def test_large_seed(self):
        seed = 2**130 + 5
        assert RngStream(seed).seed == seed
        assert self._head(RngStream(seed)) == self._head(RngStream(seed))
        assert self._head(RngStream(seed)) != self._head(RngStream(5))  # not cut to 128 bits

    def test_derivation(self):
        # the recipe of the module docstring, written out
        digest = blake2b(b"7,1,2a,", digest_size=16).digest()
        expected = random.Random(int.from_bytes(digest, "little")).random()
        assert RngStream(7, (1, 42)).uniform() == expected

    def test_nested_substreams_are_the_longer_key(self):
        for seed, stream, path in ((0, (), (0, 0)), (7, (3,), (5, 1, 0)), (2**70, (1, 2), (9, 2**40))):
            nested = RngStream(seed, stream)
            for index in path:
                nested = nested.substream(index)
            direct = RngStream(seed, stream + path)
            assert (nested.seed, nested.stream, nested.draws) == (direct.seed, direct.stream, 0)
            assert self._head(nested, 100) == self._head(direct, 100)

    @pytest.mark.parametrize("bad", [-1, 1.0, 2.5, True, "1", None])
    def test_bad_substream_index_leaves_the_parent(self, bad):
        parent = RngStream(7, 3)
        parent.uniforms(5, array("d"))
        with pytest.raises(InvalidParameterError):
            parent.substream(bad)
        twin = RngStream(7, 3)
        twin.uniforms(5, array("d"))
        assert parent.draws == 5
        assert self._head(parent) == self._head(twin)

    def test_golden_values(self):
        # any change to the key derivation changes every seeded output
        assert RngStream(0).uniform() == 0.9090615755421099
        assert RngStream(2024, 7).substream(3).uniform() == 0.9398117335066679


class TestSeeding:
    """A stream seeds a plain ``random.Random`` through the C base class's
    ``seed``, past ``Random.__init__``, and must end in the state that
    ``random.Random(key)`` gives on every supported Python."""

    KEYS = ((0, ()), (7, (1, 42)), (2**70, ()), (2**70, (3, 2**40)), (2024, (7, 3)))

    @staticmethod
    def _key_int(seed, stream):
        text = "%x," * (1 + len(stream)) % (seed, *stream)
        return int.from_bytes(blake2b(text.encode(), digest_size=16).digest(), "little")

    @pytest.mark.parametrize("seed, stream", KEYS)
    def test_state_is_that_of_random_random(self, seed, stream):
        expected = random.Random(self._key_int(seed, stream))
        direct = RngStream(seed, stream)._rng
        nested = RngStream(seed, stream[:-1]).substream(stream[-1])._rng if stream else direct
        for rng in (direct, nested):
            assert type(rng) is random.Random
            assert rng.getstate() == expected.getstate()
            assert rng.gauss_next is None

    def test_pickle_and_deepcopy_continue_draw_for_draw(self):
        def mid_run():
            rng = RngStream(2**70, (5,))
            rng.uniforms(3, array("d"))
            rng.bernoullis([0.5, 0.2, 1.0])
            rng.randrange(9)
            return rng

        def rest(rng):
            return [rng.uniform(), rng.bernoullis([0.3, 0.7]), rng.randrange(2**70 + 1), rng.draws,
                    rng.substream(4).uniform()]

        rng = mid_run()
        twins = pickle.loads(pickle.dumps(rng)), copy.deepcopy(rng)
        expected = rest(mid_run())
        for twin in (*twins, rng):
            assert repr(twin) == "RngStream(seed=1180591620717411303424, stream=(5,), draws=6)"
            assert rest(twin) == expected

    def test_randrange_sequences_unchanged(self):
        # the values random.Random(key).randrange gave before the direct seeding
        rng = RngStream(2**70, (3, 1))
        bounds = (2, 3, 10, 1000, 2**40, 2**70 + 1)
        assert [rng.randrange(n) for n in bounds] == [1, 2, 5, 751, 899501579521, 985655985048481372056]
        assert rng.draws == 6
        expected = random.Random(self._key_int(2**70, (3, 1)))
        again = RngStream(2**70, (3, 1))
        assert [again.randrange(n) for n in bounds] == [expected.randrange(n) for n in bounds]
        child = RngStream(9).substream(4)
        child.uniform()
        assert [child.randrange(7) for _ in range(6)] == [5, 0, 6, 4, 4, 5]


def test_bernoulli_frequency_sane():
    rng = RngStream(123)
    hits = sum(rng.bernoulli(0.3) for _ in range(20000))
    assert abs(hits / 20000 - 0.3) < 0.02


EDGE_QS = (0.0, 1.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), -0.0, 0.5)


def _scalar_bernoullis(rng, qs):
    return [rng.bernoulli(q) for q in qs]


class TestBernoullis:
    def test_equals_scalar_calls(self):
        rnd = random.Random(2024)
        for k in range(200):
            n = rnd.choice((0, 1, 2, 3, 7, 100))
            qs = [rnd.choice(EDGE_QS) if rnd.random() < 0.3 else rnd.random() for _ in range(n)]
            batch, scalar = RngStream(9, k), RngStream(9, k)
            assert batch.bernoullis(qs) == _scalar_bernoullis(scalar, qs)
            assert batch.draws == scalar.draws
            assert batch.uniform() == scalar.uniform()  # the streams stay in step

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), math.inf])
    def test_validates_like_bernoulli(self, bad):
        batch, scalar = RngStream(5), RngStream(5)
        with pytest.raises(InvalidParameterError):
            batch.bernoullis([0.5, 0.0, 0.25, bad, 0.5])
        with pytest.raises(InvalidParameterError):
            _scalar_bernoullis(scalar, [0.5, 0.0, 0.25, bad, 0.5])
        assert batch.draws == scalar.draws == 2
        assert batch.uniform() == scalar.uniform()


class TestUniforms:
    def test_equals_scalar_calls(self):
        for count in (0, 1, 2, 7, 480, 1000):
            batch, scalar = RngStream(11, count), RngStream(11, count)
            out = array("d", [0.5])  # appends after what is there
            batch.uniforms(count, out)
            assert list(out) == [0.5] + [scalar.uniform() for _ in range(count)]
            assert batch.draws == scalar.draws == count
            assert batch.uniform() == scalar.uniform()  # the streams stay in step

    def test_negative_count_raises_before_a_draw(self):
        rng, out = RngStream(0), array("d")
        with pytest.raises(InvalidParameterError):
            rng.uniforms(-1, out)
        assert rng.draws == 0 and len(out) == 0
        assert rng.uniform() == RngStream(0).uniform()


@pytest.mark.parametrize("bad", [-1, 2.0, 2.5, True, "2", None])
def test_bad_uniform_count_raises_before_a_draw(bad):
    rng, out = RngStream(0), array("d")
    with pytest.raises(InvalidParameterError):
        rng.uniforms(bad, out)
    assert rng.draws == 0 and len(out) == 0
    assert rng.uniform() == RngStream(0).uniform()


@pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, True, False, "2", None])
def test_bad_randrange_bound_raises_before_a_draw(bad):
    rng = RngStream(0)
    with pytest.raises(InvalidParameterError):
        rng.randrange(bad)
    assert rng.draws == 0
    assert rng.uniform() == RngStream(0).uniform()


def test_randrange_takes_an_index_like_bound():
    class Five:
        def __index__(self):
            return 5

    a, b = RngStream(3), RngStream(3)
    assert [a.randrange(Five()) for _ in range(20)] == [b.randrange(5) for _ in range(20)]
    assert a.draws == b.draws == 20
