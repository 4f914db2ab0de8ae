"""The seeded xorshift32 stream that RLF's random tie-breaks draw from."""
import wfcolor._kernels as _k


def test_rng_stream_is_stable():
    state = _k.seeded_rng_state(123)
    stream = [int(_k.rng_next(state)) for _ in range(5)]
    state2 = _k.seeded_rng_state(123)
    assert [int(_k.rng_next(state2)) for _ in range(5)] == stream
    assert all(0 <= x <= 0xFFFFFFFF for x in stream)


def test_seed_zero_is_usable():
    state = _k.seeded_rng_state(0)
    assert int(state[0]) != 0
    assert int(_k.rng_next(state)) != 0
