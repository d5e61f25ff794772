import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from oracle import draw_bit, party_stream, trial_seed
from rotlab import rng
from rotlab.adversary import CheatStrategy
from rotlab.rng import BlockStream, block_streams, philox_block, trial_seeds

MASK64 = (1 << 64) - 1
EDGE_SEEDS = (0, MASK64, (1 << 63) + 5)


def _keys(count: int) -> np.ndarray:
    drawn = np.random.default_rng(20261018).integers(0, 1 << 64, size=count, dtype=np.uint64)
    return np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), drawn])


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("stream", range(4))
def test_party_stream_matches_keyed_philox(seed, stream):
    reference = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    gen = party_stream(seed, stream)
    for _ in range(3):
        assert draw_bit(gen) == draw_bit(reference)
        assert gen.random() == reference.random()
        assert draw_bit(gen) == draw_bit(reference)
    sample = gen.choice(100, size=10, replace=False)
    assert np.array_equal(sample, reference.choice(100, size=10, replace=False))


def test_philox_key_supplies_only_a_two_word_key():
    with pytest.raises(ValueError):
        oracle._PhiloxKey(1, 2).generate_state(4, np.uint32)


def test_trial_seeds_match_trial_seed():
    for master in (0, 2027, MASK64):
        for offset in (0, 600, MASK64 - 2):
            expected = [trial_seed(master, offset + i) for i in range(9)]
            assert trial_seeds(master, offset, 9).tolist() == expected
    assert trial_seeds(5, 0, 0).shape == (0,)


def _numpy_block(seed: int, stream: int, counter: int) -> list[int]:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter - 1).random_raw(4).tolist()


def _numpy_words(seed: int, stream: int, first: int, blocks: int) -> list[int]:
    # The generator's words of blocks first .. first + blocks - 1.
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Philox(key=key, counter=first).random_raw(4 * blocks).tolist()


def _assert_numpy_runs(seeds: np.ndarray, runs) -> np.ndarray:
    # philox_block's words of runs are the generator's, run after run, for
    # every seed.
    words = philox_block(seeds, runs)
    assert words.shape == (4 * sum(count for _, _, count in runs), seeds.size) and words.dtype == np.uint64
    for index, seed in enumerate(seeds.tolist()):
        expected = [word for run in runs for word in _numpy_words(seed, *run)]
        assert words[:, index].tolist() == expected, (seed, runs)
    return words


def _one_stream(seeds: np.ndarray, stream: int, words: int = 4) -> BlockStream:
    (alone,) = block_streams(seeds, ((stream, words),))
    return alone


@pytest.mark.parametrize("stream", range(4))
def test_philox_block_matches_numpy(stream):
    # One block per seed, over a column pass less, exactly, or one more.
    keys = _keys(rng._COLUMNS + 1 - len(EDGE_SEEDS))
    expected = np.array([_numpy_words(key, stream, 0, 1) for key in keys.tolist()], dtype=np.uint64).T
    for count in (rng._COLUMNS - 1, rng._COLUMNS, rng._COLUMNS + 1):
        block = philox_block(keys[:count], ((stream, 0, 1),))
        assert block.shape == (4, count) and block.dtype == np.uint64
        assert np.array_equal(block, expected[:, :count]), count


@pytest.mark.parametrize("stream", (0, 3))
def test_philox_block_at_any_counter(stream):
    # Run (stream, first, count) holds the generator's words 4 first ..
    # 4 (first + count) - 1.
    keys = _keys(20)
    _assert_numpy_runs(keys, ((stream, 0, 9),))
    _assert_numpy_runs(keys, tuple((stream, counter - 1, 1) for counter in (1 << 32, (1 << 63) + 7, MASK64)))


def test_philox_block_on_one_seed_matches_numpy():
    # One seed runs one-block runs on Python ints, and any runs with a
    # longer one through the stacked rounds; both must give numpy's words at
    # any counter.
    counters = (1, 2, 9, 1 << 32, (1 << 63) + 7, MASK64)
    for stream in (0, 3, MASK64):
        one_block = tuple((stream, counter - 1, 1) for counter in counters)
        for key in _keys(40).tolist():
            seed = np.array([key], dtype=np.uint64)
            _assert_numpy_runs(seed, one_block)
            _assert_numpy_runs(seed, one_block + ((stream, 0, 2),))


def _wrapping(step: int) -> list[int]:
    # Key words at and around those where adding step or 2 * step wraps mod 2**64.
    return sorted({(-k * step + d) & MASK64 for k in (1, 2) for d in (-1, 0, 1)})


SEED_WRAPS = _wrapping(rng._WEYL[0])
STREAM_WRAPS = _wrapping(rng._WEYL[1])


def test_prologue_where_the_key_words_wrap():
    # Round 2 adds W0 to the seed and round 3 starts from s + 2 W0; the
    # prologue adds W1 and 2 W1 to the stream id.  Each sum wraps mod 2**64
    # at the seeds and streams chosen here, on every path to the kernel:
    # many seeds, one seed with multi-block runs, one seed with one-block
    # runs.
    seeds = np.array(SEED_WRAPS, dtype=np.uint64)
    multi_block = tuple((stream, 0, 9) for stream in STREAM_WRAPS)
    one_block = tuple((stream, counter - 1, 1) for stream in STREAM_WRAPS for counter in (1, 2, 9))
    for group in [seeds] + [seeds[index : index + 1] for index in range(seeds.size)]:
        _assert_numpy_runs(group, multi_block)
        _assert_numpy_runs(group, one_block)
        specs = tuple((stream, 8) for stream in STREAM_WRAPS)
        for stream, (stream_id, _) in zip(block_streams(group, specs), specs):
            for index, seed in enumerate(group.tolist()):
                assert stream._words[:, index].tolist() == _numpy_words(seed, stream_id, 0, 2), (seed, stream_id)


@pytest.mark.parametrize("first", ((1 << 63) - 2, MASK64 - 3))
def test_cached_rows_at_the_top_counters(first):
    # A stream's blocks up to counter 2**63 + 1 and to the last counter,
    # 2**64 - 1, as one run or as one-block runs, on many seeds and on one.
    keys = _keys(12)
    for seeds in (keys, keys[:1]):
        for stream in (rng.BOB, MASK64):
            _assert_numpy_runs(seeds, ((stream, first, 3),))
            _assert_numpy_runs(seeds, tuple((stream, first + block, 1) for block in range(3)))


@pytest.mark.parametrize("count", (1, 7, rng._COLUMNS - 1, rng._COLUMNS + 1))
def test_cached_layout_words_equal_the_cold_words(count):
    # One layout over many seed counts: the words of a call that finds its
    # prologue cached are the words of a call that built it, and both are
    # numpy's, across one column pass or several.
    runs = ((rng.ALICE, 0, 3), (rng.BOB, 0, 1), (MASK64, 5, 2))
    seeds = _keys(count)[-count:]
    rng._layout.cache_clear()
    cold = _assert_numpy_runs(seeds, runs)
    misses = rng._layout.cache_info().misses
    warm = philox_block(seeds, runs)
    assert rng._layout.cache_info().misses == misses
    assert np.array_equal(warm, cold)
    specs = ((rng.ALICE, 12), (rng.BOB, 4))
    rng._layout.cache_clear()
    cold_streams = block_streams(seeds, specs)
    for warm_stream, cold_stream in zip(block_streams(seeds, specs), cold_streams):
        assert np.array_equal(warm_stream._words, cold_stream._words)


def test_cached_rows_are_read_only():
    prologue = rng._layout(((rng.ALICE, 0, 3), (rng.BOB, 2, 1)))
    assert len(prologue) == 4
    for array in prologue:
        assert array.shape == (4, 1) and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_one_seed_stream_extends_past_its_blocks_after_redraws():
    # Sixteen draws that reject about a quarter of all 32-bit values, over
    # a stream that holds exactly the 8 words they take without a redraw:
    # every redraw reads one more block, past the two the stream computed
    # in its first kernel call.
    high = 3 << 30
    held = []
    for key in _keys(40).tolist():
        gen = party_stream(key, rng.BOB)
        block = _one_stream(np.array([key], dtype=np.uint64), rng.BOB, words=8)
        values, rejected = block.bounded([high] * 16)
        assert values[:, 0].tolist() == [gen.integers(0, high + 1) for _ in range(16)] and not rejected[0], key
        held.append(len(block._words))
        if held[-1] > 8:
            # Later draws go on reading blocks as the generator does.
            assert block.randoms(3)[:, 0].tolist() == [gen.random() for _ in range(3)], key
            assert block.draw_bits(5)[:, 0].tolist() == [draw_bit(gen) for _ in range(5)], key
    assert sum(words > 8 for words in held) > 30 and max(held) > 12


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, MASK64),
    stream=st.integers(0, MASK64),
    counter=st.integers(1, MASK64),
)
def test_every_path_to_the_kernel_matches_numpy(seed, stream, counter):
    # One seed with one-block runs, one seed with a multi-block run, and
    # many seeds.
    expected = _numpy_block(seed, stream, counter)
    one = np.array([seed], dtype=np.uint64)
    pair = np.array([seed, seed ^ 1], dtype=np.uint64)
    run = (stream, counter - 1, 1)
    longer = (stream ^ 1, 0, 2)
    longer_words = _numpy_words(seed, *longer)
    assert philox_block(one, (run,))[:, 0].tolist() == expected
    assert philox_block(one, (run, run))[:, 0].tolist() == expected + expected
    for seeds in (one, pair):
        assert philox_block(seeds, (run, longer))[:, 0].tolist() == expected + longer_words
    assert philox_block(pair, (run,))[:, 0].tolist() == expected
    if counter < MASK64:
        # Two blocks of one run.
        following = _numpy_block(seed, stream, counter + 1)
        for seeds in (pair, one):
            assert philox_block(seeds, ((stream, counter - 1, 2),))[:, 0].tolist() == expected + following


@pytest.mark.parametrize("count", (1000, 3000))
def test_warm_block_streams_runs_only_the_seeded_rounds(monkeypatch, count):
    # A warm many-seed call finds its runs' prologue cached: it
    # takes the seed product once per seed and the eight stacked rounds
    # once per column pass, and does no row-side arithmetic.
    shapes = []
    mulhilo = rng._mulhilo

    def counting(multiplier, x):
        shapes.append(np.shape(x))
        return mulhilo(multiplier, x)

    monkeypatch.setattr(rng, "_mulhilo", counting)
    seeds = trial_seeds(17, 0, count)
    specs = ((rng.BOB_AUX, 4), (rng.ALICE, 4), (rng.BOB, 4))
    widths = [min(rng._COLUMNS, 3 * count - start) for start in range(0, 3 * count, rng._COLUMNS)]
    seeded = [(count,)] + [(2, width) for width in widths for _ in range(8)]
    rng._layout.cache_clear()
    block_streams(seeds, specs)
    assert shapes == [(3, 1), (3, 1)] + seeded
    shapes.clear()
    misses = rng._layout.cache_info().misses
    block_streams(seeds, specs)
    assert shapes == seeded
    assert rng._layout.cache_info().misses == misses


def test_block_streams_hold_the_words_of_streams_built_alone():
    # One call for all streams, each keeping its own length and stream id.
    keys = _keys(50)
    specs = ((rng.BOB_AUX, 1), (rng.ALICE, 23), (rng.BOB, 4), (MASK64, 9))
    for seeds in (keys, keys[:1]):
        grouped = block_streams(seeds, specs)
        assert len(grouped) == len(specs)
        for stream, (stream_id, words) in zip(grouped, specs):
            alone = _one_stream(seeds, stream_id, words)
            assert stream._words.shape == (4 * -(-words // 4), seeds.size)
            assert np.array_equal(stream._words, alone._words), (stream_id, seeds.size)


def test_block_stream_spans_blocks():
    # Bits, uniforms and bounded draws interleaved over several Philox
    # blocks, including runs that end on a buffered half word.
    keys = _keys(60)
    highs = [5, 99, 1, 12, 1000]
    for stream in (0, 1):
        block = _one_stream(keys, stream, words=23)
        bits_a = block.draw_bits(7)
        uniforms = block.randoms(5)
        bounded, rejected = block.bounded(highs)
        bits_b = block.draw_bits(4)
        last = block.random()
        assert not rejected.any()
        for index, key in enumerate(keys):
            gen = party_stream(int(key), stream)
            assert bits_a[:, index].tolist() == [draw_bit(gen) for _ in range(7)]
            assert uniforms[:, index].tolist() == [gen.random() for _ in range(5)]
            assert bounded[:, index].tolist() == [int(gen.integers(0, high + 1)) for high in highs]
            assert bits_b[:, index].tolist() == [draw_bit(gen) for _ in range(4)]
            assert last[index] == gen.random()
    block = _one_stream(keys, 0, words=6)  # rounded up to two whole blocks
    block.randoms(8)
    with pytest.raises(IndexError):
        block.draw_bit()


def test_bounded_flags_exactly_the_lemire_redraws():
    # A range of 3 * 2**30 + 1 values rejects about a quarter of all 32-bit
    # draws, so numpy's own generator shows which draws it took again: after
    # a single 32-bit draw a fresh generator holds one buffered half word
    # and has used one word of its block.
    high = 3 << 30
    keys = _keys(300)
    values, rejected = _one_stream(keys, 0).bounded([high])
    assert 20 < np.count_nonzero(rejected) < 150
    for index, key in enumerate(keys):
        gen = party_stream(int(key), 0)
        value = int(gen.integers(0, high + 1))
        state = gen.bit_generator.state
        drew_once = state["has_uint32"] == 1 and state["buffer_pos"] == 1
        assert bool(rejected[index]) == (not drew_once), int(key)
        if drew_once:
            assert values[0, index] == value


def test_one_seed_bounded_redraws_as_generator():
    # The range above, so about a quarter of the draws are taken again.
    # Without a redraw the draws below use exactly the 12 words, three
    # Philox blocks, the stream planned; any redraw pushes the last of them
    # into a fourth block.
    high = 3 << 30
    keys = _keys(300)
    planned = _one_stream(keys, 0, words=12)
    planned.randoms(6)
    _, redrawn = planned.bounded([high])
    assert 20 < np.count_nonzero(redrawn) < 150
    one_seed_streams = (
        lambda seed: _one_stream(seed, 0, words=12),
        lambda seed: block_streams(seed, ((rng.BOB, 4), (0, 12)))[1],
    )
    for key, make in itertools.product(keys.tolist(), one_seed_streams):
        gen = party_stream(key, 0)
        block = make(np.array([key], dtype=np.uint64))
        assert block.randoms(6)[:, 0].tolist() == [gen.random() for _ in range(6)]
        values, rejected = block.bounded([high])
        assert values[0, 0] == gen.integers(0, high + 1) and not rejected[0], key
        assert block.random()[0] == gen.random()
        assert block.draw_bit()[0] == draw_bit(gen)
        assert block.random()[0] == gen.random()
        # Several ranges in one call, each taken again on its own.
        values, rejected = block.bounded([high, 90, high])
        assert values[:, 0].tolist() == [gen.integers(0, r + 1) for r in (high, 90, high)] and not rejected[0]
        assert block.draw_bit()[0] == draw_bit(gen)
        assert block.random()[0] == gen.random()


def test_bounded_redraws_strictly_below_the_threshold():
    # Synthetic words whose low half u makes u * (high + 1) mod 2**32 equal
    # the threshold (kept) or one less (redrawn).  Odd ranges make u unique.
    for high in (2, 90, 3 << 30):
        span = high + 1
        threshold = (2**32 - 1 - high) % span
        u = np.array([leftover * pow(span, -1, 2**32) % 2**32 for leftover in (threshold - 1, threshold)])
        words = np.zeros((4, u.size), dtype=np.uint64)
        words[0] = u
        values, rejected = BlockStream(np.zeros(u.size, dtype=np.uint64), 0, words).bounded([high])
        assert rejected.tolist() == [True, False], high
        assert values[0].tolist() == [int(v) * span >> 32 for v in u]


def test_block_stream_maps_words_as_generator():
    # Bits take the low half of a fresh word, then its buffered high half;
    # random() takes a whole word and leaves the buffer alone.
    keys = _keys(200)
    order = ("bit", "random", "bit", "bit", "random")
    for stream in range(4):
        block = _one_stream(keys, stream)
        drawn = [block.draw_bit() if kind == "bit" else block.random() for kind in order]
        for index, key in enumerate(keys):
            gen = party_stream(int(key), stream)
            expected = [draw_bit(gen) if kind == "bit" else gen.random() for kind in order]
            assert [values[index].item() for values in drawn] == expected
    block = _one_stream(keys, 0)
    for _ in range(4):
        block.random()
    with pytest.raises(IndexError):
        block.draw_bit()


class _RecordingGenerator:
    # Forwards the draws a flow makes and logs each as (kind, value).
    def __init__(self, gen, log):
        self._gen = gen
        self._log = log

    def integers(self, low, high):
        assert (low, high) == (0, 2), "covered flows draw only bits and uniforms"
        value = self._gen.integers(low, high)
        self._log.append(("bit", int(value)))
        return value

    def random(self):
        value = self._gen.random()
        self._log.append(("random", value))
        return value


def _cheat_flow(party, protocol):
    strategy = CheatStrategy(party, protocol)
    return lambda seed: oracle.execute_cheat(strategy, seed)


SCALAR_FLOWS = {
    "completeness/bad_classical": oracle.run_bad_classical,
    "completeness/bad_qubit": oracle.run_bad_qubit,
    "completeness/qutrit": oracle.run_qutrit,
    "cheat/alice/qutrit": _cheat_flow("alice", "qutrit"),
    "cheat/bob/qutrit": _cheat_flow("bob", "qutrit"),
    "cheat/alice/coinflip": _cheat_flow("alice", "coinflip"),
    "cheat/bob/coinflip": _cheat_flow("bob", "coinflip"),
}


@pytest.mark.parametrize("flow", sorted(SCALAR_FLOWS))
def test_block_draws_match_generator(monkeypatch, flow):
    """Every draw a covered oracle flow makes from party_stream, in the
    flow's order, is what a BlockStream over the same seed hands out, and no
    flow needs more than one Philox block per stream."""
    logs: dict[int, list] = {}

    def recording_stream(seed, stream):
        assert stream not in logs, "one stream per party and trial"
        logs[stream] = []
        return _RecordingGenerator(party_stream(seed, stream), logs[stream])

    monkeypatch.setattr(oracle, "party_stream", recording_stream)
    orders = set()
    for index in range(64):
        seed = trial_seed(7, index)
        logs.clear()
        SCALAR_FLOWS[flow](seed)
        for stream, log in logs.items():
            block = _one_stream(np.array([seed], dtype=np.uint64), stream)  # raises past its fourth word
            replayed = [block.draw_bit() if kind == "bit" else block.random() for kind, _ in log]
            assert [(kind, value[0].item()) for (kind, _), value in zip(log, replayed)] == log
            orders.add((stream, tuple(kind for kind, _ in log)))
    if flow.startswith("cheat/bob/"):
        assert orders == {(rng.ALICE, ("bit",)), (rng.BOB, ("random", "bit", "bit"))}
