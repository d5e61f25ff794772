import numpy as np
import pytest

from rotlab import adversary, protocols, rng
from rotlab.adversary import CheatStrategy
from rotlab.rng import BlockStream, draw_bit, party_stream, philox_block, trial_seed, trial_seeds

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
        rng._PhiloxKey(1, 2).generate_state(4, np.uint32)


def test_trial_seeds_match_trial_seed():
    for master in (0, 2027, MASK64):
        for offset in (0, 600, MASK64 - 2):
            expected = [trial_seed(master, offset + i) for i in range(9)]
            assert trial_seeds(master, offset, 9).tolist() == expected
    assert trial_seeds(5, 0, 0).shape == (0,)


@pytest.mark.parametrize("stream", range(4))
def test_philox_block_matches_numpy(stream):
    keys = _keys(300)
    block = philox_block(keys, stream)
    assert block.shape == (4, keys.size) and block.dtype == np.uint64
    for index, key in enumerate(keys):
        expected = np.random.Philox(key=np.array([key, stream], dtype=np.uint64)).random_raw(4)
        assert block[:, index].tolist() == expected.tolist(), (int(key), stream)


@pytest.mark.parametrize("stream", (0, 3))
def test_philox_block_at_any_counter(stream):
    # Counter c holds the generator's words 4(c - 1) .. 4c - 1.
    keys = _keys(20)
    blocks = 9
    block = philox_block(keys, stream, np.arange(1, blocks + 1, dtype=np.uint64)[:, None])
    assert block.shape == (4, blocks, keys.size)
    for index, key in enumerate(keys):
        expected = np.random.Philox(key=np.array([key, stream], dtype=np.uint64)).random_raw(4 * blocks)
        assert block[:, :, index].T.ravel().tolist() == expected.tolist(), int(key)
    for counter in (1 << 32, (1 << 63) + 7, MASK64):
        block = philox_block(keys, stream, counter)
        for index, key in enumerate(keys):
            philox = np.random.Philox(key=np.array([key, stream], dtype=np.uint64), counter=counter - 1)
            assert block[:, index].tolist() == philox.random_raw(4).tolist(), (int(key), counter)


def test_block_stream_spans_blocks():
    # Bits, uniforms and bounded draws interleaved over several Philox
    # blocks, including runs that end on a buffered half word.
    keys = _keys(60)
    highs = [5, 99, 1, 12, 1000]
    for stream in (0, 1):
        block = BlockStream(keys, stream, words=23)
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
    block = BlockStream(keys, 0, words=6)  # rounded up to two whole blocks
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
    values, rejected = BlockStream(keys, 0).bounded([high])
    assert 20 < np.count_nonzero(rejected) < 150
    for index, key in enumerate(keys):
        gen = party_stream(int(key), 0)
        value = int(gen.integers(0, high + 1))
        state = gen.bit_generator.state
        drew_once = state["has_uint32"] == 1 and state["buffer_pos"] == 1
        assert bool(rejected[index]) == (not drew_once), int(key)
        if drew_once:
            assert values[0, index] == value


def test_bounded_redraws_strictly_below_the_threshold(monkeypatch):
    # Synthetic words whose low half u makes u * (high + 1) mod 2**32 equal
    # the threshold (kept) or one less (redrawn).  Odd ranges make u unique.
    for high in (2, 90, 3 << 30):
        span = high + 1
        threshold = (2**32 - 1 - high) % span
        u = np.array([leftover * pow(span, -1, 2**32) % 2**32 for leftover in (threshold - 1, threshold)])
        words = np.zeros((4, u.size), dtype=np.uint64)
        words[0] = u
        monkeypatch.setattr(rng, "philox_block", lambda seeds, stream, counter=1: words)
        values, rejected = BlockStream(np.zeros(u.size, dtype=np.uint64), 0).bounded([high])
        assert rejected.tolist() == [True, False], high
        assert values[0].tolist() == [int(v) * span >> 32 for v in u]


def test_block_stream_maps_words_as_generator():
    # Bits take the low half of a fresh word, then its buffered high half;
    # random() takes a whole word and leaves the buffer alone.
    keys = _keys(200)
    order = ("bit", "random", "bit", "bit", "random")
    for stream in range(4):
        block = BlockStream(keys, stream)
        drawn = [block.draw_bit() if kind == "bit" else block.random() for kind in order]
        for index, key in enumerate(keys):
            gen = party_stream(int(key), stream)
            expected = [draw_bit(gen) if kind == "bit" else gen.random() for kind in order]
            assert [values[index].item() for values in drawn] == expected
    block = BlockStream(keys, 0)
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
    return lambda seed: adversary.execute_cheat(strategy, seed)


SCALAR_FLOWS = {
    "completeness/bad_classical": protocols.run_bad_classical,
    "completeness/bad_qubit": protocols.run_bad_qubit,
    "completeness/qutrit": protocols.run_qutrit,
    "cheat/alice/qutrit": _cheat_flow("alice", "qutrit"),
    "cheat/bob/qutrit": _cheat_flow("bob", "qutrit"),
    "cheat/alice/coinflip": _cheat_flow("alice", "coinflip"),
    "cheat/bob/coinflip": _cheat_flow("bob", "coinflip"),
}


@pytest.mark.parametrize("flow", sorted(SCALAR_FLOWS))
def test_block_draws_match_generator(monkeypatch, flow):
    """Every draw a covered flow makes from party_stream, in the flow's
    order, is what a BlockStream over the same seed hands out, and no flow
    needs more than one Philox block per stream."""
    logs: dict[int, list] = {}

    def recording_stream(seed, stream):
        assert stream not in logs, "one stream per party and trial"
        logs[stream] = []
        return _RecordingGenerator(rng.party_stream(seed, stream), logs[stream])

    monkeypatch.setattr(protocols, "party_stream", recording_stream)
    monkeypatch.setattr(adversary, "party_stream", recording_stream)
    orders = set()
    for index in range(64):
        seed = trial_seed(7, index)
        logs.clear()
        SCALAR_FLOWS[flow](seed)
        for stream, log in logs.items():
            block = BlockStream(np.array([seed], dtype=np.uint64), stream)  # raises past its fourth word
            replayed = [block.draw_bit() if kind == "bit" else block.random() for kind, _ in log]
            assert [(kind, value[0].item()) for (kind, _), value in zip(log, replayed)] == log
            orders.add((stream, tuple(kind for kind, _ in log)))
    if flow.startswith("cheat/bob/"):
        assert orders == {(rng.ALICE, ("bit",)), (rng.BOB, ("random", "bit", "bit"))}
