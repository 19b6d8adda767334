import os
import stat

import numpy as np
import pytest

from s2t.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    ParallelCorpus,
    Vocabulary,
    make_batches,
    tokenize,
    whole_file,
)


def test_tokenize_separates_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]


def test_tokenize_empty_line():
    assert tokenize("") == []


def test_tokenize_apostrophe_and_quotes():
    assert tokenize('He said "don\'t"') == ["he", "said", '"', "don", "'", "t", '"']


def test_tokenize_idempotent_on_random_lines():
    rng = np.random.default_rng(4)
    words = ["Hello", "world", "it's", "fine,", "(really)", "no?", "YES!", "a:b;c", '"q"']
    for _ in range(100):
        line = " ".join(rng.choice(words, size=rng.integers(1, 12)))
        once = tokenize(line)
        assert tokenize(" ".join(once)) == once


def test_vocabulary_frequency_order():
    vocab = Vocabulary.from_corpus([["a", "b"], ["a"]])
    assert len(vocab) == 6
    assert vocab.encode("a") == 4
    assert vocab.encode("b") == 5
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


def test_vocabulary_tie_break_lexicographic():
    vocab = Vocabulary.from_corpus([["zeta", "alpha"]])
    assert vocab.encode("alpha") == 4
    assert vocab.encode("zeta") == 5


def test_vocabulary_truncation():
    vocab = Vocabulary.from_corpus([["a", "b"], ["a"]], max_size=5)
    assert len(vocab) == 5
    assert vocab.encode("a") == 4
    assert vocab.encode("b") == UNK_ID


def test_vocabulary_unknown_token():
    vocab = Vocabulary.from_corpus([["a"]])
    assert vocab.encode("missing") == UNK_ID


def test_vocabulary_round_trip():
    vocab = Vocabulary.from_corpus([["a", "b", "c"], ["b"]])
    for tok in ["a", "b", "c"]:
        assert vocab.decode(vocab.encode(tok)) == tok
    rebuilt = Vocabulary.from_tokens(vocab.tokens())
    assert rebuilt == vocab


def test_corpus_requires_equal_counts():
    with pytest.raises(ValueError):
        ParallelCorpus(sources=[[1]], targets=[])


def test_make_batches_sizes():
    corpus = ParallelCorpus(sources=[[4, 5]] * 130, targets=[[4]] * 130)
    batches = make_batches(corpus, batch_size=64, shuffle_seed=1)
    assert [b.size for b in batches] == [64, 64, 2]


def test_make_batches_deterministic():
    sources = [[4 + (i % 3)] * (1 + i % 4) for i in range(50)]
    targets = [[5] * (1 + i % 3) for i in range(50)]
    corpus = ParallelCorpus(sources=sources, targets=targets)
    a = make_batches(corpus, batch_size=8, shuffle_seed=42)
    b = make_batches(corpus, batch_size=8, shuffle_seed=42)
    for ba, bb in zip(a, b):
        np.testing.assert_array_equal(ba.src, bb.src)
        np.testing.assert_array_equal(ba.dec_out, bb.dec_out)


def test_equal_length_batch_has_all_ones_mask():
    corpus = ParallelCorpus(sources=[[4, 5]] * 4, targets=[[6, 7]] * 4)
    (batch,) = make_batches(corpus, batch_size=4, shuffle_seed=0)
    assert (batch.tgt_mask == 1.0).all()


def test_batch_layout():
    corpus = ParallelCorpus(sources=[[4, 5, 6], [7]], targets=[[8, 9], [9]])
    (batch,) = make_batches(corpus, batch_size=2, shuffle_seed=0)
    for row in range(2):
        length = batch.src_lengths[row]
        assert (batch.src[row, length:] == PAD_ID).all()
        assert batch.dec_in[row, 0] == BOS_ID
        n_real = int(batch.tgt_mask[row].sum())
        assert batch.dec_out[row, n_real - 1] == EOS_ID
        assert (batch.tgt_mask[row, n_real:] == 0).all()
    # mask is zero exactly on padded positions
    np.testing.assert_array_equal(batch.tgt_mask == 0.0, batch.dec_out == PAD_ID)


def test_speech_sources_pad_with_zero_frames():
    frames = [np.ones((3, 5)), np.ones((1, 5))]
    corpus = ParallelCorpus(sources=frames, targets=[[4], [5]])
    (batch,) = make_batches(corpus, batch_size=2, shuffle_seed=0)
    assert batch.src.shape == (2, 3, 5)
    short = int(np.argmin(batch.src_lengths))
    assert (batch.src[short, 1:] == 0.0).all()


def test_whole_file_writes_a_pipe_in_place_and_a_link_through(tmp_path):
    """A pipe (like ``--output /dev/stdout``) is written in place, not
    replaced by a regular file; a symbolic link stays a link and its
    target gets the new content."""
    target, link, fifo = tmp_path / "real.txt", tmp_path / "link.txt", tmp_path / "pipe"
    target.write_text("old\n")
    link.symlink_to(target)
    with whole_file(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with whole_file(fifo, "wb") as fh:
            fh.write(b"through the pipe\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 100) == b"through the pipe\n"
    finally:
        os.close(reader)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "pipe", "real.txt"]


def test_overlapping_writers_of_one_path_each_write_whole(tmp_path):
    """Two writers of one path have temporary files of their own: the block
    that closes last wins with all of its content, the other's content is
    whole until then, and no temporary file is left."""
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with whole_file(path) as first:
        first.write("first, part one\n")
        with whole_file(path, "wb") as second:
            second.write(b"second\n")
            first.write("first, part two\n")
        assert path.read_text() == "second\n"
        first.write("first, part three\n")
    assert path.read_text() == "first, part one\nfirst, part two\nfirst, part three\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
