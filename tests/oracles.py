"""Independent reference implementations used only to derive expected test
values.  Deliberately written with different machinery than the package
(explicit loops, Fractions, scalar arithmetic) so they cannot share bugs
with the code under test.  The last few helpers (tape replay, one-pair
loss, subsampled length, observed LM contexts) serve only the tests, so
they live here rather than in the package; after them come the numpy forms
that rewritten primitive rules had before, which the rules must match bit
for bit."""

from collections import Counter
from fractions import Fraction
from math import exp, log, sqrt, tanh


def bleu_oracle(hypotheses, reference_sets, max_order=4):
    """Corpus BLEU from first principles with exact rational counts."""
    match = [0] * (max_order + 1)
    total = [0] * (max_order + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, reference_sets):
        hyp = list(hyp)
        hyp_len += len(hyp)
        best = None
        for ref in refs:
            d = abs(len(ref) - len(hyp))
            if best is None or d < best[0] or (d == best[0] and len(ref) < best[1]):
                best = (d, len(ref))
        ref_len += best[1]
        for n in range(1, max_order + 1):
            grams = {}
            for i in range(len(hyp) - n + 1):
                g = tuple(hyp[i : i + n])
                grams[g] = grams.get(g, 0) + 1
            for g, c in grams.items():
                total[n] += c
                cap = 0
                for ref in refs:
                    rc = 0
                    for i in range(len(ref) - n + 1):
                        if tuple(ref[i : i + n]) == g:
                            rc += 1
                    cap = max(cap, rc)
                match[n] += min(c, cap)
    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else exp(1.0 - ref_len / hyp_len)
    orders = [n for n in range(1, max_order + 1) if total[n] > 0]
    if not orders or any(match[n] == 0 for n in orders):
        return 0.0
    precisions = [Fraction(match[n], total[n]) for n in orders]
    mean = exp(sum(log(p) for p in precisions) / len(orders))
    return 100.0 * bp * mean


def sigmoid(x):
    return 1.0 / (1.0 + exp(-x))


def lstm_step_oracle(wx, wh, b, x, c, h):
    """One LSTM step in plain scalar arithmetic.

    wx: 4m x d nested lists, wh: 4m x m, b: 4m; gate order i, f, g, o.
    Returns (c', h') as lists.
    """
    m = len(c)
    gates = []
    for row in range(4 * m):
        acc = b[row]
        for j, xv in enumerate(x):
            acc += wx[row][j] * xv
        for j, hv in enumerate(h):
            acc += wh[row][j] * hv
        gates.append(acc)
    i = [sigmoid(gates[j]) for j in range(m)]
    f = [sigmoid(gates[m + j]) for j in range(m)]
    g = [tanh(gates[2 * m + j]) for j in range(m)]
    o = [sigmoid(gates[3 * m + j]) for j in range(m)]
    c_new = [f[j] * c[j] + i[j] * g[j] for j in range(m)]
    h_new = [o[j] * tanh(c_new[j]) for j in range(m)]
    return c_new, h_new


def frame_count_oracle(n_samples, window, hop):
    """Count frames by explicitly walking the signal."""
    count = 0
    start = 0
    while start + window <= n_samples:
        count += 1
        start += hop
    return count


def pyramid_length_oracle(length, subsample_layers=2):
    """Length after repeatedly keeping indices 0, 2, 4, ..."""
    idx = list(range(length))
    for _ in range(subsample_layers):
        idx = idx[::2]
    return len(idx)


def text_forward_oracle(values, m, src_ids, dec_in_ids):
    """End-to-end scalar/numpy evaluation of the text model: bidirectional
    encoder, state init, two decoder LSTM layers, additive attention,
    projection and softmax.  ``values`` maps parameter names to arrays.

    Returns the list of per-step output distributions.
    """
    import numpy as np

    def lstm(prefix, x, c, h):
        return lstm_step_oracle(values[prefix + ".wx"].tolist(),
                                values[prefix + ".wh"].tolist(),
                                values[prefix + ".b"].tolist(),
                                list(x), list(c), list(h))

    # encoder: two stacked bidirectional layers, outputs summed
    seq = [values["src_embed"][:, i] for i in src_ids]
    final = None
    for layer in range(2):
        fwd_out = []
        c = [0.0] * m
        h = [0.0] * m
        for x in seq:
            c, h = lstm(f"enc.{layer}.fwd", x, c, h)
            fwd_out.append(h)
        final = list(c) + list(h)
        bwd_out = []
        c = [0.0] * m
        h = [0.0] * m
        for x in reversed(seq):
            c, h = lstm(f"enc.{layer}.bwd", x, c, h)
            bwd_out.append(h)
        bwd_out.reverse()
        seq = [np.array(f) + np.array(b) for f, b in zip(fwd_out, bwd_out)]

    import numpy as np
    s0 = np.tanh(values["dec.init_w"] @ np.array(final))
    states = [([0.0] * m, [0.0] * m), (list(s0[:m]), list(s0[m:]))]

    dists = []
    for prev in dec_in_ids:
        x = values["dec.embed"][:, prev]
        new_states = []
        for layer in range(2):
            c, h = states[layer]
            c, h = lstm(f"dec.{layer}", x, c, h)
            new_states.append((c, h))
            x = np.array(h)
        states = new_states
        top_c, top_h = states[1]
        s_t = np.array(list(top_c) + list(top_h))
        scores = []
        for h_i in seq:
            inner = values["attn.enc_w"] @ h_i + values["attn.state_w"] @ s_t + values["attn.bias"]
            scores.append(float(values["attn.score_v"] @ np.tanh(inner)))
        scores = np.array(scores)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        context = sum(w * h_i for w, h_i in zip(weights, seq))
        merged = values["dec.merge_w"] @ np.concatenate([top_h, context]) + values["dec.merge_b"]
        logits = values["dec.vocab_w"] @ merged + values["dec.vocab_b"]
        e = np.exp(logits - logits.max())
        dists.append(e / e.sum())
    return dists


def trigram_oracle(sentences, size, lambdas, bos):
    """p(. | u, v) of the interpolated trigram model, from raw counts in
    Python floats.  ``sentences`` are the predicted ids of each sentence
    (EOS included), each started from the context (bos, bos).  Per word:
    l1 * p1, plus l2 * count / total of the bigram context, plus
    l3 * count / total of the trigram context, in that order; p1 gives each
    unseen word 1 / (size * total) and scales the seen ones to the rest."""
    l1, l2, l3 = lambdas
    uni, bi, tri = Counter(), Counter(), Counter()
    for ids in sentences:
        u = v = bos
        for w in ids:
            uni[w] += 1
            bi[v, w] += 1
            tri[u, v, w] += 1
            u, v = v, w
    total = sum(uni.values())
    if total == 0:
        p1 = [1.0 / size] * size
    else:
        floor = 1.0 / (size * total)
        rest = 1.0 - (size - len(uni)) * floor
        p1 = [uni[w] / total * rest if uni[w] else floor for w in range(size)]
    bi_total, tri_total = Counter(), Counter()
    for (v, _), count in bi.items():
        bi_total[v] += count
    for (u, v, _), count in tri.items():
        tri_total[u, v] += count

    def distribution(u, v):
        probs = [l1 * p for p in p1]
        for w in range(size):
            if bi[v, w]:
                probs[w] += l2 * bi[v, w] / bi_total[v]
            if tri[u, v, w]:
                probs[w] += l3 * tri[u, v, w] / tri_total[u, v]
        return probs

    return distribution


def adam_oracle(value, m, v, grad, step, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step over flat lists of Python floats,
    element by element in the textbook order; returns new (value, m, v)."""
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    new_value, new_m, new_v = [], [], []
    for p, m_i, v_i, g in zip(value, m, v, grad):
        m_i = beta1 * m_i + (1.0 - beta1) * g
        v_i = beta2 * v_i + (1.0 - beta2) * (g * g)
        new_value.append(p - learning_rate * (m_i / c1) / (sqrt(v_i / c2) + eps))
        new_m.append(m_i)
        new_v.append(v_i)
    return new_value, new_m, new_v


def tape_replays_exactly(tape):
    """Recompute every tape entry from its recorded inputs: True when each
    output is bit-identical to the recorded one (the tape-consistency
    invariant)."""
    import numpy as np
    from s2t.autodiff import _PRIMITIVES

    for entry in tape.entries:
        out = _PRIMITIVES[entry.kind].forward([tape.values[i] for i in entry.inputs], entry.attrs)
        if not np.array_equal(out, tape.values[entry.output]):
            return False
    return True


def subsampled_length(length, subsample_count=2):
    """Length after ``subsample_count`` rounds of halving, rounding up."""
    for _ in range(subsample_count):
        length = (length + 1) // 2
    return length


def sequence_nll(model, source, target):
    """batch_nll of one (source, target) pair, dropout off."""
    from s2t.corpus import make_batch

    if len(target) == 0:
        raise ValueError("empty target")
    return model.batch_nll(model.store.as_tensors(), make_batch([source], [list(target)])).item()


def observed_contexts(model):
    """The (u, v) contexts a trigram model's trigram records name, sorted."""
    return sorted({(u, v) for u, v in model.trigrams[:, :2].tolist()})


def conv_windows_oracle(x, k):
    """conv1d's [..., n, k] windows built with ``np.pad`` and
    ``sliding_window_view``, as the rule first built them."""
    import numpy as np

    half = (k - 1) // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)])
    return np.lib.stride_tricks.sliding_window_view(padded, k, axis=-1)


def conv1d_oracle(signal, filt):
    """conv1d's forward over :func:`conv_windows_oracle`."""
    return conv_windows_oracle(signal, len(filt)) @ filt[::-1]


def conv1d_backward_oracle(g, signal, filt):
    """conv1d's (signal, filter) gradients over :func:`conv_windows_oracle`."""
    import numpy as np

    axes = tuple(range(g.ndim))
    return (conv1d_oracle(g, filt[::-1]),
            np.tensordot(g, conv_windows_oracle(signal, len(filt)), (axes, axes))[::-1])


def sigmoid_expression_oracle(x):
    """The sigmoid rule as one numpy expression, temporaries and all."""
    import numpy as np

    return 0.5 * np.tanh(0.5 * x) + 0.5


def slice_index_oracle(ndim, attrs):
    """The ``slice`` primitive's index: a full slice on every axis but the
    attribute's, built as a list."""
    index = [slice(None)] * ndim
    index[attrs["axis"]] = (attrs["index"] if "index" in attrs
                            else slice(attrs["start"], attrs["stop"], attrs.get("step")))
    return tuple(index)


def transposed_weight_grad_oracle(g, x, w):
    """The ``matmul`` weight gradient in its earlier form, the transpose of
    ``x2.T @ g2`` (a Fortran-ordered view), over the flattened rows."""
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, len(w.reshape(-1, w.shape[-1])))
    return (x2.T @ g2).T.reshape(w.shape)
