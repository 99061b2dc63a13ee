"""Naive reference implementation used as an independent oracle.

Deliberately written the slow, obvious way: frame-by-frame loops, explicit
tap bounds checks, and one *untied* copy of each shared transform per
layer. The production code vectorizes over time and ties the shared
transforms; agreement between the two is a meaningful check precisely
because nothing here reuses its shift/accumulation machinery.

Gradients come back in a dict keyed by parameter name. The shared
transforms appear per layer (`shared_past[l]`) so tests can verify that
the tied gradient equals the sum of the untied copies.
"""

import numpy as np


def _shared_apply(vec, shared, form):
    if form == "diagonal":
        return vec * shared
    return vec @ shared


def ref_forward(params, config, x, signs=None):
    """Frame-loop forward pass. Returns (store, logits).

    With `signs`, the store of a plain pass over the same x, the input and
    every weight enter by their absolute values and each relu passes the
    entries it passed in `signs`. Each stored array then holds the
    magnitude sums of the values it stands for, the scale of their
    rounding error.
    """
    mag = np.asarray if signs is None else np.abs

    def relu(v, kept):
        return np.where((v if signs is None else kept(signs)) > 0.0, v, 0.0)

    x = mag(np.asarray(x, dtype=np.float64))
    t_frames = x.shape[0]
    l_count = config.num_memory_layers
    delays = [l_count - l for l in range(l_count)] if config.delay_enabled else [0] * l_count
    form = config.shared_weight_form
    bi = config.direction == "bi"

    input_w, input_b = mag(params.input_w.value), mag(params.input_b.value)
    input_pre = np.array([x[t] @ input_w + input_b for t in range(t_frames)])
    input_post = relu(input_pre, lambda s: s["input_pre"])
    proj_w, proj_b = mag(params.proj_w.value), mag(params.proj_b.value)
    proj_pre = np.array([input_post[t] @ proj_w + proj_b for t in range(t_frames)])
    proj_post = relu(proj_pre, lambda s: s["proj_pre"])

    layer_pre = []
    layer_sum = []
    layer_out = []
    v = proj_post
    block_input = proj_post
    interval = config.residual_interval
    for l in range(l_count):
        w, b = mag(params.layer_w[l].value), mag(params.layer_b[l].value)
        pre = np.array([v[t] @ w + b for t in range(t_frames)])
        z = np.empty_like(pre)
        for t in range(t_frames):
            row = pre[t].copy()
            if config.delay_enabled:
                m = delays[l]
                if t - m >= 0:
                    row = row + _shared_apply(pre[t - m], mag(params.shared_past.value), form)
                if bi and t + m < t_frames:
                    row = row + _shared_apply(pre[t + m], mag(params.shared_future.value), form)
            z[t] = row
        out = relu(z, lambda s: s["layer_sum"][l])
        if interval is not None and (l + 1) % interval == 0:
            out = out + block_input
            block_input = out
        layer_pre.append(pre)
        layer_sum.append(z)
        layer_out.append(out)
        v = out

    out1_w, out1_b = mag(params.out1_w.value), mag(params.out1_b.value)
    out1_pre = np.array([v[t] @ out1_w + out1_b for t in range(t_frames)])
    out1_post = relu(out1_pre, lambda s: s["out1_pre"])
    out2_w, out2_b = mag(params.out2_w.value), mag(params.out2_b.value)
    logits = np.array([out1_post[t] @ out2_w + out2_b for t in range(t_frames)])

    store = {
        "x": x,
        "input_pre": input_pre,
        "input_post": input_post,
        "proj_pre": proj_pre,
        "proj_post": proj_post,
        "layer_pre": layer_pre,
        "layer_sum": layer_sum,
        "layer_out": layer_out,
        "out1_pre": out1_pre,
        "out1_post": out1_post,
        "logits": logits,
        "delays": delays,
    }
    return store, logits


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ref_loss(logits, labels):
    probs = _softmax_rows(logits)
    t_frames = logits.shape[0]
    picked = probs[np.arange(t_frames), labels]
    return float(np.mean(-np.log(picked)))


def ref_backward(params, config, store, labels, loss_scale=1.0, grad_window=None, scale=None):
    """Frame-loop backward pass with untied shared copies.

    Returns (loss, grads) where grads maps names to arrays; `shared_past`
    and `shared_future` map to *lists* with one gradient per layer.
    Out-of-window rows feed values forward but receive no adjoint, the
    same stop-gradient rule the production trainer uses for truncated
    chunks.

    With `scale`, the store of `ref_forward(..., signs=store)`, the
    weights, activations, taps and `g_logits` enter by their magnitude
    sums and every relu mask stays that of `store`. Each gradient entry is
    then the magnitude sum of the terms that make it up, forward pass
    included: the float error bound of a sum, up to a factor.
    """
    mag = np.asarray if scale is None else np.abs
    acts = store if scale is None else scale
    labels = np.asarray(labels)
    x = acts["x"]
    t_frames = x.shape[0]
    l_count = config.num_memory_layers
    form = config.shared_weight_form
    bi = config.direction == "bi"
    delays = store["delays"]
    interval = config.residual_interval
    lo, hi = (0, t_frames) if grad_window is None else grad_window

    in_window = np.zeros(t_frames, dtype=bool)
    in_window[lo:hi] = True

    probs = _softmax_rows(store["logits"][lo:hi])
    picked = probs[np.arange(hi - lo), labels[lo:hi]]
    loss = float(np.mean(-np.log(picked)))
    g_logits = np.zeros_like(store["logits"])
    onehot = np.zeros_like(probs)
    onehot[np.arange(hi - lo), labels[lo:hi]] = 1.0
    # a difference's magnitude sum is the sum of the magnitudes
    g_logits[lo:hi] = (probs - onehot if scale is None else probs + onehot) / (hi - lo) * loss_scale

    grads = {
        "input_w": np.zeros_like(params.input_w.value),
        "input_b": np.zeros_like(params.input_b.value),
        "proj_w": np.zeros_like(params.proj_w.value),
        "proj_b": np.zeros_like(params.proj_b.value),
        "layer_w": [np.zeros_like(p.value) for p in params.layer_w],
        "layer_b": [np.zeros_like(p.value) for p in params.layer_b],
        "shared_past": [np.zeros_like(params.shared_past.value) for _ in range(l_count)],
        "shared_future": (
            [np.zeros_like(params.shared_future.value) for _ in range(l_count)] if bi else None
        ),
        "out1_w": np.zeros_like(params.out1_w.value),
        "out1_b": np.zeros_like(params.out1_b.value),
        "out2_w": np.zeros_like(params.out2_w.value),
        "out2_b": np.zeros_like(params.out2_b.value),
    }

    g_out1_post = np.zeros((t_frames, params.out2_w.value.shape[0]))
    for t in range(t_frames):
        grads["out2_w"] += np.outer(acts["out1_post"][t], g_logits[t])
        grads["out2_b"] += g_logits[t]
        g_out1_post[t] = mag(params.out2_w.value) @ g_logits[t]
    g_out1_pre = np.where(store["out1_pre"] > 0.0, g_out1_post, 0.0)
    g_v = np.zeros((t_frames, params.out1_w.value.shape[0]))
    for t in range(t_frames):
        grads["out1_w"] += np.outer(acts["layer_out"][-1][t], g_out1_pre[t])
        grads["out1_b"] += g_out1_pre[t]
        g_v[t] = mag(params.out1_w.value) @ g_out1_pre[t]

    pending = {}
    for l in range(l_count - 1, -1, -1):
        layer_no = l + 1
        if interval is not None and layer_no % interval == 0 and layer_no - interval >= 0:
            src = layer_no - interval
            pending[src] = pending.get(src, 0.0) + g_v
        g_sum = np.where(store["layer_sum"][l] > 0.0, g_v, 0.0)
        g_pre = g_sum.copy()
        if config.delay_enabled:
            m = delays[l]
            pre = acts["layer_pre"][l]
            for t in range(t_frames):
                if t - m >= 0:
                    if form == "diagonal":
                        grads["shared_past"][l] += pre[t - m] * g_sum[t]
                        if in_window[t - m]:
                            g_pre[t - m] += mag(params.shared_past.value) * g_sum[t]
                    else:
                        grads["shared_past"][l] += np.outer(pre[t - m], g_sum[t])
                        if in_window[t - m]:
                            g_pre[t - m] += mag(params.shared_past.value) @ g_sum[t]
                if bi and t + m < t_frames:
                    if form == "diagonal":
                        grads["shared_future"][l] += pre[t + m] * g_sum[t]
                        if in_window[t + m]:
                            g_pre[t + m] += mag(params.shared_future.value) * g_sum[t]
                    else:
                        grads["shared_future"][l] += np.outer(pre[t + m], g_sum[t])
                        if in_window[t + m]:
                            g_pre[t + m] += mag(params.shared_future.value) @ g_sum[t]
        below = acts["layer_out"][l - 1] if l > 0 else acts["proj_post"]
        g_below = np.zeros_like(below)
        for t in range(t_frames):
            grads["layer_w"][l] += np.outer(below[t], g_pre[t])
            grads["layer_b"][l] += g_pre[t]
            g_below[t] = mag(params.layer_w[l].value) @ g_pre[t]
        if l in pending:
            g_below = g_below + pending.pop(l)
        g_v = g_below

    g_proj_pre = np.where(store["proj_pre"] > 0.0, g_v, 0.0)
    g_input_post = np.zeros_like(store["input_post"])
    for t in range(t_frames):
        grads["proj_w"] += np.outer(acts["input_post"][t], g_proj_pre[t])
        grads["proj_b"] += g_proj_pre[t]
        g_input_post[t] = mag(params.proj_w.value) @ g_proj_pre[t]
    g_input_pre = np.where(store["input_pre"] > 0.0, g_input_post, 0.0)
    for t in range(t_frames):
        grads["input_w"] += np.outer(x[t], g_input_pre[t])
        grads["input_b"] += g_input_pre[t]

    return loss, grads


# --- comparing production results against the reference ---------------------


def rel_max(a, b):
    """Largest difference relative to the largest magnitude of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def named_grads(ref_grads):
    """The reference's gradients keyed by production parameter name, the
    untied shared copies summed."""
    ref = dict(ref_grads)
    for name in ("layer_w", "layer_b"):
        for l, g in enumerate(ref.pop(name)):
            ref[f"layer{l + 1}_{name[-1]}"] = g
    for name in ("shared_past", "shared_future"):
        copies = ref.pop(name)
        if copies is not None:
            ref[name] = sum(copies)
    return ref


def ref_grad_scale(params, config, store, labels, grad_window=None):
    """Every reference gradient entry's magnitude sum, forward pass
    included, from a second forward and backward over absolute values."""
    scale, _ = ref_forward(params, config, store["x"], signs=store)
    return ref_backward(params, config, store, labels, grad_window=grad_window, scale=scale)[1]


def grad_errors(params, ref_grads, scale_grads):
    """Every production gradient's largest difference from the reference's,
    each entry relative to its magnitude sum (`ref_grad_scale`). Relative
    to the largest |reference| entry instead, a sum that nearly cancels
    fails: its rounding error scales with its terms, not with its value."""
    ref, scale = named_grads(ref_grads), named_grads(scale_grads)
    return {
        p.name: float((np.abs(p.grad - ref[p.name]) / np.maximum(scale[p.name], 1e-300)).max())
        for p in params.parameters()
    }
