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


def _relu(v):
    return np.maximum(v, 0.0)


def _shared_apply(vec, shared, form):
    if form == "diagonal":
        return vec * shared
    return vec @ shared


def ref_forward(params, config, x):
    """Frame-loop forward pass. Returns (store, logits)."""
    x = np.asarray(x, dtype=np.float64)
    t_frames = x.shape[0]
    l_count = config.num_memory_layers
    delays = [l_count - l for l in range(l_count)] if config.delay_enabled else [0] * l_count
    form = config.shared_weight_form
    bi = config.direction == "bi"

    input_pre = np.array([x[t] @ params.input_w.value + params.input_b.value for t in range(t_frames)])
    input_post = _relu(input_pre)
    proj_pre = np.array([input_post[t] @ params.proj_w.value + params.proj_b.value for t in range(t_frames)])
    proj_post = _relu(proj_pre)

    layer_pre = []
    layer_sum = []
    layer_out = []
    v = proj_post
    block_input = proj_post
    interval = config.residual_interval
    for l in range(l_count):
        pre = np.array([v[t] @ params.layer_w[l].value + params.layer_b[l].value for t in range(t_frames)])
        z = np.empty_like(pre)
        for t in range(t_frames):
            row = pre[t].copy()
            if config.delay_enabled:
                m = delays[l]
                if t - m >= 0:
                    row = row + _shared_apply(pre[t - m], params.shared_past.value, form)
                if bi and t + m < t_frames:
                    row = row + _shared_apply(pre[t + m], params.shared_future.value, form)
            z[t] = row
        out = _relu(z)
        if interval is not None and (l + 1) % interval == 0:
            out = out + block_input
            block_input = out
        layer_pre.append(pre)
        layer_sum.append(z)
        layer_out.append(out)
        v = out

    out1_pre = np.array([v[t] @ params.out1_w.value + params.out1_b.value for t in range(t_frames)])
    out1_post = _relu(out1_pre)
    logits = np.array([out1_post[t] @ params.out2_w.value + params.out2_b.value for t in range(t_frames)])

    store = {
        "x": x,
        "input_pre": input_pre,
        "input_post": input_post,
        "proj_pre": proj_pre,
        "proj_post": proj_post,
        "layer_pre": layer_pre,
        "layer_sum": layer_sum,
        "layer_out": layer_out,
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


def ref_backward(params, config, store, labels, loss_scale=1.0, grad_window=None):
    """Frame-loop backward pass with untied shared copies.

    Returns (loss, grads) where grads maps names to arrays; `shared_past`
    and `shared_future` map to *lists* with one gradient per layer.
    Out-of-window rows feed values forward but receive no adjoint, the
    same stop-gradient rule the production trainer uses for truncated
    chunks.
    """
    labels = np.asarray(labels)
    x = store["x"]
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
    g_logits[lo:hi] = (probs - onehot) / (hi - lo) * loss_scale

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

    # classifier affine; out1 activations recomputed from the store
    out1_pre = np.array([
        store["layer_out"][-1][t] @ params.out1_w.value + params.out1_b.value
        for t in range(t_frames)
    ])
    out1_act = _relu(out1_pre)
    g_out1_post = np.zeros((t_frames, params.out2_w.value.shape[0]))
    for t in range(t_frames):
        grads["out2_w"] += np.outer(out1_act[t], g_logits[t])
        grads["out2_b"] += g_logits[t]
        g_out1_post[t] = params.out2_w.value @ g_logits[t]
    g_out1_pre = np.where(out1_pre > 0.0, g_out1_post, 0.0)
    g_v = np.zeros((t_frames, params.out1_w.value.shape[0]))
    for t in range(t_frames):
        grads["out1_w"] += np.outer(store["layer_out"][-1][t], g_out1_pre[t])
        grads["out1_b"] += g_out1_pre[t]
        g_v[t] = params.out1_w.value @ g_out1_pre[t]

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
            pre = store["layer_pre"][l]
            for t in range(t_frames):
                if t - m >= 0:
                    if form == "diagonal":
                        grads["shared_past"][l] += pre[t - m] * g_sum[t]
                        if in_window[t - m]:
                            g_pre[t - m] += params.shared_past.value * g_sum[t]
                    else:
                        grads["shared_past"][l] += np.outer(pre[t - m], g_sum[t])
                        if in_window[t - m]:
                            g_pre[t - m] += params.shared_past.value @ g_sum[t]
                if bi and t + m < t_frames:
                    if form == "diagonal":
                        grads["shared_future"][l] += pre[t + m] * g_sum[t]
                        if in_window[t + m]:
                            g_pre[t + m] += params.shared_future.value * g_sum[t]
                    else:
                        grads["shared_future"][l] += np.outer(pre[t + m], g_sum[t])
                        if in_window[t + m]:
                            g_pre[t + m] += params.shared_future.value @ g_sum[t]
        below = store["layer_out"][l - 1] if l > 0 else store["proj_post"]
        g_below = np.zeros_like(below)
        for t in range(t_frames):
            grads["layer_w"][l] += np.outer(below[t], g_pre[t])
            grads["layer_b"][l] += g_pre[t]
            g_below[t] = params.layer_w[l].value @ g_pre[t]
        if l in pending:
            g_below = g_below + pending.pop(l)
        g_v = g_below

    g_proj_pre = np.where(store["proj_pre"] > 0.0, g_v, 0.0)
    g_input_post = np.zeros_like(store["input_post"])
    for t in range(t_frames):
        grads["proj_w"] += np.outer(store["input_post"][t], g_proj_pre[t])
        grads["proj_b"] += g_proj_pre[t]
        g_input_post[t] = params.proj_w.value @ g_proj_pre[t]
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


def grad_errors(params, ref_grads):
    """rel_max of every production gradient against the reference's."""
    ref = named_grads(ref_grads)
    return {p.name: rel_max(p.grad, ref[p.name]) for p in params.parameters()}
