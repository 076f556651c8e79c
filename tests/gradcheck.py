"""Finite-difference gradient oracle shared by the tensor tests and the
acceptance suite.

Central differences with h=1e-3 on the float32 engine, differenced in
float64. The error model is roundoff eps*|f|/(2h|g|) plus truncation
h^2|f'''|/6, so test functions are built to keep |f| and the gradients
O(1); the comparison denominator has a floor of 1 to give small entries
an absolute tolerance.
"""

import numpy as np

from metareplay.tensor import Tensor, backward


def scalarize(out, w=None):
    """Reduce a tensor to a scalar with fixed random weights so that every
    output element influences the loss (a plain sum hides sign errors that
    cancel)."""
    from metareplay import tensor as T
    if w is None:
        w = np.arange(1, out.size + 1, dtype=np.float32).reshape(out.shape)
        w = np.cos(w)  # fixed, O(1), sign-varying
    return T.sum_(T.mul(out, w))


def analytic_grads(f, xs):
    return backward(f(*xs), xs)


def fd_grad(f, xs, i, h=1e-3):
    """Central-difference gradient of f(*xs) w.r.t. xs[i], in float64."""
    flat = xs[i].data.ravel()
    g = np.zeros(flat.size, dtype=np.float64)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = float(f(*xs).data)
        flat[j] = orig - h
        fm = float(f(*xs).data)
        flat[j] = orig
        g[j] = (fp - fm) / (2.0 * h)
    return g.reshape(xs[i].data.shape)


def max_rel_err(a, n):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a.astype(np.float64) - n) / denom))


def check_grad(f, xs, tol=1e-3, h=1e-3):
    """Assert analytic gradients of f match central differences for every
    input that requires grad. Returns the worst relative error seen."""
    grads = analytic_grads(f, xs)
    worst = 0.0
    for i, x in enumerate(xs):
        if not x.requires_grad:
            continue
        num = fd_grad(f, xs, i, h=h)
        assert grads[i] is not None, f"input {i}: no gradient recorded"
        err = max_rel_err(grads[i], num)
        worst = max(worst, err)
        assert err < tol, f"input {i}: rel err {err:.3e} >= {tol:g}"
    return worst


def leaf(rng, *shape, lo=-1.0, hi=1.0, away_from=None, margin=0.1):
    """Random float32 leaf. away_from keeps every entry at least margin
    from the given value (kink avoidance for relu and friends)."""
    x = rng.uniform(lo, hi, size=shape).astype(np.float32)
    if away_from is not None:
        d = x - away_from
        x = np.where(np.abs(d) < margin,
                     away_from + np.sign(d + 1e-12) * margin, x).astype(np.float32)
    return Tensor(x, requires_grad=True)


def primitive_cases(rng):
    """One gradcheck case per differentiable primitive: (name, f, xs).
    Inputs dodge kinks (relu at 0, pool ties) and singularities (log,
    sqrt, div near 0)."""
    from metareplay import tensor as T
    cases = []

    def add_case(name, f, xs):
        cases.append((name, f, xs))

    a = leaf(rng, 3, 4)
    b = leaf(rng, 3, 4)
    add_case("add", lambda a, b: scalarize(T.add(a, b)), [a, b])
    add_case("sub", lambda a, b: scalarize(T.sub(a, b)), [leaf(rng, 3, 4), leaf(rng, 3, 4)])
    add_case("mul", lambda a, b: scalarize(T.mul(a, b)), [leaf(rng, 3, 4), leaf(rng, 3, 4)])
    add_case("div", lambda a, b: scalarize(T.div(a, b)),
             [leaf(rng, 3, 4), leaf(rng, 3, 4, lo=0.5, hi=1.5)])
    add_case("add-broadcast", lambda a, b: scalarize(T.add(a, b)),
             [leaf(rng, 3, 1), leaf(rng, 1, 4)])
    add_case("mul-scalar-broadcast", lambda a, b: scalarize(T.mul(a, b)),
             [leaf(rng, 3, 4), leaf(rng, 1)])
    add_case("matmul", lambda a, b: scalarize(T.matmul(a, b)),
             [leaf(rng, 3, 5), leaf(rng, 5, 2)])
    add_case("reshape", lambda x: scalarize(T.reshape(x, (2, 6))), [leaf(rng, 3, 4)])
    add_case("transpose", lambda x: scalarize(T.transpose(x)), [leaf(rng, 3, 4)])
    add_case("transpose-axes",
             lambda x: scalarize(T.transpose(x, (1, 0, 2))), [leaf(rng, 2, 3, 4)])
    add_case("concat",
             lambda a, b: scalarize(T.concat([a, b], axis=1)),
             [leaf(rng, 2, 3), leaf(rng, 2, 4)])
    add_case("slice", lambda x: scalarize(T.slice_(x, (slice(1, 3), slice(None, None, 2)))),
             [leaf(rng, 4, 5)])
    add_case("relu", lambda x: scalarize(T.relu(x)),
             [leaf(rng, 3, 4, away_from=0.0, margin=0.15)])
    add_case("tanh", lambda x: scalarize(T.tanh(x)), [leaf(rng, 3, 4)])
    add_case("sigmoid", lambda x: scalarize(T.sigmoid(x)), [leaf(rng, 3, 4)])
    add_case("exp", lambda x: scalarize(T.exp(x)), [leaf(rng, 3, 4)])
    add_case("log", lambda x: scalarize(T.log(x)), [leaf(rng, 3, 4, lo=0.5, hi=2.0)])
    add_case("sqrt", lambda x: scalarize(T.sqrt(x)), [leaf(rng, 3, 4, lo=0.5, hi=2.0)])
    add_case("sum", lambda x: T.sum_(x), [leaf(rng, 3, 4)])
    add_case("sum-axis", lambda x: scalarize(T.sum_(x, axis=1)), [leaf(rng, 3, 4)])
    add_case("sum-keepdims", lambda x: scalarize(T.sum_(x, axis=0, keepdims=True)),
             [leaf(rng, 3, 4)])
    add_case("mean", lambda x: T.mean(x), [leaf(rng, 3, 4)])
    add_case("mean-axis", lambda x: scalarize(T.mean(x, axis=-1)), [leaf(rng, 2, 3, 4)])
    add_case("softmax", lambda x: scalarize(T.softmax(x, axis=1)), [leaf(rng, 3, 4)])
    add_case("log_softmax", lambda x: scalarize(T.log_softmax(x, axis=-1)),
             [leaf(rng, 3, 4)])
    add_case("layer_norm", lambda x: scalarize(T.layer_norm(x)), [leaf(rng, 3, 8)])
    add_case("conv1d", lambda x, w: scalarize(T.conv1d(x, w, stride=2, padding=1)),
             [leaf(rng, 2, 3, 8), leaf(rng, 4, 3, 3)])
    add_case("conv1d-nobias", lambda x, w: scalarize(T.conv1d(x, w)),
             [leaf(rng, 2, 2, 6), leaf(rng, 3, 2, 3)])
    # distinct values -> unique pool maxima, margin via linspace offsets
    mp = np.linspace(-1.0, 1.0, 2 * 3 * 8, dtype=np.float32).reshape(2, 3, 8)
    mp = mp + 0.01 * rng.standard_normal((2, 3, 8)).astype(np.float32)
    mp_leaf = Tensor(mp, requires_grad=True)
    add_case("max_pool1d", lambda x: scalarize(T.max_pool1d(x, kernel=2, stride=2)),
             [mp_leaf])
    add_case("global_mean_pool", lambda x: scalarize(T.global_mean_pool(x)),
             [leaf(rng, 2, 3, 6)])
    add_case("l2_normalize", lambda x: scalarize(T.l2_normalize(x, axis=1)),
             [leaf(rng, 3, 4, lo=0.4, hi=1.2)])
    labels = rng.integers(0, 4, size=3)
    add_case("cross_entropy_with_logits",
             lambda x: T.cross_entropy_with_logits(x, labels), [leaf(rng, 3, 4)])
    tgt = rng.integers(0, 2, size=(3, 4)).astype(np.float32)
    add_case("binary_cross_entropy_with_logits",
             lambda x: T.mean(T.binary_cross_entropy_with_logits(x, tgt)),
             [leaf(rng, 3, 4)])
    return cases


def random_net_cases(rng):
    """Three small random networks mixing the primitives; each case is
    (name, f, xs) with f: xs -> scalar loss."""
    from metareplay import tensor as T

    def case_dense():
        w1 = leaf(rng, 6, 5)
        b1 = leaf(rng, 5)
        w2 = leaf(rng, 5, 3)
        x = rng.uniform(-1, 1, size=(4, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=4)

        def f(w1, b1, w2):
            h = T.relu(T.add(T.matmul(x, w1), b1))
            # keep pre-activations away from the relu kink
            h = T.add(h, 0.05)
            logits = T.matmul(h, w2)
            return T.cross_entropy_with_logits(logits, labels)
        return "dense-relu-ce", f, [w1, b1, w2]

    def case_conv():
        w = leaf(rng, 4, 3, 3)
        p = leaf(rng, 4, 2)
        x = rng.uniform(-1, 1, size=(2, 3, 10)).astype(np.float32)
        tgt = rng.integers(0, 2, size=(2, 2)).astype(np.float32)

        def f(w, p):
            h = T.conv1d(x, w, stride=1, padding=1)
            h = T.layer_norm(h)
            h = T.tanh(h)
            h = T.max_pool1d(h, kernel=2, stride=2)
            e = T.global_mean_pool(h)
            logits = T.matmul(e, p)
            return T.mean(T.binary_cross_entropy_with_logits(logits, tgt))
        return "conv-ln-pool-bce", f, [w, p]

    def case_embed():
        a = leaf(rng, 3, 4, lo=0.4, hi=1.2)
        b = leaf(rng, 3, 4, lo=0.4, hi=1.2)

        def f(a, b):
            za = T.l2_normalize(a, axis=1)
            zb = T.l2_normalize(b, axis=1)
            sims = T.matmul(za, T.transpose(zb))
            lp = T.log_softmax(T.div(sims, 0.5), axis=1)
            diag = T.slice_(T.reshape(lp, (9,)), slice(0, 9, 4))
            extra = T.log(T.add(T.exp(T.mean(a)), T.sqrt(T.sum_(T.mul(b, b)))))
            return T.sub(extra, T.mean(diag))
        return "cosine-logsoftmax", f, [a, b]

    return [case_dense(), case_conv(), case_embed()]
