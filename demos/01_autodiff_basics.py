"""A tour of the reverse-mode tensor core that everything else sits on.

Builds a tiny two-layer net by hand, checks one gradient against finite
differences, and shows the named-parameter container the training code
uses instead of a framework module system.
"""

import numpy as np

from metareplay.tensor import Tensor, backward, concat, mean, relu, sum_, tanh
from metareplay.params import ParamVector, grad_of
from metareplay.optim import sgd_step


def main():
    rng = np.random.default_rng(0)

    # --- operators and broadcasting -----------------------------------
    x = Tensor(rng.standard_normal((4, 3)))
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    y = sum_(tanh(x @ w))
    (dw,) = backward(y, [w])       # one gradient per tensor asked for
    print("d sum(tanh(x@w)) / dw, first row:", np.round(dw[0], 4))

    # finite-difference spot check on one entry (float64 side computation;
    # the tensor core itself runs float32)
    eps = 1e-5
    x64, w64 = x.data.astype(np.float64), w.data.astype(np.float64)
    wp, wm = w64.copy(), w64.copy()
    wp[0, 0] += eps
    wm[0, 0] -= eps
    fd = (np.tanh(x64 @ wp).sum() - np.tanh(x64 @ wm).sum()) / (2 * eps)
    print(f"finite difference {fd:.6f} vs autodiff {dw[0, 0]:.6f}")

    # --- a small net as a ParamVector ---------------------------------
    params = ParamVector([
        ("l1.w", 0.1 * rng.standard_normal((3, 8))),
        ("l1.b", np.zeros(8)),
        ("l2.w", 0.1 * rng.standard_normal((8, 1))),
    ])
    data = Tensor(rng.standard_normal((16, 3)))
    target = Tensor(rng.standard_normal((16, 1)))

    def loss_of(p):
        h = relu(data @ p["l1.w"] + p["l1.b"])
        d = h @ p["l2.w"] - target
        return mean(d * d)

    grads = None
    for step in range(5):
        loss = loss_of(params)
        grads = grad_of(loss, params)
        params = sgd_step(params, grads, lr=0.1)
        print(f"step {step}  mse {loss.item():.4f}")

    # grads are themselves a ParamVector, so norms are easy to inspect
    norms = {n: round(float(np.linalg.norm(g.data)), 4) for n, g in grads}
    print("gradient norms at the last step:", norms)

    # concat participates in the graph like any other op
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    da, db = backward(sum_(concat([a, b], axis=0)), [a, b])
    print("concat backprop reaches both inputs:", da.shape, db.shape)


if __name__ == "__main__":
    main()
