"""The three self-supervised objectives, side by side.

Runs each pretext loss on the same batch of synthetic windows, prints
the loss, and demonstrates the two properties the training loop relies
on: losses are deterministic given the generator, and they fall when
the encoder is trained for a few steps.
"""

import numpy as np

from metareplay.data import default_synth_spec, normalize, synth_generate
from metareplay.optim import adam_step
from metareplay.params import grad_of
from metareplay.pretext import (CPCObjective, MultiTaskObjective,
                                SimCLRObjective, eval_ssl, init_for_objective,
                                min_batch)


def main():
    ds = normalize(synth_generate(default_synth_spec(samples_per_class=20), 3))
    batch = ds.values[np.random.default_rng(0).choice(ds.n_windows, 32, False)]

    objectives = (SimCLRObjective(), CPCObjective(), MultiTaskObjective())
    for obj in objectives:
        name = type(obj).__name__
        params = init_for_objective(obj, ds.n_classes, np.random.default_rng(1))
        loss = eval_ssl(obj, params, batch, np.random.default_rng(2))
        again = eval_ssl(obj, params, batch, np.random.default_rng(2))
        print(f"{name:18s} loss {loss.item():.4f}  "
              f"deterministic={loss.item() == again.item()}")
        print(f"{'':18s} minimum batch {min_batch(obj)}, "
              f"{params.n_values()} parameters")

    # ten optimizer steps pull each loss below its untrained value
    print("\nten Adam steps on a fresh encoder:")
    for obj in objectives:
        params = init_for_objective(obj, ds.n_classes, np.random.default_rng(1))
        rng = np.random.default_rng(4)
        state = None
        first = last = None
        for _ in range(10):
            loss = eval_ssl(obj, params, batch, rng.spawn(1)[0])
            first = first if first is not None else loss.item()
            last = loss.item()
            grads = grad_of(loss, params)
            params, state = adam_step(params, grads, state, lr=1e-3)
        print(f"  {type(obj).__name__:18s} {first:.4f} -> {last:.4f}")


if __name__ == "__main__":
    main()
