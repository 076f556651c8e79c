"""Fixtures shared by the training-loop oracles."""

import pytest


@pytest.fixture
def epoch_params(monkeypatch):
    """epoch_params(module) wraps the train_epochs name in module (meta or
    harness) and returns a list that collects the parameters every epoch
    of the pre-training loops that call it ends with."""
    def record(module):
        trajectory = []
        train_epochs = module.train_epochs

        def recording(init_params, epochs, rng, run_epoch, validate):
            def run(params, r_sample, r_train):
                out = run_epoch(params, r_sample, r_train)
                trajectory.append(out[0])
                return out
            return train_epochs(init_params, epochs, rng, run, validate)

        monkeypatch.setattr(module, "train_epochs", recording)
        return trajectory
    return record
