import math

import pytest

from hipexo.configio import load_params
from hipexo.gaitdata import synth_battery
from hipexo.heelstrike import HsDetector


@pytest.fixture(scope="session")
def default_params():
    return load_params("default")


@pytest.fixture(scope="session")
def battery():
    """The shipped synthetic battery (3 strides per task, seed 7)."""
    return synth_battery(strides_per_task=3, seed=7)


@pytest.fixture
def detector_timestamps(monkeypatch):
    """The timestamps of the frames ``HsDetector.update`` is fed, in order;
    a frame with a non-finite value fails the test."""
    update = HsDetector.update
    seen = []

    def checked_update(self, timestamp, acc_l, acc_r, acc_p, bilateral):
        values = (timestamp, acc_l, acc_r, acc_p, bilateral.theta_thigh_l,
                  bilateral.theta_thigh_r, bilateral.theta_diff_dot)
        assert all(map(math.isfinite, values)), values
        seen.append(timestamp)
        return update(self, timestamp, acc_l, acc_r, acc_p, bilateral)

    monkeypatch.setattr(HsDetector, "update", checked_update)
    return seen
