import math

import numpy as np
import pytest

from hipexo import cli
from hipexo.configio import load_params
from hipexo.gaitdata import synth_battery
from hipexo.heelstrike import HsDetector, detect_columns


@pytest.fixture(scope="session")
def default_params():
    return load_params("default")


@pytest.fixture(scope="session")
def battery():
    """The shipped synthetic battery (3 strides per task, seed 7)."""
    return synth_battery(strides_per_task=3, seed=7)


@pytest.fixture
def detector_timestamps(monkeypatch):
    """The timestamps of the frames the heel-strike detector is fed, in
    order: through ``HsDetector.update`` on the controller's path and
    through ``detect_columns`` on detect-hs's. A non-finite input fails
    the test."""
    update = HsDetector.update
    seen = []

    def checked_update(self, timestamp, acc_l, acc_r, acc_p, bilateral):
        values = (timestamp, acc_l, acc_r, acc_p, bilateral.theta_thigh_l,
                  bilateral.theta_thigh_r, bilateral.theta_diff_dot)
        assert all(map(math.isfinite, values)), values
        seen.append(timestamp)
        return update(self, timestamp, acc_l, acc_r, acc_p, bilateral)

    def checked_columns(rate_hz, t, *columns, config=None):
        for x in (t, *columns):
            assert np.isfinite(x).all(), x
        seen.extend(t.tolist())
        return detect_columns(rate_hz, t, *columns, config=config)

    monkeypatch.setattr(HsDetector, "update", checked_update)
    monkeypatch.setattr(cli, "detect_columns", checked_columns)
    return seen
