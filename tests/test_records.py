"""The package's records are plain classes, not dataclasses.

The frozen ones reject assigning and deleting attributes, as
``@dataclass(frozen=True)`` did; the others keep their fields as given,
and ``EvaluationReport.spectra`` is a fresh list per report.
"""

from __future__ import annotations

import numpy as np
import pytest

from styluskit.calib import FilterParams
from styluskit.evaluation import EpsilonHistogram, EvaluationReport
from styluskit.geometry import EulerAngles, Pose
from styluskit.synth import ConstantForce, SineForce, SynthConfig

FROZEN = {
    "Pose": lambda: Pose([0.0, 0.0, 0.0, 2.0], [1.0, 2.0, 3.0]),
    "EulerAngles": lambda: EulerAngles(0.1, 0.2, 0.3),
    "FilterParams": lambda: FilterParams(0.01, 4),
    "SynthConfig": lambda: SynthConfig(Pose.identity(), [0.0, 0.0, 0.0], sample_count=5),
    "ConstantForce": lambda: ConstantForce(2.0),
    "SineForce": lambda: SineForce(3.0, 0.5),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_records_reject_assignment_and_deletion(make):
    record = make()
    name = next(iter(vars(record)))
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=repr(name)):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="'other'"):
        record.other = 1
    with pytest.raises(AttributeError, match=repr(name)):
        delattr(record, name)
    assert getattr(record, name) is value


def test_records_keep_their_parameters_and_defaults():
    pose = Pose([0.0, 0.0, 0.0, 2.0], [1.0, 2.0, 3.0])
    assert pose.rotation.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert not pose.rotation.flags.writeable
    assert vars(EulerAngles(0.1, 0.2, 0.3)) == {"yaw": 0.1, "pitch": 0.2, "roll": 0.3}
    assert vars(FilterParams()) == {"neighborhood_radius": 0.005, "min_neighbors": 10}
    assert vars(SineForce(3.0, 0.5)) == {"frequency_hz": 3.0, "amplitude": 0.5, "offset": 0.0}
    cfg = SynthConfig(pose, [1, 2, 3])
    assert list(vars(cfg)) == [
        "true_calibration", "pivot_point", "sample_count", "rotation_span",
        "position_noise_std", "orientation_noise_std", "outlier_rate", "outlier_magnitude", "seed",
    ]
    assert cfg.pivot_point.dtype == float and cfg.sample_count == 200 and cfg.seed == 0


def test_each_report_gets_its_own_spectra_list():
    histogram = EpsilonHistogram(np.arange(2.0), np.array([1]), 0.003, 1.0)
    a = EvaluationReport({}, [], [], [], histogram)
    b = EvaluationReport({}, [], [], [], histogram)
    a.spectra.append("spectrum")
    assert b.spectra == []
