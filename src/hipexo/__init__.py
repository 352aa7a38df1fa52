"""Task-agnostic bilateral hip exoskeleton controller, stride-replay
simulator, in-silico parameter optimizer, and joint-energetics metrics."""

__version__ = "0.1.0"

from .controller import ControllerParams, HipController, SensorFrame, TorqueBreakdown
from .gaitdata import ActivityLabel, StrideSeries, synth_battery, synth_profiles
from .heelstrike import HsDetector, HsEvent
from .metrics import cosine_similarity, joint_power, positive_work
from .optimize import ObjectiveSpec, OptResult, TaskSet, objective, optimize
from .replay import replay_stride, simulate_task
from .signals import BiquadSpec, EmaState, LowpassFilter, SigmoidParams, sigmoid

__all__ = [
    "__version__",
    "ControllerParams", "HipController", "SensorFrame", "TorqueBreakdown",
    "ActivityLabel", "StrideSeries", "synth_battery", "synth_profiles",
    "HsDetector", "HsEvent",
    "cosine_similarity", "joint_power", "positive_work",
    "ObjectiveSpec", "OptResult", "TaskSet", "objective", "optimize",
    "replay_stride", "simulate_task",
    "BiquadSpec", "EmaState", "LowpassFilter", "SigmoidParams", "sigmoid",
]
