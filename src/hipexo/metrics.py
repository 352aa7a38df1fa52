"""Outcome computation: cosine similarity, biological-moment subtraction,
joint power, positive work, peak power, and ensemble averages.

Works are mass-normalized (J/kg), powers W/kg, moments Nm/kg. Exoskeleton
torque arrives in Nm and is divided by body mass where it meets the
biological side. All functions are pure.

The helpers take strides that ``StrideSeries`` accepted (2 or more
samples per grid, every cell finite, finite positive mass and duration),
and check nothing again.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .csvio import LoadError, read_columns, write_csv
from .gaitdata import (CH_ANKLE_MOMENT, CH_ANKLE_VEL, CH_EXO, CH_HIP_MOMENT,
                       CH_HIP_VEL, CH_KNEE_MOMENT, CH_KNEE_VEL, StrideSeries)
from .signals import integrate_positive


def cosine_similarity(a, b) -> float:
    """Normalized inner product of two equal-length series, in [-1, 1];
    ``nan`` when either has zero norm (similarity undefined)."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if not (na > 0.0 and nb > 0.0):
        return float("nan")
    sim = float(np.dot(a, b) / (na * nb))
    return min(1.0, max(-1.0, sim))


def positive_work(power: np.ndarray, cycle_duration: float) -> float:
    """Positive-power integral over the de-normalized cycle time, J/kg."""
    return integrate_positive(power, cycle_duration / (power.size - 1))


def peak_positive(power) -> float:
    """Largest positive value of a power series (0 if none positive)."""
    return max(float(np.max(power)), 0.0)


def ensemble_average(series):
    """Pointwise mean and sample (n-1) SD of 2+ equal-length series."""
    data = np.stack(series)
    return data.mean(axis=0), data.std(axis=0, ddof=1)


@dataclass
class TaskEnergetics:
    """Per-task, per-condition outcome row of the energetics report."""

    task: str                 # display code, e.g. "RA 11"
    condition: str            # "unassisted" | "assisted"
    hip_work: float           # J/kg, biological hip positive work
    lowerlimb_work: float     # J/kg, hip + knee + ankle
    peak_bio_power: float     # W/kg
    peak_total_power: float   # W/kg, biological + exoskeleton
    mean_extension_scale: float
    sim: float                # exo vs biological profile similarity (nan if n/a)
    n_strides: int
    hip_intensive: bool


REPORT_COLUMNS = tuple(f.name for f in fields(TaskEnergetics))

CONDITIONS = ("unassisted", "assisted")

# the TaskEnergetics means over strides that a task's pair compares
COMPARED = ("hip_work", "lowerlimb_work", "peak_bio_power", "peak_total_power")

PAIRED_COLUMNS = ("task", *(f"{COMPARED[0]}_{c}" for c in CONDITIONS),
                  *(f"{q}_change_pct" for q in COMPARED),
                  "sim", "mean_extension_scale")


def _parse_flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {cell!r}")
    return cell == "1"


def _parse_condition(cell: str) -> str:
    if cell not in CONDITIONS:
        raise ValueError(f"expected one of {list(CONDITIONS)}, got {cell!r}")
    return cell


# cell codec per annotated field type: floats via repr for exact round-trips
_CELL_PARSE = {f.name: {"str": str, "float": float, "int": int,
                        "bool": _parse_flag}[f.type]
               for f in fields(TaskEnergetics)}
_CELL_PARSE["condition"] = _parse_condition


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def stride_energetics(stride: StrideSeries) -> dict:
    """Single-stride outcomes; uses the exo_torque channel when present.
    The biological moment is the net moment less exo torque over body
    mass, and each joint power is its moment times its velocity."""
    vel = stride.channels[CH_HIP_VEL]
    net = stride.channels[CH_HIP_MOMENT]
    exo = stride.channels.get(CH_EXO)
    if exo is None:
        bio = net
        exo_power = np.zeros_like(net)
    else:
        exo = exo / stride.body_mass   # Nm -> Nm/kg
        bio = net - exo
        exo_power = exo * vel

    bio_power = bio * vel
    total_power = bio_power + exo_power
    out = {
        "hip_work": positive_work(bio_power, stride.cycle_duration),
        "peak_bio_power": peak_positive(bio_power),
        "peak_total_power": peak_positive(total_power),
        "exo_power": exo_power,
        "bio_power": bio_power,
    }

    lower = out["hip_work"]
    for mom_ch, vel_ch in ((CH_KNEE_MOMENT, CH_KNEE_VEL),
                           (CH_ANKLE_MOMENT, CH_ANKLE_VEL)):
        if mom_ch in stride.channels and vel_ch in stride.channels:
            p = stride.channels[mom_ch] * stride.channels[vel_ch]
            lower += positive_work(p, stride.cycle_duration)
    out["lowerlimb_work"] = lower

    out["sim"] = (float("nan") if exo is None
                  else cosine_similarity(exo, bio))
    return out


def task_energetics(strides: list[StrideSeries], condition: str,
                    mean_extension_scale: float) -> TaskEnergetics:
    """Average per-stride outcomes over one task's non-empty stride set,
    with the replay's mean extension scale as measured by the caller."""
    per = [stride_energetics(s) for s in strides]
    mean = lambda key: float(np.mean([p[key] for p in per]))
    sims = [p["sim"] for p in per if np.isfinite(p["sim"])]
    label = strides[0].label
    return TaskEnergetics(
        task=label.code,
        condition=condition,
        **{q: mean(q) for q in COMPARED},
        mean_extension_scale=mean_extension_scale,
        sim=float(np.mean(sims)) if sims else float("nan"),
        n_strides=len(strides),
        hip_intensive=label.is_hip_intensive,
    )


def write_report(rows: list[TaskEnergetics], path, header_lines=()):
    write_csv(path, REPORT_COLUMNS,
              ([_cell(getattr(row, c)) for c in REPORT_COLUMNS] for row in rows),
              header_lines)


def read_report(path) -> list[TaskEnergetics]:
    """The rows of a ``report.csv``. A ``condition`` other than
    ``unassisted`` or ``assisted``, or a second row for one (task,
    condition), raises :class:`LoadError` naming the file."""
    columns = read_columns(path, "report", _CELL_PARSE)
    rows = [TaskEnergetics(*row) for row in zip(*columns.values())]
    seen = set()
    for i, row in enumerate(rows):
        if (row.task, row.condition) in seen:
            raise LoadError(f"{path}: bad report row: data row {i + 1} "
                            f"repeats task {row.task!r} {row.condition}")
        seen.add((row.task, row.condition))
    return rows


def percent_change(assisted: float, unassisted: float) -> float:
    """(assisted - unassisted) / unassisted * 100; negative means reduction."""
    if unassisted == 0:
        return float("nan")
    return (assisted - unassisted) / unassisted * 100.0


def paired_summary(rows: list[TaskEnergetics]) -> dict[str, tuple]:
    """{task: (unassisted row, assisted row)} in the order tasks first
    appear in ``rows``, with ``None`` for a condition the task lacks."""
    pairs: dict[str, list] = {}
    for row in rows:
        pairs.setdefault(row.task, [None, None])[
            CONDITIONS.index(row.condition)] = row
    return {task: tuple(pair) for task, pair in pairs.items()}


def write_paired(pairs: dict[str, tuple], path, header_lines=()):
    """paired.csv: a row of :data:`PAIRED_COLUMNS` for each task in
    ``pairs`` that has both conditions, its floats written with ``repr``;
    ``sim`` and ``mean_extension_scale`` are the assisted row's."""
    rows = []
    for task, (un, ex) in pairs.items():
        if un is None or ex is None:
            continue
        values = (getattr(un, COMPARED[0]), getattr(ex, COMPARED[0]),
                  *(percent_change(getattr(ex, q), getattr(un, q))
                    for q in COMPARED),
                  ex.sim, ex.mean_extension_scale)
        rows.append([task, *map(repr, values)])
    write_csv(path, PAIRED_COLUMNS, rows, header_lines)
