"""In-silico parameter design: fit spring and modulation-sigmoid parameters
by minimizing activity-weighted torque-tracking error plus static-torque and
sign-mismatch penalties over a task battery.

The estimated torque for each task is the spring basis with velocity (and,
for sit-to-stand, torso) modulation replayed open loop over the task's
kinematics; the descent and blending layers stay out of the fitting loop.
The search is a bound-constrained Nelder-Mead simplex with seeded restarts
on stagnation; the returned point is never worse than the warm start. The
simplex is an in-module port of scipy's, so the package needs no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .controller import ControllerParams
from .gaitdata import CH_HIP_ANGLE, CH_HIP_MOMENT, CH_HIP_VEL, CH_THIGH, CH_TORSO, \
    ActivityLabel, StrideSeries
from .metrics import cosine_similarity
from .springs import gait_torque, gait_torque_series, sts_torque_series

# tunable scalar surface exposed to the optimizer (basis layer only)
PARAM_PATHS = {
    "k_ext": ("gait", "k_ext"),
    "k_flex": ("gait", "k_flex"),
    "theta_ext_eq": ("gait", "theta_ext_eq"),
    "theta_flex_eq": ("gait", "theta_flex_eq"),
    "w_ext": ("gait", "vel_mod_ext", "w"),
    "phi_ext": ("gait", "vel_mod_ext", "phi"),
    "w_flex": ("gait", "vel_mod_flex", "w"),
    "phi_flex": ("gait", "vel_mod_flex", "phi"),
    "k_sts": ("sts", "k_sts"),
    "w_vel": ("sts", "vel_mod", "w"),
    "phi_vel": ("sts", "vel_mod", "phi"),
    "w_torso": ("sts", "torso_mod", "w"),
    "phi_torso": ("sts", "torso_mod", "phi"),
}

DEFAULT_FREE = ("w_ext", "phi_ext", "w_flex", "phi_flex",
                "theta_ext_eq", "theta_flex_eq")

SIGN_MASK_FRAC = 0.05        # sign penalty only where |target| > this * peak
RESTART_SCALE = 0.05         # restart perturbation, as a fraction of the box
MAX_STAGNANT_RESTARTS = 2    # stop after this many restarts without gain
XATOL = 1e-10                # simplex converged: vertex spread in x ...
FATOL = 1e-14                # ... and in objective value both within these

# series inputs of each fused block, keyed by TaskSet.label.is_gait
_BLOCK_CHANNELS = {True: (CH_HIP_ANGLE, CH_HIP_VEL),
                   False: (CH_THIGH, CH_HIP_VEL, CH_TORSO)}


def get_param(params: ControllerParams, name: str) -> float:
    obj = params
    for attr in PARAM_PATHS[name]:
        obj = getattr(obj, attr)
    return float(obj)


def apply_vector(base: ControllerParams, names, values) -> ControllerParams:
    """Copy of ``base`` with the named parameters replaced; frozen entries
    keep the base values bit-exactly.

    Each dataclass on a touched path is rebuilt once with
    ``dataclasses.replace``, so its validation runs again; untouched
    sub-objects are shared with ``base``.
    """
    groups: dict[tuple, dict] = {(): {}}
    for name, value in zip(names, values):
        *owner, attr = PARAM_PATHS[name]
        groups.setdefault(tuple(owner), {})[attr] = float(value)
    # innermost owners first, so each parent is replaced once with its
    # rebuilt children
    while True:
        owner = max(groups, key=len)
        obj = base
        for attr in owner:
            obj = getattr(obj, attr)
        rebuilt = replace(obj, **groups.pop(owner))
        if not owner:
            return rebuilt
        groups.setdefault(owner[:-1], {})[owner[-1]] = rebuilt


@dataclass
class TaskSet:
    label: ActivityLabel
    strides: list[StrideSeries]
    weight: float = 1.0


@dataclass
class ObjectiveSpec:
    """Tracking tasks, penalty weights, free-parameter mask, and box bounds.

    target_scale converts the mass-normalized biological moment (Nm/kg) into
    the torque target (Nm) the springs are fit against; the hardware level
    of assistance is a separate, later scaling.
    """

    tasks: list[TaskSet]
    c_static: float = 0.5
    c_sign: float = 1.0
    free: tuple = DEFAULT_FREE
    bounds: dict = field(default_factory=dict)
    target_scale: float = 20.0   # Nm per Nm/kg

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("at least one task required")
        for c in (self.c_static, self.c_sign):
            if not (math.isfinite(c) and c >= 0):
                raise ValueError(f"penalty weights must be finite and >= 0, got {c}")
        for t in self.tasks:
            if not np.isfinite(t.weight) or t.weight < 0:
                raise ValueError(f"bad weight for {t.label.code}")
        if not self.free:
            raise ValueError("at least one free parameter required")
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"free parameters listed twice: {list(self.free)}")
        for name in self.free:
            if name not in PARAM_PATHS:
                raise ValueError(f"unknown free parameter {name!r}")
            lo, hi = self.bounds.get(name, (None, None))
            if lo is None or hi is None:
                raise ValueError(f"missing bounds for free parameter {name!r}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(
                    f"bounds for {name!r} must be finite: ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"bounds for {name!r} not ordered: {lo} >= {hi}")
        if not (math.isfinite(self.target_scale) and self.target_scale > 0):
            raise ValueError(
                f"target_scale must be finite and > 0, got {self.target_scale}")


@dataclass
class OptResult:
    best_params: ControllerParams
    best_objective: float
    trace: list            # (eval_count, best_objective_so_far) at improvements
    per_task_sim: dict     # task code -> SIM at the optimum
    n_evals: int
    reason: str


class _Evaluator:
    """Precompiled objective over the task battery.

    The battery is fused once: all gait tasks form one angle/velocity block
    and all sit-to-stand tasks one thigh/velocity/torso block, so each
    evaluation makes one series call per block. Every task's loss terms are
    then reduced over its own slice with the same pairwise sum ``np.mean``
    applies to a separate array, in task order, so the objective is
    bit-identical to evaluating the tasks one by one.
    """

    def __init__(self, spec: ObjectiveSpec, base: ControllerParams):
        self.spec = spec
        self.base = base
        self.names = tuple(spec.free)
        self.lo = np.array([spec.bounds[n][0] for n in self.names])
        self.hi = np.array([spec.bounds[n][1] for n in self.names])
        per_task = []   # (is_gait, inputs, target, sign mask) in task order
        for t in spec.tasks:
            g = t.label.is_gait
            inputs = [np.concatenate([s.channels[ch] for s in t.strides])
                      for ch in _BLOCK_CHANNELS[g]]
            target = spec.target_scale * np.concatenate(
                [s.channels[CH_HIP_MOMENT] for s in t.strides])
            mask = np.abs(target) > SIGN_MASK_FRAC * np.max(np.abs(target))
            per_task.append((g, inputs, target, mask))
        # blocks: (is_gait, inputs, target, sign-mask index, target sign);
        # slices: (task, block, start, stop, sign start, sign stop)
        self._blocks = []
        self._slices = [None] * len(per_task)
        for g in (True, False):
            members = [i for i, p in enumerate(per_task) if p[0] == g]
            if not members:
                continue
            starts = [0, *accumulate(per_task[i][2].size for i in members)]
            sign_starts = [0, *accumulate(int(per_task[i][3].sum())
                                          for i in members)]
            for j, i in enumerate(members):
                self._slices[i] = (spec.tasks[i], len(self._blocks),
                                   starts[j], starts[j + 1],
                                   sign_starts[j], sign_starts[j + 1])
            _, inputs, targets, masks = zip(*(per_task[i] for i in members))
            self._blocks.append((
                g,
                tuple(np.concatenate(ch) for ch in zip(*inputs)),
                np.concatenate(targets),
                np.concatenate([start + np.flatnonzero(mask)
                                for start, mask in zip(starts, masks)]),
                np.concatenate([np.sign(target[mask])
                                for target, mask in zip(targets, masks)])))

    def x0(self) -> np.ndarray:
        return np.array([get_param(self.base, n) for n in self.names])

    def check_bounds(self, x):
        if np.any(x < self.lo) or np.any(x > self.hi):
            raise ValueError("parameters outside bounds")

    def params_at(self, x) -> ControllerParams:
        return apply_vector(self.base, self.names, x)

    def _estimates(self, params: ControllerParams) -> list:
        """Estimated torque of each block, in block order."""
        return [gait_torque_series(*inputs, params.gait)[-1] if is_gait
                else sts_torque_series(*inputs, params.sts)[-1]
                for is_gait, inputs, *_ in self._blocks]

    def value(self, x) -> float:
        params = self.params_at(x)
        sq, hinge = [], []
        for est, (_, _, target, idx, sign) in zip(self._estimates(params),
                                                  self._blocks):
            err = est - target
            sq.append(err * err)
            hinge.append(np.maximum(0.0, -est[idx] * sign))
        total = 0.0
        sign_term = 0.0
        for task, k, a, b, ha, hb in self._slices:
            total += task.weight * float(np.add.reduce(sq[k][a:b]) / (b - a))
            if hb > ha:
                sign_term += float(np.add.reduce(hinge[k][ha:hb]) / (hb - ha))
        static = gait_torque(0.0, 0.0, params.gait)
        total += self.spec.c_static * static * static
        total += self.spec.c_sign * sign_term
        return total

    def similarities(self, params: ControllerParams) -> dict:
        est = self._estimates(params)
        targets = [target for _, _, target, _, _ in self._blocks]
        return {task.label.code: cosine_similarity(est[k][a:b],
                                                   targets[k][a:b])
                for task, k, a, b, _, _ in self._slices}


def objective(params: ControllerParams, spec: ObjectiveSpec) -> float:
    """Activity-weighted tracking MSE + static-torque and sign penalties.

    Raises ``ValueError`` when the free parameters sit outside the bounds.
    """
    ev = _Evaluator(spec, params)
    x = ev.x0()
    ev.check_bounds(x)
    return ev.value(x)


def format_sim_table(sims: dict) -> str:
    """Two-column activity/SIM grid."""
    items = list(sims.items())
    half = (len(items) + 1) // 2
    lines = [f"{'Activity':<10} {'SIM':>8}   {'Activity':<10} {'SIM':>8}",
             "-" * 42]
    for i in range(half):
        left = f"{items[i][0]:<10} {items[i][1]:>8.4f}"
        if i + half < len(items):
            right = f"{items[i + half][0]:<10} {items[i + half][1]:>8.4f}"
            lines.append(f"{left}   {right}")
        else:
            lines.append(left)
    return "\n".join(lines)


class _MaxFevReached(Exception):
    pass


def minimize(fun, x0, lo, hi, maxfev: int):
    """Bound-constrained Nelder-Mead simplex search (Nelder & Mead,
    *Comput. J.* 7(4), 1965) from ``x0`` over the box ``[lo, hi]``.

    Stops once the vertices agree within ``XATOL`` in x and ``FATOL`` in
    value, or after ``maxfev`` calls of ``fun``, each on a copy of the
    point. Every vertex is clipped into the box. Returns the best vertex
    and its value. ``lo < hi`` must hold, finite, in every coordinate.

    A port of scipy 1.17's ``minimize(method="Nelder-Mead", bounds=...)``
    with its default coefficients: it repeats scipy's floating-point
    operations in the same order, so it visits the same points, and the
    fitted parameters and artifact digests the benchmark records stay
    bit-identical to the scipy version.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = x0.size
    # initial simplex: +5 % along each axis, or 0.00025 from a zero
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    # a vertex past the upper bound is reflected into the box, so clipping
    # cannot collapse the simplex
    sim = np.where(sim > hi, 2 * hi - sim, sim)
    sim = np.clip(sim, lo, hi)

    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _MaxFevReached
        calls += 1
        return fun(np.copy(x))

    def sort(sim, fsim):
        # argsort need not be stable: sorting twice, as scipy does after
        # the first vertices, can reorder tied values
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFevReached:
        pass
    sim, fsim = sort(sim, fsim)
    sim, fsim = sort(sim, fsim)
    # reflection, expansion, outside and inside contraction, shrink; the
    # coefficients 1, 2, 1/2, 1/2 are written out
    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    xcc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]),
                                         lo, hi)
                        fsim[j] = f(sim[j])
        except _MaxFevReached:
            pass
        sim, fsim = sort(sim, fsim)
    return sim[0], fsim[0]


def optimize(spec: ObjectiveSpec, warm_start: ControllerParams, budget: int,
             seed: int = 0) -> OptResult:
    """Bound-constrained derivative-free search from a warm start.

    Nelder-Mead with box bounds, restarted from seeded perturbations of the
    incumbent when progress stalls. Deterministic for a given seed; the
    result is never worse than the warm start, and frozen parameters pass
    through bit-exactly.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ev = _Evaluator(spec, warm_start)
    x0 = ev.x0()
    ev.check_bounds(x0)

    state = {"n": 0, "best_f": np.inf, "best_x": x0.copy(), "trace": []}

    def f(x):
        state["n"] += 1
        val = ev.value(x)
        if val < state["best_f"]:
            state["best_f"] = val
            state["best_x"] = np.array(x, dtype=float)
            state["trace"].append((state["n"], val))
        return val

    f(x0)
    reason = "budget exhausted"
    if budget > 1:
        rng = np.random.default_rng(seed)
        span = ev.hi - ev.lo
        x_start = x0
        stagnant = 0
        while state["n"] < budget:
            f_before = state["best_f"]
            minimize(f, x_start, ev.lo, ev.hi, budget - state["n"])
            rel_gain = (f_before - state["best_f"]) / max(abs(f_before), 1e-30)
            stagnant = stagnant + 1 if rel_gain < 1e-9 else 0
            if stagnant > MAX_STAGNANT_RESTARTS:
                reason = "converged (stagnant restarts)"
                break
            x_start = np.clip(
                state["best_x"] + rng.uniform(-1.0, 1.0, x0.size)
                * RESTART_SCALE * span,
                ev.lo, ev.hi)
    else:
        reason = "budget of one evaluation"

    best_params = ev.params_at(state["best_x"])
    return OptResult(
        best_params=best_params,
        best_objective=state["best_f"],
        trace=state["trace"],
        per_task_sim=ev.similarities(best_params),
        n_evals=state["n"],
        reason=reason,
    )
