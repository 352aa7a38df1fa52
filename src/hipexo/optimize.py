"""In-silico parameter design: fit spring and modulation-sigmoid parameters
by minimizing activity-weighted torque-tracking error plus static-torque and
sign-mismatch penalties over a task battery.

The estimated torque for each task is the spring basis with velocity (and,
for sit-to-stand, torso) modulation replayed open loop over the task's
kinematics; the descent and blending layers stay out of the fitting loop.
The search is a bound-constrained Nelder-Mead simplex with seeded restarts
on stagnation; the returned point is never worse than the warm start. The
simplex is an in-module port of scipy's, so the package needs no scipy.
The free parameters (:data:`PARAM_PATHS`) are the gait and sts rows of
``controller.TUNABLES``, each named as its params-file key in internal
units (``theta_ext_eq``, in rad, for ``theta_ext_eq_deg``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate

import numpy as np

from .controller import TUNABLES, ControllerParams, field_at
from .gaitdata import CH_HIP_ANGLE, CH_HIP_MOMENT, CH_HIP_VEL, CH_THIGH, CH_TORSO, \
    ActivityLabel, StrideSeries
from .metrics import cosine_similarity
from .springs import gait_torque, gait_torque_series, sts_torque_series

PARAM_PATHS = {name: path for section, name, path, _ in TUNABLES
               if section in ("gait", "sts")}

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
    return float(field_at(params, PARAM_PATHS[name]))


def _plan(base, names) -> tuple[list, dict]:
    """Compile the rebuild of every dataclass the named parameters reach.

    Slots ``0 .. len(names) - 1`` hold the parameter values; step ``j``,
    ``(cls, fixed, sets)``, builds slot ``len(names) + j`` as
    ``cls(**fixed, **{attr: slots[k] for attr, k in sets})``, where
    ``fixed`` holds the fields of the base object that no name reaches.
    Innermost owners come first, so each parent is built once from its
    rebuilt children. Returns the steps and ``{attr: slot}`` of the
    touched fields of ``base`` itself.
    """
    groups: dict[tuple, dict] = {(): {}}
    for i, name in enumerate(names):
        *owner, attr = PARAM_PATHS[name]
        groups.setdefault(tuple(owner), {})[attr] = i
    steps = []
    while True:
        owner = max(groups, key=len)
        sets = groups.pop(owner)
        if not owner:
            return steps, sets
        obj = field_at(base, owner)
        fixed = {f.name: getattr(obj, f.name) for f in fields(obj)
                 if f.name not in sets}
        steps.append((type(obj), fixed, tuple(sets.items())))
        slot = len(names) + len(steps) - 1
        groups.setdefault(owner[:-1], {})[owner[-1]] = slot


def _build(steps, values: list) -> list:
    """The slots of a :func:`_plan` run on ``values``."""
    slots = list(values)
    for cls, fixed, sets in steps:
        slots.append(cls(**fixed, **{attr: slots[k] for attr, k in sets}))
    return slots


def apply_vector(base: ControllerParams, names, values) -> ControllerParams:
    """Copy of ``base`` with the named parameters replaced; frozen entries
    keep the base values bit-exactly.

    Each dataclass on a touched path is rebuilt once through its
    constructor, so its validation runs again; untouched sub-objects are
    shared with ``base``.
    """
    steps, top = _plan(base, names)
    slots = _build(steps, [float(v) for v in values])
    return replace(base, **{attr: slots[k] for attr, k in top.items()})


def check_in_bounds(spec: ObjectiveSpec, params: ControllerParams):
    """Raise ``ValueError`` naming each free parameter of ``params`` that
    lies outside ``spec.bounds``, with its value and its bounds."""
    outside = []
    for name in spec.free:
        value = get_param(params, name)
        lo, hi = spec.bounds[name]
        if not lo <= value <= hi:
            outside.append(f"{name}={value!r} not in [{lo!r}, {hi!r}]")
    if outside:
        raise ValueError("parameters outside bounds: " + "; ".join(outside))


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

    Everything that does not depend on the point is built here: the
    parameter plan (which spring and sigmoid fields each free parameter
    sets, see :func:`_plan`), each block's negated target signs and
    squared-error and hinge buffers, and each task's weight, sample count
    and sign count with its slices of those buffers. An evaluation rebuilds
    only the touched spring and sigmoid objects, through their
    constructors, so their checks still run, and writes the squared error
    and the sign hinge into the buffers in place; an evaluator is
    therefore not reentrant.
    """

    def __init__(self, spec: ObjectiveSpec, base: ControllerParams):
        self.spec = spec
        self.base = base
        self.names = tuple(spec.free)
        self.lo = np.array([spec.bounds[n][0] for n in self.names])
        self.hi = np.array([spec.bounds[n][1] for n in self.names])
        self._steps, top = _plan(base, self.names)
        self._gait_slot = top.get("gait")
        self._sts_slot = top.get("sts")
        per_task = []   # (is_gait, inputs, target, sign mask) in task order
        for t in spec.tasks:
            g = t.label.is_gait
            inputs = [np.concatenate([s.channels[ch] for s in t.strides])
                      for ch in _BLOCK_CHANNELS[g]]
            target = spec.target_scale * np.concatenate(
                [s.channels[CH_HIP_MOMENT] for s in t.strides])
            mask = np.abs(target) > SIGN_MASK_FRAC * np.max(np.abs(target))
            per_task.append((g, inputs, target, mask))
        # blocks: (is_gait, inputs, target, sign-mask index, -target sign,
        # squared-error buffer, hinge buffer). Per task, in task order:
        # rows, its (block, sample slice); terms, its (weight, squared-error
        # rows, n, hinge rows, m), the rows as views of its block's buffers
        self._blocks = []
        self._rows = [None] * len(per_task)
        self._terms = [None] * len(per_task)
        for g in (True, False):
            members = [i for i, p in enumerate(per_task) if p[0] == g]
            if not members:
                continue
            _, inputs, targets, masks = zip(*(per_task[i] for i in members))
            starts = [0, *accumulate(target.size for target in targets)]
            sign_starts = [0, *accumulate(int(mask.sum()) for mask in masks)]
            sq = np.empty(starts[-1])
            hinge = np.empty(sign_starts[-1])
            for j, i in enumerate(members):
                a, b = starts[j], starts[j + 1]
                ha, hb = sign_starts[j], sign_starts[j + 1]
                self._rows[i] = (len(self._blocks), slice(a, b))
                self._terms[i] = (spec.tasks[i].weight, sq[a:b], b - a,
                                  hinge[ha:hb], hb - ha)
            self._blocks.append((
                g,
                tuple(np.concatenate(ch) for ch in zip(*inputs)),
                np.concatenate(targets),
                np.concatenate([start + np.flatnonzero(mask)
                                for start, mask in zip(starts, masks)]),
                -np.concatenate([np.sign(target[mask])
                                 for target, mask in zip(targets, masks)]),
                sq, hinge))

    def x0(self) -> np.ndarray:
        return np.array([get_param(self.base, n) for n in self.names])

    def params_at(self, x) -> ControllerParams:
        return apply_vector(self.base, self.names, x)

    def springs_at(self, x: np.ndarray) -> tuple:
        """(gait, sts) spring parameters at the point ``x``, a float array:
        ``params_at(x).gait`` and ``.sts`` without the rebuild of the
        :class:`ControllerParams` that no free parameter reaches."""
        slots = _build(self._steps, x.tolist())
        g, s = self._gait_slot, self._sts_slot
        return (self.base.gait if g is None else slots[g],
                self.base.sts if s is None else slots[s])

    def _estimates(self, gait, sts) -> list:
        """Estimated torque of each block, in block order."""
        return [gait_torque_series(*inputs, gait)[-1] if is_gait
                else sts_torque_series(*inputs, sts)[-1]
                for is_gait, inputs, *_ in self._blocks]

    def value(self, x: np.ndarray) -> float:
        gait, sts = self.springs_at(x)
        for est, (_, _, target, idx, neg_sign, sq, hinge) in zip(
                self._estimates(gait, sts), self._blocks):
            np.subtract(est, target, out=sq)
            np.multiply(sq, sq, out=sq)
            np.multiply(est[idx], neg_sign, out=hinge)
            np.maximum(0.0, hinge, out=hinge)
        total = 0.0
        sign_term = 0.0
        # float division of the float sum: np.float64 / int rounds the same
        for weight, sq, n, hinge, m in self._terms:
            total += weight * (float(np.add.reduce(sq)) / n)
            if m:
                sign_term += float(np.add.reduce(hinge)) / m
        static = gait_torque(0.0, 0.0, gait)
        total += self.spec.c_static * static * static
        total += self.spec.c_sign * sign_term
        return total

    def similarities(self, params: ControllerParams) -> dict:
        """SIM of each task at ``params``; ``nan`` where the estimate or
        the target has zero norm, so the cosine is undefined."""
        ests = self._estimates(params.gait, params.sts)
        return {task.label.code: cosine_similarity(ests[k][rows],
                                                   self._blocks[k][2][rows])
                for task, (k, rows) in zip(self.spec.tasks, self._rows)}


def objective(params: ControllerParams, spec: ObjectiveSpec) -> float:
    """Activity-weighted tracking MSE + static-torque and sign penalties.

    Raises ``ValueError`` when the free parameters sit outside the bounds.
    """
    check_in_bounds(spec, params)
    ev = _Evaluator(spec, params)
    return ev.value(ev.x0())


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
    def clip(x):
        # np.clip's result, ±0 ties included, without its Python wrappers,
        # which cost more than the clip of a few coordinates
        return np.minimum(np.maximum(x, lo), hi)

    x0 = clip(np.asarray(x0, dtype=float))
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
    sim = clip(sim)

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
        ind = fsim.argsort()
        return sim.take(ind, 0), fsim.take(ind, 0)

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
            xr = clip(2 * xbar - sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip(3 * xbar - 2 * sim[-1])
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
                    xc = clip(1.5 * xbar - 0.5 * sim[-1])
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    xcc = clip(0.5 * xbar + 0.5 * sim[-1])
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = clip(sim[0] + 0.5 * (sim[j] - sim[0]))
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
    through bit-exactly. The optimize table keeps ``budget`` >= 1.
    """
    check_in_bounds(spec, warm_start)
    ev = _Evaluator(spec, warm_start)
    x0 = ev.x0()

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
