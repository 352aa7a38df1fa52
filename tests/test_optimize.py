import math
from dataclasses import fields

import numpy as np
import pytest

from hipexo import cli
from hipexo.gaitdata import (CH_HIP_ANGLE, CH_HIP_MOMENT, CH_HIP_VEL,
                             CH_THIGH, CH_TORSO, ActivityLabel, synth_battery,
                             synth_profiles)
from hipexo.metrics import cosine_similarity
from hipexo.optimize import (DEFAULT_FREE, FATOL, PARAM_PATHS, SIGN_MASK_FRAC,
                             XATOL, ObjectiveSpec, TaskSet, apply_vector,
                             _Evaluator, format_sim_table, get_param,
                             minimize, objective, optimize)
from hipexo.springs import (ROM_MAX, ROM_MIN, gait_torque,
                            gait_torque_series, sts_torque_series)

BOUNDS = {"w_ext": (-10.0, -0.2), "phi_ext": (0.0, 8.0),
          "w_flex": (0.2, 10.0), "phi_flex": (0.0, 8.0),
          "theta_ext_eq": (0.05, 0.8), "theta_flex_eq": (-0.6, 0.45)}


def in_family_tasks(params, seed=21, tasks=3):
    """Gait tasks whose moment channel is exactly the torque the given
    params produce (scaled to Nm/kg)."""
    battery = synth_battery(strides_per_task=2, seed=seed)
    out = []
    for label, strides in battery.items():
        if not label.is_gait:
            continue
        fixed = []
        for s in strides:
            tau = gait_torque_series(s.channels[CH_HIP_ANGLE],
                                     s.channels[CH_HIP_VEL],
                                     params.gait)[-1] / 20.0
            fixed.append(s.copy_with(hip_moment=tau))
        out.append(TaskSet(label, fixed, 1.0))
        if len(out) == tasks:
            break
    return out


@pytest.fixture(scope="module")
def star_params(default_params):
    return default_params


@pytest.fixture(scope="module")
def star_tasks(star_params):
    return in_family_tasks(star_params)


class TestObjective:
    def test_perfect_fit_tracking_terms_zero(self, star_params, star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, c_static=0.0, c_sign=1.0,
                             bounds=BOUNDS, target_scale=20.0)
        assert objective(star_params, spec) == pytest.approx(0.0, abs=1e-18)

    def test_static_penalty_counts(self, star_params, star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, c_static=1.0, c_sign=0.0,
                             bounds=BOUNDS, target_scale=20.0)
        static = gait_torque(0.0, 0.0, star_params.gait)
        assert objective(star_params, spec) == pytest.approx(static * static,
                                                             rel=1e-9)

    def test_weight_doubling_doubles_tracking(self, star_params, star_tasks):
        perturbed = apply_vector(star_params, ("theta_ext_eq",),
                                 (get_param(star_params, "theta_ext_eq") + 0.1,))
        spec1 = ObjectiveSpec(tasks=star_tasks, c_static=0.0, c_sign=0.0,
                              bounds=BOUNDS, target_scale=20.0)
        doubled = [TaskSet(t.label, t.strides, 2.0 * t.weight)
                   for t in star_tasks]
        spec2 = ObjectiveSpec(tasks=doubled, c_static=0.0, c_sign=0.0,
                              bounds=BOUNDS, target_scale=20.0)
        assert objective(perturbed, spec2) == pytest.approx(
            2.0 * objective(perturbed, spec1), rel=1e-12)

    def test_sign_penalty_on_counterphase_profile(self, star_params, star_tasks):
        # flip the target sign wherever the estimate is extension: every
        # masked extension sample then counts as wrong-direction assistance
        task = star_tasks[0]
        flipped = [s.copy_with(hip_moment=-s.channels[CH_HIP_MOMENT])
                   for s in task.strides]
        spec = ObjectiveSpec(tasks=[TaskSet(task.label, flipped, 1.0)],
                             c_static=0.0, c_sign=1.0,
                             bounds=BOUNDS, target_scale=20.0)
        spec0 = ObjectiveSpec(tasks=[TaskSet(task.label, flipped, 1.0)],
                              c_static=0.0, c_sign=0.0,
                              bounds=BOUNDS, target_scale=20.0)
        assert objective(star_params, spec) > objective(star_params, spec0)

    def test_out_of_bounds_rejected(self, star_params, star_tasks):
        bad = apply_vector(star_params, ("phi_ext",), (9.5,))  # above bound
        spec = ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS)
        with pytest.raises(ValueError, match="bounds"):
            objective(bad, spec)

    # an infinite bound made the restart span inf, so Nelder-Mead spent the
    # whole budget on a NaN simplex; the others made the objective NaN or
    # inf at every point
    @pytest.mark.parametrize("over, match", [
        ({"bounds": {**BOUNDS, "w_ext": (-math.inf, -0.2)}}, "w_ext"),
        ({"bounds": {**BOUNDS, "w_ext": (-10.0, math.inf)}}, "w_ext"),
        ({"bounds": {**BOUNDS, "w_ext": (math.nan, -0.2)}}, "w_ext"),
        ({"target_scale": math.nan}, "target_scale"),
        ({"target_scale": math.inf}, "target_scale"),
        ({"target_scale": 0.0}, "target_scale"),
        ({"target_scale": -20.0}, "target_scale"),
        ({"c_static": math.nan}, "penalty weights"),
        ({"c_sign": math.inf}, "penalty weights"),
    ])
    def test_non_finite_spec_values_rejected(self, star_tasks, over, match):
        with pytest.raises(ValueError, match=match):
            ObjectiveSpec(tasks=star_tasks, **{"bounds": BOUNDS, **over})

    def test_spec_validation(self, star_tasks):
        with pytest.raises(ValueError):
            ObjectiveSpec(tasks=[], bounds=BOUNDS)
        with pytest.raises(ValueError):
            ObjectiveSpec(tasks=star_tasks,
                          bounds={**BOUNDS, "w_ext": (1.0, -1.0)})
        with pytest.raises(ValueError):
            ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS,
                          free=("w_ext", "bogus"))


class TestOptimize:
    def _perturbed(self, params):
        vec = [get_param(params, n) for n in DEFAULT_FREE]
        factors = [1.2, 0.8, 1.2, 0.8, 1.2, 0.8]
        vec = [np.clip(v * f, *BOUNDS[n])
               for v, f, n in zip(vec, factors, DEFAULT_FREE)]
        return apply_vector(params, DEFAULT_FREE, vec)

    def test_budget_one_returns_warm_start(self, star_params, star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS)
        warm = self._perturbed(star_params)
        res = optimize(spec, warm, budget=1, seed=0)
        assert res.n_evals == 1
        assert len(res.trace) == 1
        for name in DEFAULT_FREE:
            assert get_param(res.best_params, name) == get_param(warm, name)

    def test_deterministic_given_seed(self, star_params, star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS)
        warm = self._perturbed(star_params)
        a = optimize(spec, warm, budget=600, seed=5)
        b = optimize(spec, warm, budget=600, seed=5)
        assert a.trace == b.trace
        assert a.best_objective == b.best_objective

    def test_trace_non_increasing_and_budget_respected(self, star_params,
                                                       star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS)
        warm = self._perturbed(star_params)
        res = optimize(spec, warm, budget=800, seed=1)
        assert res.n_evals <= 800
        objs = [v for _, v in res.trace]
        assert all(b < a for a, b in zip(objs, objs[1:]))

    def test_never_worse_than_warm_start(self, star_params, star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS)
        warm = self._perturbed(star_params)
        f0 = objective(warm, spec)
        res = optimize(spec, warm, budget=300, seed=2)
        assert res.best_objective <= f0

    def test_bounds_respected_and_frozen_bit_exact(self, star_params,
                                                   star_tasks):
        spec = ObjectiveSpec(tasks=star_tasks, bounds=BOUNDS)
        warm = self._perturbed(star_params)
        res = optimize(spec, warm, budget=1000, seed=3)
        for name in DEFAULT_FREE:
            lo, hi = BOUNDS[name]
            assert lo <= get_param(res.best_params, name) <= hi
        # frozen parameters (not in the free mask) pass through bit-exactly
        for name in ("k_ext", "k_flex", "k_sts", "w_vel", "phi_vel"):
            assert get_param(res.best_params, name) == get_param(warm, name)

    def test_static_penalty_sweep_drives_rest_torque_down(self, star_params,
                                                          star_tasks):
        warm = self._perturbed(star_params)
        statics = []
        for c_static in (0.05, 5.0, 500.0):
            spec = ObjectiveSpec(tasks=star_tasks, c_static=c_static,
                                 c_sign=0.0, bounds=BOUNDS, target_scale=20.0)
            res = optimize(spec, warm, budget=3000, seed=4)
            statics.append(abs(gait_torque(0.0, 0.0, res.best_params.gait)))
        assert statics[0] >= statics[1] >= statics[2]
        assert statics[2] < 0.05


def similarities(params, tasks, target_scale=20.0):
    """Per-task SIM of ``params`` from ``_Evaluator.similarities``, with
    every default free parameter left free in an open box."""
    spec = ObjectiveSpec(tasks=tasks, bounds={n: (-1e9, 1e9)
                                              for n in DEFAULT_FREE},
                         target_scale=target_scale)
    return _Evaluator(spec, params).similarities(params)


class TestSimilarityReport:
    def test_perfect_match_gives_ones(self, star_params, star_tasks):
        sims = similarities(star_params, star_tasks)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in sims.values())

    def test_sign_flip_negates(self, star_params, star_tasks):
        task = star_tasks[0]
        flipped = TaskSet(task.label,
                          [s.copy_with(hip_moment=-s.channels[CH_HIP_MOMENT])
                           for s in task.strides], 1.0)
        sims = similarities(star_params, [flipped])
        assert sims[task.label.code] == pytest.approx(-1.0, abs=1e-9)

    def test_empty_tasks_rejected(self, star_params):
        with pytest.raises(ValueError):
            similarities(star_params, [])

    def test_table_layout(self, star_params, star_tasks):
        sims = similarities(star_params, star_tasks)
        table = format_sim_table(sims)
        assert "Activity" in table and "SIM" in table
        for code in sims:
            assert code in table

    def test_zero_norm_target_reports_nan_after_the_search(self,
                                                           default_params):
        # the all-zero stair-descent target made the finished search raise
        spec = ObjectiveSpec(tasks=mixed_tasks(), free=MIXED_FREE,
                             bounds=MIXED_BOUNDS)
        res = optimize(spec, default_params, budget=40, seed=0)
        assert res.n_evals == 40
        zero = ActivityLabel.parse("stair-descent:0.178").code
        assert math.isnan(res.per_task_sim[zero])
        assert all(math.isfinite(v) for code, v in res.per_task_sim.items()
                   if code != zero)
        assert "nan" in format_sim_table(res.per_task_sim)

    def test_zero_norm_estimate_reports_nan(self, default_params):
        # no gait stiffness: every gait estimate is 0 Nm, the STS one is not
        params = apply_vector(default_params, ("k_ext", "k_flex"), (0.0, 0.0))
        tasks = [t for t in mixed_tasks() if t.label.kind != "stair-descent"]
        sims = similarities(params, tasks)
        for task in tasks:
            assert math.isnan(sims[task.label.code]) == task.label.is_gait


class TestParamSurface:
    def test_get_param_through_apply_vector(self, default_params):
        p = apply_vector(default_params, ("w_ext", "k_sts"), (-1.234, 33.0))
        assert get_param(p, "w_ext") == -1.234
        assert get_param(p, "k_sts") == 33.0
        assert p.sts.k_sts == 33.0

    def test_apply_vector_does_not_touch_base(self, default_params):
        before = get_param(default_params, "theta_ext_eq")
        out = apply_vector(default_params, ("theta_ext_eq",), (0.5,))
        assert get_param(default_params, "theta_ext_eq") == before
        assert get_param(out, "theta_ext_eq") == 0.5

    @pytest.mark.parametrize("free", [(), DEFAULT_FREE, tuple(PARAM_PATHS)])
    def test_apply_vector_keeps_unlisted_fields_bit_exact(self, default_params,
                                                          free):
        rng = np.random.default_rng(len(free))
        values = [get_param(default_params, n) * rng.uniform(0.5, 0.9)
                  for n in free]
        before = repr(default_params)
        out = apply_vector(default_params, free, values)
        assert repr(default_params) == before
        assert out is not default_params
        for name, value in zip(free, values):
            assert get_param(out, name) == value
        listed = {PARAM_PATHS[n] for n in free}

        def walk(a, b, path=()):
            for f in fields(a):
                sub = path + (f.name,)
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if hasattr(va, "__dataclass_fields__"):
                    walk(va, vb, sub)
                elif sub not in listed:
                    assert repr(vb) == repr(va), sub

        walk(default_params, out)

    def test_apply_vector_validates_rebuilt_springs(self, default_params):
        with pytest.raises(ValueError, match="theta_ext_eq"):
            apply_vector(default_params, DEFAULT_FREE,
                         [ROM_MAX + 0.1 if n == "theta_ext_eq"
                          else get_param(default_params, n)
                          for n in DEFAULT_FREE])
        with pytest.raises(ValueError, match="k_sts"):
            apply_vector(default_params, ("k_sts",), (math.nan,))


# --- the fused objective against the per-task loop it replaced -------------

MIXED_BOUNDS = {**BOUNDS, "k_sts": (0.0, 80.0), "w_vel": (-10.0, -0.2),
                "phi_vel": (-3.0, 3.0), "w_torso": (0.2, 20.0),
                "phi_torso": (0.0, 8.0)}
MIXED_FREE = DEFAULT_FREE + ("k_sts", "w_vel", "phi_vel", "w_torso",
                             "phi_torso")


def mixed_tasks():
    """Gait and sit-to-stand tasks interleaved, strides of unequal length,
    one task of weight 0 and one whose target is all zero, so its sign mask
    is empty."""
    def task(text, lengths, weight, zero=False):
        label = ActivityLabel.parse(text)
        strides = [synth_profiles(label, 100 * len(text) + j, n)
                   for j, n in enumerate(lengths)]
        if zero:
            strides = [s.copy_with(hip_moment=np.zeros(s.n)) for s in strides]
        return TaskSet(label, strides, weight)

    return [task("level-walk:1.15", (101, 157), 1.0),
            task("sit-to-stand", (121, 90, 143), 2.0),
            task("ramp-ascent:11", (201, 201), 0.0),
            task("stair-descent:0.178", (88, 130), 0.25, zero=True),
            task("stair-ascent:0.127", (77,), 1.5)]


def per_task_reference(params, spec):
    """Objective and SIMs from one series call and one ``np.mean`` per
    task: the loop the fused evaluator must match bit for bit."""
    total = 0.0
    sign_term = 0.0
    sims = {}
    for task in spec.tasks:
        def cat(ch):
            return np.concatenate([s.channels[ch] for s in task.strides])
        target = spec.target_scale * cat(CH_HIP_MOMENT)
        if task.label.is_gait:
            est = gait_torque_series(cat(CH_HIP_ANGLE), cat(CH_HIP_VEL),
                                     params.gait)[-1]
        else:
            est = sts_torque_series(cat(CH_THIGH), cat(CH_HIP_VEL),
                                    cat(CH_TORSO), params.sts)[-1]
        err = est - target
        total += task.weight * float(np.mean(err * err))
        mask = np.abs(target) > SIGN_MASK_FRAC * np.max(np.abs(target))
        if mask.any():
            hinge = np.maximum(0.0, -est[mask] * np.sign(target[mask]))
            sign_term += float(np.mean(hinge))
        if np.any(target):
            sims[task.label.code] = cosine_similarity(est, target)
    static = gait_torque(0.0, 0.0, params.gait)
    total += spec.c_static * static * static
    total += spec.c_sign * sign_term
    return total, sims


class TestFusedObjective:
    def test_bit_identical_to_per_task_loop(self, default_params):
        tasks = mixed_tasks()
        spec = ObjectiveSpec(tasks=tasks, c_static=0.5, c_sign=1.0,
                             free=MIXED_FREE, bounds=MIXED_BOUNDS,
                             target_scale=17.5)
        nonzero = [t for t in tasks if t.label.kind != "stair-descent"]
        lo = np.array([MIXED_BOUNDS[n][0] for n in MIXED_FREE])
        hi = np.array([MIXED_BOUNDS[n][1] for n in MIXED_FREE])
        rng = np.random.default_rng(2026)
        for _ in range(200):
            params = apply_vector(default_params, MIXED_FREE,
                                  lo + rng.uniform(size=lo.size) * (hi - lo))
            want, want_sims = per_task_reference(params, spec)
            assert objective(params, spec).hex() == want.hex()
            sims = similarities(params, nonzero, target_scale=17.5)
            assert list(sims) == list(want_sims)
            assert [v.hex() for v in sims.values()] == \
                [v.hex() for v in want_sims.values()]


class TestParameterPlan:
    """``_Evaluator.value`` rebuilds only the spring and sigmoid objects a
    free parameter reaches, through their constructors."""

    @pytest.mark.parametrize("name, bound, bad", [
        ("theta_ext_eq", (-3.0, 3.0), ROM_MAX + 0.1),
        ("theta_ext_eq", (-3.0, 3.0), ROM_MIN - 0.1),
        ("theta_flex_eq", (-3.0, 3.0), ROM_MAX + 0.5),
        ("k_sts", (-5.0, 80.0), -1.0),
    ])
    def test_value_raises_what_apply_vector_raises(self, default_params,
                                                   star_tasks, name, bound,
                                                   bad):
        free = DEFAULT_FREE + (("k_sts",) if name == "k_sts" else ())
        spec = ObjectiveSpec(tasks=star_tasks, free=free,
                             bounds={**MIXED_BOUNDS, name: bound})
        ev = _Evaluator(spec, default_params)
        x = ev.x0()
        x[free.index(name)] = bad
        with pytest.raises(ValueError, match=name) as want:
            apply_vector(default_params, free, x)
        with pytest.raises(ValueError) as got:
            ev.value(x)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("free", [DEFAULT_FREE, MIXED_FREE,
                                      tuple(PARAM_PATHS), ("k_sts",),
                                      ("phi_torso", "k_flex")])
    def test_springs_match_apply_vector_bit_for_bit(self, default_params,
                                                    free):
        spec = ObjectiveSpec(tasks=mixed_tasks(), free=free,
                             bounds={n: (-1e9, 1e9) for n in free})
        ev = _Evaluator(spec, default_params)
        rng = np.random.default_rng(len(free))
        for _ in range(5):
            x = ev.x0() * rng.uniform(0.5, 0.9, len(free))
            want = apply_vector(default_params, free, x)
            gait, sts = ev.springs_at(x)
            assert repr((gait, sts)) == repr((want.gait, want.sts))
            # an object no free parameter reaches is the base's own
            groups = {PARAM_PATHS[n][0] for n in free}
            assert (gait is default_params.gait) == ("gait" not in groups)
            assert (sts is default_params.sts) == ("sts" not in groups)
            assert ev.value(x) == objective(want, spec)


# the fit of the packaged default optimize config at seed 0, bit for bit:
# evaluations, stop reason, best objective and each free parameter
DEFAULT_FIT = (2051, "converged (stagnant restarts)", "0x1.804548e942060p+3",
               {"w_ext": "-0x1.c72e936c0c65cp+1",
                "phi_ext": "0x1.241f353057ed3p+2",
                "w_flex": "0x1.7814c851dc85ep+1",
                "phi_flex": "0x1.20da0d92d796ap+1",
                "theta_ext_eq": "0x1.cdd73c51f0dd5p-2",
                "theta_flex_eq": "0x1.440ba8e90c09ap-2"})


def test_default_config_fit_is_pinned(tmp_path, monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(optimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "optimize", recording)
    assert cli.main(["optimize", "--config", "default", "--seed", "0",
                     "--out", str(tmp_path / "opt")]) == 0
    res, = results
    n_evals, reason, best, params = DEFAULT_FIT
    assert (res.n_evals, res.reason) == (n_evals, reason)
    assert res.best_objective.hex() == best
    assert {n: get_param(res.best_params, n).hex()
            for n in DEFAULT_FREE} == params


def weighted_quadratic(center):
    center = np.asarray(center, dtype=float)
    weights = np.arange(1.0, center.size + 1.0)
    return lambda x: float(np.sum(weights * (x - center) ** 2))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


# name: (function, x0, lo, hi, maxfev)
SIMPLEX_CASES = {
    # the minimum lies past the upper bound of x[0], so the simplex
    # collapses onto that face and shrinks; x[0] starts at zero
    "quadratic-zero": (weighted_quadratic([1.5, -0.3, 0.2]),
                       [0.0, 0.5, -0.5], [-1.0] * 3, [1.0] * 3, 5000),
    # the same run cut after 2 of the 3 evaluations of the shrink that
    # starts after evaluation 296
    "quadratic-shrink-cut": (weighted_quadratic([1.5, -0.3, 0.2]),
                             [0.0, 0.5, -0.5], [-1.0] * 3, [1.0] * 3, 298),
    "rosenbrock": (rosenbrock, [-1.2, 1.0], [-2.0, -2.0], [2.0, 2.0], 5000),
    # x0 on the upper bound: the +5 % vertex is reflected into the box
    "rosenbrock-upper": (rosenbrock, [2.0, 0.5], [-2.0, -2.0], [2.0, 2.0],
                         5000),
    "one-dimensional": (weighted_quadratic([0.3]), [0.9], [-1.0], [1.0],
                        5000),
}

# what scipy 1.17.1's bounded Nelder-Mead did on each case: evaluations,
# the last point evaluated and the best value, as float.hex
SIMPLEX_RECORDED = {
    "quadratic-zero": (324, ["0x1.0000000000000p+0", "-0x1.33333362c136ap-2",
                             "0x1.999999f562c8ap-3"], "0x1.0000000000000p-2"),
    "quadratic-shrink-cut": (298, ["0x1.0000000000000p+0",
                                   "-0x1.3333335d5924cp-2",
                                   "0x1.999999aac1282p-3"],
                             "0x1.0000000000000p-2"),
    "rosenbrock": (249, ["0x1.000000000e5acp+0", "0x1.000000001f2e5p+0"],
                   "0x1.608ee3ea80000p-71"),
    "rosenbrock-upper": (200, ["0x1.ffffffffde7cep-1", "0x1.ffffffffbc432p-1"],
                         "0x1.257d5fb500000p-72"),
    "one-dimensional": (72, ["0x1.33333332b8522p-2"], "0x1.d7da48e908000p-71"),
}


def recorded(fun, points):
    def record(x):
        points.append(x.copy())
        return fun(x)
    return record


class TestSimplex:
    @pytest.mark.parametrize("name", SIMPLEX_CASES)
    def test_same_points_as_scipy(self, name):
        """The port evaluates the points scipy's bounded Nelder-Mead does,
        in the same order and number, and ends on the same best vertex."""
        scipy_optimize = pytest.importorskip("scipy.optimize")
        fun, x0, lo, hi, maxfev = SIMPLEX_CASES[name]
        want, got = [], []
        res = scipy_optimize.minimize(
            recorded(fun, want), np.array(x0), method="Nelder-Mead",
            bounds=scipy_optimize.Bounds(lo, hi),
            options={"maxfev": maxfev, "xatol": XATOL, "fatol": FATOL})
        x, f = minimize(recorded(fun, got), np.array(x0), np.array(lo),
                        np.array(hi), maxfev)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        assert x.tobytes() == res.x.tobytes()
        assert f == res.fun

    @pytest.mark.parametrize("name", SIMPLEX_CASES)
    def test_matches_recorded_scipy_run(self, name):
        """Holds where scipy is not installed."""
        fun, x0, lo, hi, maxfev = SIMPLEX_CASES[name]
        n_evals, last, best = SIMPLEX_RECORDED[name]
        points = []
        _, f = minimize(recorded(fun, points), np.array(x0), np.array(lo),
                        np.array(hi), maxfev)
        assert len(points) == n_evals
        assert [float(v).hex() for v in points[-1]] == last
        assert float(f).hex() == best

    def test_objective_gets_a_copy(self):
        """A function that writes into its argument does not move the
        simplex."""
        fun, x0, lo, hi, maxfev = SIMPLEX_CASES["rosenbrock"]

        def clobber(x):
            value = fun(x)
            x[:] = np.nan
            return value
        assert minimize(clobber, np.array(x0), np.array(lo), np.array(hi),
                        maxfev)[1] == minimize(fun, np.array(x0), np.array(lo),
                                               np.array(hi), maxfev)[1]
