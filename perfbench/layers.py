"""Per-layer view of a traced unit.

Layers are the modules of ``src/hipexo``. Each public function or method
below is wrapped where its caller looks it up, and its span is named
``<layer>.<function>``. Two more layers hold time spent outside the
package: ``scipy`` (Nelder-Mead's own work) and ``bench`` (the harness).
"""
from __future__ import annotations

LAYERS = ("cli", "replay", "controller", "heelstrike", "springs",
          "modulation", "signals", "optimize", "gaitdata", "metrics",
          "configio")

SCALAR_SPRINGS = ("gait_spring_torques", "gait_velocity_factors",
                  "sts_spring_torque", "sts_modulated_torque")
SERIES_SPRINGS = ("gait_torque_series", "sts_torque_series")
MODULATION_FNS = ("alpha_at_heelstrike", "attenuate_extension", "beta_raw",
                  "beta_smoothed", "blend", "reset_tick")


def layer_wraps(hx) -> list[tuple]:
    """(owner, attribute, span name[, on_result]) for a traced run."""
    ctl, cli, opt = hx.controller, hx.cli, hx.optimize
    hs = hx.heelstrike
    source_key = {hs.SOURCE_THIGH: "heelstrike.events_thigh",
                  hs.SOURCE_PELVIS: "heelstrike.events_pelvis",
                  hs.SOURCE_FUSED: "heelstrike.events_fused"}

    def on_step(tr, result):
        if result.left.fault:
            tr.count("controller.fault_steps")

    def on_update(tr, event):
        if event is not None:
            tr.count(source_key[event.source])

    wraps = [
        (hx.replay, "replay_stride", "replay.replay_stride"),
        (ctl.HipController, "step", "controller.step", on_step),
        (hs.HsDetector, "update", "heelstrike.update", on_update),
        (hx.signals.LowpassFilter, "step", "signals.lowpass_step"),
        (ctl, "clamp", "signals.clamp"),
        (hx.modulation.ModulationState, "latch_alpha",
         "modulation.latch_alpha"),
        (opt, "apply_vector", "optimize.apply_vector"),
        (opt, "gait_torque", "springs.gait_torque"),
        (opt, "cosine_similarity", "metrics.cosine_similarity"),
        (cli, "format_sim_table", "optimize.format_sim_table"),
        (cli, "synth_battery", "gaitdata.synth_battery"),
        (cli, "save_stride", "gaitdata.save_stride"),
        (hx.gaitdata, "synth_imu_stream", "gaitdata.synth_imu_stream"),
        (cli, "task_energetics", "metrics.task_energetics"),
        (cli, "ensemble_average", "metrics.ensemble_average"),
        (cli, "write_report", "metrics.write_report"),
        (cli, "load_params", "configio.load_params"),
        (hx.configio, "load_params", "configio.load_params"),
        (cli, "save_params", "configio.save_params"),
    ]
    wraps += [(ctl, fn, "springs." + fn) for fn in SCALAR_SPRINGS]
    wraps += [(opt, fn, "springs." + fn) for fn in SERIES_SPRINGS]
    wraps += [(ctl, fn, "modulation." + fn) for fn in MODULATION_FNS]
    return wraps


def per_layer(unit: dict, setup: dict, counts: dict, ops: int,
              stage_s: float, wall_s: float) -> dict:
    """Per-layer metrics of one traced unit.

    ``unit`` and ``setup`` are span summaries (see ``tracer.summarize``) of
    the timed unit and of the set-up before it.
    """
    def calls(span):
        return unit.get(span, {}).get("calls", 0)

    def incl(*spans, where=unit):
        return sum(where.get(s, {}).get("incl_s", 0.0) for s in spans)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in unit.items()
                   if k.split(".", 1)[0] == layer)

    def per(total_s, n):
        return total_s / n * 1e6 if n else 0.0

    steps = calls("controller.step")
    evals = counts.get("optimize.evals", 0)
    m = {f"{layer}.self_s": layer_self(layer)
         for layer in LAYERS + ("scipy",)}
    # the program's own time: its modules plus the library it calls
    program_self = sum(m[f"{layer}.self_s"] for layer in LAYERS + ("scipy",))
    m.update({
        "heelstrike.update_us": per(incl("heelstrike.update"),
                                    calls("heelstrike.update")),
        "controller.step_us": per(incl("controller.step"), steps),
        "controller.self_us": per(layer_self("controller"), steps),
        "signals.lowpass_step_us": per(incl("signals.lowpass_step"),
                                       calls("signals.lowpass_step")),
        "springs.scalar_us_per_step": per(
            incl(*("springs." + f for f in SCALAR_SPRINGS)), steps),
        "modulation.us_per_step": per(layer_self("modulation"), steps),
        "replay.self_us_per_step": per(layer_self("replay"), steps),
        "gaitdata.save_stride_s": incl("gaitdata.save_stride"),
        "optimize.apply_vector_us": per(incl("optimize.apply_vector"),
                                        calls("optimize.apply_vector")),
        "springs.series_us_per_eval": per(
            incl(*("springs." + f for f in SERIES_SPRINGS)), evals),
        "optimize.self_us_per_eval": per(layer_self("optimize"), evals),
        "metrics.energetics_s": incl("metrics.task_energetics"),
        "gaitdata.synth_s": sum(
            incl("gaitdata.synth_battery", "gaitdata.synth_imu_stream",
                 where=w) for w in (setup, unit)),
        "configio.load_params_s": sum(
            incl("configio.load_params", where=w) for w in (setup, unit)),
        "controller.steps": steps,
        "controller.fault_steps": counts.get("controller.fault_steps", 0),
        "heelstrike.events_thigh": counts.get("heelstrike.events_thigh", 0),
        "heelstrike.events_pelvis": counts.get("heelstrike.events_pelvis", 0),
        "heelstrike.events_fused": counts.get("heelstrike.events_fused", 0),
        "signals.lowpass_calls": calls("signals.lowpass_step"),
        "modulation.alpha_latches": calls("modulation.latch_alpha"),
        "optimize.evals": evals,
        "trace.wall_s": wall_s,
        "trace.ops_per_s": ops / stage_s if stage_s > 0 else 0.0,
        "trace.spans": sum(v["calls"] for v in unit.values()),
        "trace.coverage": program_self / wall_s if wall_s > 0 else 0.0,
    })
    return m
