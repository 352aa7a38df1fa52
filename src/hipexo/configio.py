"""Controller parameter files.

YAML in/out with degree-valued angle fields (``*_deg``, ``*_deg_s``) at the
boundary; everything is radians internally. Sigmoid slopes and offsets are
stored as-is.
"""
from __future__ import annotations

import math
from importlib import resources

import yaml

from .controller import ControllerParams
from .csvio import open_artifact
from .modulation import DescentModParams, SymmetryParams
from .signals import SigmoidParams
from .springs import GaitSpringParams, StsSpringParams

DEG = math.pi / 180.0


# the optional keys of each params section, each with the dataclass field
# it sets and the factor that converts it to internal units; a key the
# file leaves out takes the field's dataclass default
_OPTIONAL = {
    "descent": (("lambda", "lam", 1.0), ("thigh_min_deg", "thigh_min", DEG),
                ("thigh_max_deg", "thigh_max", DEG), ("t_wait", "t_wait", 1.0),
                ("t_decay", "t_decay", 1.0)),
    "symmetry": (("seated_threshold_deg", "seated_ext_threshold", DEG),
                 ("ema_smoothing", "ema_smoothing", 1.0)),
    "runtime": tuple((key, key, 1.0) for key in (
        "torque_limit", "loop_rate_hz", "vel_filter_cutoff_hz",
        "cmd_filter_cutoff_hz")),
}


def _optional(cfg: dict, section: str) -> dict:
    """{field: value} for each optional key that ``cfg[section]`` sets."""
    values = cfg.get(section, {})
    return {name: float(values[key]) * factor
            for key, name, factor in _OPTIONAL[section] if key in values}


def params_from_dict(cfg: dict) -> ControllerParams:
    g = cfg["gait"]
    s = cfg["sts"]
    d = cfg["descent"]
    y = cfg["symmetry"]
    return ControllerParams(
        gait=GaitSpringParams(
            k_ext=float(g["k_ext"]),
            k_flex=float(g["k_flex"]),
            theta_ext_eq=float(g["theta_ext_eq_deg"]) * DEG,
            theta_flex_eq=float(g["theta_flex_eq_deg"]) * DEG,
            vel_mod_ext=SigmoidParams(float(g["w_ext"]), float(g["phi_ext"])),
            vel_mod_flex=SigmoidParams(float(g["w_flex"]), float(g["phi_flex"])),
        ),
        sts=StsSpringParams(
            k_sts=float(s["k_sts"]),
            vel_mod=SigmoidParams(float(s["w_vel"]), float(s["phi_vel"])),
            torso_mod=SigmoidParams(float(s["w_torso"]), float(s["phi_torso"])),
        ),
        descent=DescentModParams(
            step_mod=SigmoidParams(float(d["w_step"]), float(d["phi_step"])),
            **_optional(cfg, "descent"),
        ),
        symmetry=SymmetryParams(
            sym_mod=SigmoidParams(float(y["w_sc"]), float(y["phi_sc"])),
            vel_threshold=float(y["vel_threshold_deg_s"]) * DEG,
            **_optional(cfg, "symmetry"),
        ),
        **_optional(cfg, "runtime"),
    )


def params_to_dict(p: ControllerParams) -> dict:
    return {
        "gait": {
            "k_ext": float(p.gait.k_ext),
            "k_flex": float(p.gait.k_flex),
            "theta_ext_eq_deg": p.gait.theta_ext_eq / DEG,
            "theta_flex_eq_deg": p.gait.theta_flex_eq / DEG,
            "w_ext": p.gait.vel_mod_ext.w,
            "phi_ext": p.gait.vel_mod_ext.phi,
            "w_flex": p.gait.vel_mod_flex.w,
            "phi_flex": p.gait.vel_mod_flex.phi,
        },
        "sts": {
            "k_sts": float(p.sts.k_sts),
            "w_vel": p.sts.vel_mod.w,
            "phi_vel": p.sts.vel_mod.phi,
            "w_torso": p.sts.torso_mod.w,
            "phi_torso": p.sts.torso_mod.phi,
        },
        "descent": {
            "w_step": p.descent.step_mod.w,
            "phi_step": p.descent.step_mod.phi,
            "lambda": p.descent.lam,
            "thigh_min_deg": p.descent.thigh_min / DEG,
            "thigh_max_deg": p.descent.thigh_max / DEG,
            "t_wait": p.descent.t_wait,
            "t_decay": p.descent.t_decay,
        },
        "symmetry": {
            "w_sc": p.symmetry.sym_mod.w,
            "phi_sc": p.symmetry.sym_mod.phi,
            "vel_threshold_deg_s": p.symmetry.vel_threshold / DEG,
            "seated_threshold_deg": p.symmetry.seated_ext_threshold / DEG,
            "ema_smoothing": p.symmetry.ema_smoothing,
        },
        "runtime": {
            "torque_limit": p.torque_limit,
            "loop_rate_hz": p.loop_rate_hz,
            "vel_filter_cutoff_hz": p.vel_filter_cutoff_hz,
            "cmd_filter_cutoff_hz": p.cmd_filter_cutoff_hz,
        },
    }


def load_params(path) -> ControllerParams:
    """Load controller parameters; 'default' loads the packaged example
    config produced by the optimizer."""
    if str(path) == "default":
        text = resources.files("hipexo.data").joinpath(
            "default_params.yaml").read_text()
        return params_from_dict(yaml.safe_load(text))
    with open(path) as fh:
        return params_from_dict(yaml.safe_load(fh))


def save_params(params: ControllerParams, path, header_lines=()):
    with open_artifact(path, header_lines) as fh:
        yaml.safe_dump(params_to_dict(params), fh, sort_keys=True,
                       default_flow_style=False)
