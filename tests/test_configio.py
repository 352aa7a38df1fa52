import math
from dataclasses import is_dataclass
from importlib import resources
from typing import get_type_hints

import pytest

from hipexo.configio import (DEG, PARAMS, ConfigError, check, load_params,
                             params_from_dict, params_to_dict, save_params)
from hipexo.controller import TUNABLES, ControllerParams
from hipexo.modulation import DescentModParams, SymmetryParams
from hipexo.optimize import PARAM_PATHS, get_param


class TestParamsIO:
    def test_packaged_default_loads(self, default_params):
        p = default_params
        assert p.torque_limit == 22.0
        assert p.loop_rate_hz == 250.0
        assert p.vel_filter_cutoff_hz == 10.0
        assert p.cmd_filter_cutoff_hz == 5.0
        assert p.symmetry.ema_smoothing == 0.1
        assert p.descent.step_mod.w < 0
        assert p.symmetry.sym_mod.w < 0 and p.symmetry.sym_mod.phi < 0

    def test_degree_boundary_roundtrip(self, default_params, tmp_path):
        path = tmp_path / "params.yaml"
        save_params(default_params, path, header_lines=["roundtrip"])
        back = load_params(path)
        for a, b in ((default_params.gait.theta_ext_eq, back.gait.theta_ext_eq),
                     (default_params.gait.theta_flex_eq, back.gait.theta_flex_eq),
                     (default_params.descent.thigh_min, back.descent.thigh_min),
                     (default_params.symmetry.vel_threshold,
                      back.symmetry.vel_threshold)):
            assert b == pytest.approx(a, abs=1e-12)
        assert back.gait.vel_mod_ext.w == default_params.gait.vel_mod_ext.w

    def test_dict_roundtrip_preserves_structure(self, default_params):
        d = params_to_dict(default_params)
        back = params_to_dict(params_from_dict(d))
        assert set(back) == set(d)
        for section in d:
            assert back[section] == pytest.approx(d[section])

    def test_save_reproduces_packaged_file(self, default_params, tmp_path):
        """Loading and saving the packaged params writes its body, every
        line but the comment block, byte for byte."""
        path = tmp_path / "params.yaml"
        save_params(default_params, path)
        packaged = resources.files("hipexo.data").joinpath(
            "default_params.yaml").read_bytes()
        body = b"".join(line for line in packaged.splitlines(keepends=True)
                        if not line.startswith(b"#"))
        assert path.read_bytes() == body

    def test_dict_angles_are_degrees(self, default_params):
        d = params_to_dict(default_params)
        rad = default_params.gait.theta_ext_eq
        assert d["gait"]["theta_ext_eq_deg"] == pytest.approx(
            rad * 180.0 / math.pi)


# the optimizer's names and field paths, in order, written out apart from
# the tunables table they come from
OPTIMIZER_PATHS = [
    ("k_ext", ("gait", "k_ext")),
    ("k_flex", ("gait", "k_flex")),
    ("theta_ext_eq", ("gait", "theta_ext_eq")),
    ("theta_flex_eq", ("gait", "theta_flex_eq")),
    ("w_ext", ("gait", "vel_mod_ext", "w")),
    ("phi_ext", ("gait", "vel_mod_ext", "phi")),
    ("w_flex", ("gait", "vel_mod_flex", "w")),
    ("phi_flex", ("gait", "vel_mod_flex", "phi")),
    ("k_sts", ("sts", "k_sts")),
    ("w_vel", ("sts", "vel_mod", "w")),
    ("phi_vel", ("sts", "vel_mod", "phi")),
    ("w_torso", ("sts", "torso_mod", "w")),
    ("phi_torso", ("sts", "torso_mod", "phi")),
]


def leaf_paths(cls, prefix=()):
    """The field path of every field under ``cls`` that is not itself a
    dataclass."""
    for name, kind in get_type_hints(cls).items():
        if is_dataclass(kind):
            yield from leaf_paths(kind, prefix + (name,))
        else:
            yield prefix + (name,)


class TestTunablesTable:
    def test_every_leaf_field_once(self):
        paths = [path for _, _, path, _ in TUNABLES]
        assert sorted(paths) == sorted(leaf_paths(ControllerParams))

    def test_optimizer_names_and_paths_unchanged(self):
        assert list(PARAM_PATHS.items()) == OPTIMIZER_PATHS

    def test_get_param_walks_the_same_field(self, default_params):
        for name, path in OPTIMIZER_PATHS:
            obj = default_params
            for attr in path:
                obj = getattr(obj, attr)
            assert get_param(default_params, name) == float(obj)

    def test_file_key_reads_the_optimizer_field(self, default_params):
        """Each optimizer name is its params-file key in internal units:
        the file value times the key's factor is the same float."""
        d = params_to_dict(default_params)
        for name, path in OPTIMIZER_PATHS:
            section = path[0]
            key = name if name in PARAMS[section] else name + "_deg"
            file_path, factor = PARAMS[section][key]
            assert file_path == path
            assert d[section][key] * factor == get_param(default_params, name)

    def test_params_file_keys_and_factors_unchanged(self):
        assert {section: list(keys) for section, keys in PARAMS.items()} == {
            "gait": ["k_ext", "k_flex", "theta_ext_eq_deg",
                     "theta_flex_eq_deg", "w_ext", "phi_ext", "w_flex",
                     "phi_flex"],
            "sts": ["k_sts", "w_vel", "phi_vel", "w_torso", "phi_torso"],
            "descent": ["w_step", "phi_step", "lambda", "thigh_min_deg",
                        "thigh_max_deg", "t_wait", "t_decay"],
            "symmetry": ["w_sc", "phi_sc", "vel_threshold_deg_s",
                         "seated_threshold_deg", "ema_smoothing"],
            "runtime": ["torque_limit", "loop_rate_hz",
                        "vel_filter_cutoff_hz", "cmd_filter_cutoff_hz"]}
        for keys in PARAMS.values():
            for key, (_, factor) in keys.items():
                assert factor == (DEG if key.endswith(("_deg", "_deg_s"))
                                  else 1)


def test_omitted_optional_keys_take_dataclass_defaults(default_params):
    d = params_to_dict(default_params)
    for section, keys in (("descent", ("lambda", "thigh_min_deg",
                                       "thigh_max_deg", "t_wait", "t_decay")),
                          ("symmetry", ("seated_threshold_deg",
                                        "ema_smoothing"))):
        for key in keys:
            del d[section][key]
    del d["runtime"]
    p = params_from_dict(d)
    want_descent = DescentModParams(step_mod=default_params.descent.step_mod)
    want_symmetry = SymmetryParams(
        sym_mod=default_params.symmetry.sym_mod,
        vel_threshold=default_params.symmetry.vel_threshold)
    assert p.descent == want_descent
    assert (p.descent.thigh_min, p.descent.thigh_max) == (-0.35, 0.9)
    assert p.symmetry == want_symmetry
    assert p.symmetry.seated_ext_threshold == 1.0
    assert p == ControllerParams(default_params.gait, default_params.sts,
                                 want_descent, want_symmetry)


@pytest.mark.parametrize("value", [".nan", ".inf"])
@pytest.mark.parametrize("key", ["k_ext", "k_flex", "k_sts", "torque_limit"])
def test_non_finite_stiffness_and_limit_rejected_on_load(default_params, tmp_path,
                                                         key, value):
    path = tmp_path / "params.yaml"
    save_params(default_params, path)
    text = path.read_text()
    line = next(ln for ln in text.splitlines()
                if ln.strip().startswith(f"{key}:"))
    path.write_text(text.replace(line, f"{line.split(':')[0]}: {value}"))
    with pytest.raises(ValueError, match=key):
        load_params(path)


@pytest.mark.parametrize("minimum", [None, 0])
def test_integer_beyond_float_range_is_not_finite(minimum):
    # a YAML integer literal of more than 308 digits
    with pytest.raises(ConfigError, match="x must be finite"):
        check({"x": (float, minimum, 1.0)}, {"x": 10 ** 400})
