import math
from importlib import resources

import pytest

from hipexo.configio import (ConfigError, check, load_params,
                             params_from_dict, params_to_dict, save_params)
from hipexo.controller import ControllerParams
from hipexo.modulation import DescentModParams, SymmetryParams


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
