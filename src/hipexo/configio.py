"""Configs, parameter files and schema maps: every YAML input, read by
:func:`read_yaml` against one key table.

A table (:data:`CONFIGS`, :data:`SCHEMA`) maps each key to (kind, minimum,
default), and :func:`check` walks it: it checks each value the file sets,
fills in the default of each key the file leaves out, and raises
:class:`ConfigError` on a key the table lacks, naming the nearest known
key. Rules that tie fields together stay with the classes the values
build (their ``__post_init__`` checks, ``optimize.check_in_bounds``).

Parameter files hold degree-valued angle fields (``*_deg``, ``*_deg_s``)
at the boundary; everything is radians internally. Sigmoid slopes and
offsets are stored as-is. :data:`PARAMS` maps each file key to the field
it sets and its unit factor, read off ``controller.TUNABLES``, the one
table of tunables that the optimizer names its parameters from too; both
:func:`params_from_dict` and :func:`params_to_dict` walk it.
"""
from __future__ import annotations

import difflib
import math
import os
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import yaml

from .controller import TUNABLES, ControllerParams, field_at
from .csvio import open_artifact
from .gaitdata import (CHANNELS, DEFAULT_BATTERY, KINDS, MIN_SAMPLES,
                       ActivityLabel)
from .heelstrike import HsDetectorConfig
from .optimize import DEFAULT_FREE, PARAM_PATHS, ObjectiveSpec

DEG = math.pi / 180.0


class ConfigError(ValueError):
    """A config, params or schema file that its table or rules reject."""


# A type is int, float, str, bool or list; FILE or DIR, a string that
# names an existing file or directory; or LABEL, a string that
# ActivityLabel.parse accepts, read as the label. A dict is a nested
# table (a section), a list [k] a list of kind k, and a tuple a list of
# exactly that many values. An int must be >= its minimum, a float finite
# and > its minimum if it has one. MISSING marks a key the file must set.
# A section left out or null is read as empty, so its keys take their
# defaults, unless its default is None: then it stays None. Any other null
# is rejected.
FILE, DIR, LABEL = "file", "directory", "activity label"
_BATTERY = {
    "synthetic": (bool, None, False),
    "seed": (int, 0, 7),
    "tasks": ([LABEL], None, DEFAULT_BATTERY),
    "strides_per_task": (int, 1, 3),
    "body_mass": (float, 0, 70.0),
    "dataset": ([{"schema": (FILE, None, MISSING),
                  "csv": (FILE, None, MISSING),
                  "n_samples": (int, MIN_SAMPLES, 101)}], None, None),
}
CONFIGS = {
    "simulate": {"params": (str, None, "default"),
                 "battery": (_BATTERY, None, MISSING),
                 "cycles": (int, 1, 4)},
    "optimize": {
        "params": (str, None, "default"),
        "battery": (_BATTERY, None, MISSING),
        "seed": (int, 0, 0),
        "weights": ({kind: (float, None, 1.0) for kind in KINDS}, None, {}),
        "free": (list, None, DEFAULT_FREE),
        "bounds": ({name: ((float, float), None, None)
                    for name in PARAM_PATHS}, None, {}),
        **{f.name: (float, None, f.default) for f in fields(ObjectiveSpec)
           if f.name in ("c_static", "c_sign", "target_scale")},
        "budget": (int, 1, 6000),
    },
    "metrics": {"unassisted": (DIR, None, None),
                "assisted": (DIR, None, None)},
    "detect-hs": {
        "input": (FILE, None, MISSING),
        "rate_hz": (float, 0, 250.0),
        # HsDetectorConfig's ranges: a float > 0, an integer >= 1
        "detector": ({f.name: (kind, 0 if kind is float else 1, f.default)
                      for f in fields(HsDetectorConfig)
                      for kind in [type(f.default)]}, None, {}),
        "truth": (FILE, None, None),
        "match_tol_s": (float, 0, 0.03),
    },
}

# a dataset schema map (see gaitdata.load_trial): each canonical channel
# that the trial holds maps to its CSV column and that column's unit
SCHEMA = {
    "sample_rate_hz": (float, 0, MISSING),
    "body_mass_kg": (float, 0, MISSING),
    "stance_fraction": (float, 0, None),
    "task": (LABEL, None, MISSING),
    "columns": ({name: ({"name": (str, None, MISSING),
                         "unit": (str, None, "rad")}, None, None)
                 for name in CHANNELS}, None, MISSING),
    "prefilter": ({"kinematics_hz": (float, 0, 6.0),
                   "moments_hz": (float, 0, 6.0),
                   "grf_hz": (float, 0, 20.0)}, None, None),
}

# the values that YAML gives for each type, and its name in messages
_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
          str: (str, "a string"), bool: (bool, "true or false"),
          list: (list, "a list"), FILE: (str, "a string"),
          DIR: (str, "a string"), LABEL: (str, "an activity label")}
_IS_KIND = {FILE: os.path.isfile, DIR: os.path.isdir}


def check(table: dict, values, where: str = "") -> dict:
    """``values``, the mapping at ``where`` ('' at the top level), checked
    against ``table``, with the default of each key it leaves out."""
    name = where or "top-level"
    if values is None:   # an empty YAML section
        values = {}
    if not isinstance(values, dict):
        raise ConfigError(f"{name} section must be a mapping, got {values!r}")
    unknown = sorted(map(str, set(values) - set(table)))
    if unknown:
        near = [f"{match[0]!r} for {key!r}" for key in unknown
                for match in [difflib.get_close_matches(key, table, 1)]
                if match]
        raise ConfigError(f"unknown {name} keys {unknown}" + (
            f"; did you mean {', '.join(near)}?" if near else ""))
    missing = [key for key, (_, _, default) in table.items()
               if default is MISSING and key not in values]
    if missing:
        raise ConfigError(f"{name} needs keys {missing}")
    out = {}
    for key, (kind, minimum, default) in table.items():
        value = values.get(key, default)
        if isinstance(kind, dict) and default is None and value is None:
            out[key] = None
        elif key in values or isinstance(kind, dict):
            out[key] = _value(kind, minimum, value,
                              f"{where}.{key}" if where else key)
        else:
            out[key] = default
    return out


def _value(kind, minimum, value, path: str):
    """``value`` of the key at ``path``, checked as ``kind``."""
    if isinstance(kind, dict):
        return check(kind, value, path)
    if isinstance(kind, list):
        return [_value(kind[0], minimum, item, f"{path}[{i}]")
                for i, item in enumerate(_value(list, None, value, path))]
    if isinstance(kind, tuple):
        if not isinstance(value, list) or len(value) != len(kind):
            raise ConfigError(f"{path} must be a list of {len(kind)} "
                              f"numbers, got {value!r}")
        return tuple(_value(k, minimum, v, path) for k, v in zip(kind, value))
    accepted, what = _TYPES[kind]
    if not isinstance(value, accepted) or \
            isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:   # an integer beyond the float range
            value = math.inf
        if not (math.isfinite(value)
                and (minimum is None or value > minimum)):
            raise ConfigError(f"{path} must be finite" + (
                "" if minimum is None else f" and > {minimum}") +
                f", got {value}")
    elif minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    elif kind in _IS_KIND and not _IS_KIND[kind](value):
        raise ConfigError(f"{path} must be an existing {kind}, got {value!r}")
    elif kind is LABEL:
        try:
            return ActivityLabel.parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path} must be an {kind}, got {value!r}: "
                              f"{exc}") from exc
    return value


# the params-file view of controller.TUNABLES: each file key, by section,
# maps to the field path it sets and the factor from its file unit (DEG
# for degrees) to internal units; a key the file leaves out takes the
# field's dataclass default
PARAMS = {section: {(f"{name}_{unit}" if unit else name):
                    (path, DEG if unit else 1)
                    for row_section, name, path, unit in TUNABLES
                    if row_section == section}
          for section in dict.fromkeys(row[0] for row in TUNABLES)}
_PARAMS_TABLE = {section: ({key: (float, None, None) for key in keys},
                           None, {}) for section, keys in PARAMS.items()}


def read_yaml(path, what: str, table: dict, build=None) -> tuple:
    """The YAML file at ``path`` checked against ``table`` and passed to
    ``build`` if given, and its bytes. ``what`` names the file in messages
    ('default' is ``default_simulate.yaml`` for 'simulate config'); a
    missing file, a YAML error or a value that the table or ``build``
    rejects is a :class:`ConfigError`."""
    source = (resources.files("hipexo.data").joinpath(
        f"default_{what.removesuffix(' config')}.yaml")
        if str(path) == "default" else Path(path))
    if not source.is_file():
        raise ConfigError(f"no {what} file {str(path)!r}")
    raw = source.read_bytes()
    try:
        checked = check(table, yaml.safe_load(raw))
        return (checked if build is None else build(checked)), raw
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def params_from_dict(cfg: dict) -> ControllerParams:
    """The parameters that a params mapping, such as :func:`check` of a
    params file against its table, sets."""
    values = {}
    for section, given in cfg.items():
        for key, value in given.items():
            if value is not None:
                path, factor = PARAMS[section][key]
                values[path] = value * factor
    return _build(ControllerParams, values)


def _build(cls, values: dict, prefix: tuple = ()):
    """``cls`` with the fields under ``prefix`` that ``values``, {field
    path: value}, sets; a field that it leaves out takes its dataclass
    default."""
    types = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        path = prefix + (f.name,)
        if path in values:
            kwargs[f.name] = values[path]
        elif any(key[:len(path)] == path for key in values):
            kwargs[f.name] = _build(types[f.name], values, path)
        elif f.default is MISSING and f.default_factory is MISSING:
            # name a missing section, else the first file key under the field
            name = f.name if not prefix else next(
                f"{section}.{key}" for section, keys in PARAMS.items()
                for key, (field, _) in keys.items()
                if field[:len(path)] == path)
            raise ConfigError(f"missing key {name!r}")
    return cls(**kwargs)


def params_to_dict(p: ControllerParams) -> dict:
    return {section: {key: field_at(p, path) / factor
                      for key, (path, factor) in keys.items()}
            for section, keys in PARAMS.items()}


def load_params(path) -> ControllerParams:
    """Load controller parameters; 'default' loads the packaged example
    config produced by the optimizer."""
    return read_yaml(path, "params", _PARAMS_TABLE, params_from_dict)[0]


def save_params(params: ControllerParams, path, header_lines=()):
    with open_artifact(path, header_lines) as fh:
        yaml.safe_dump(params_to_dict(params), fh, sort_keys=True,
                       default_flow_style=False)
