"""Byte contract of ``write_csv``, the one CSV line writer.

The references below are the row-wise writers it replaced: one numpy scalar
index and ``repr`` per cell, through ``csv.writer``. ``write_csv`` must
give the same bytes on every float, including the special values, and on
the string cells of the CLI's tables.
``TestReadColumns`` tests the one reader that every CSV input goes through.
"""
import csv
import math

import numpy as np
import pytest

from hipexo import cli, metrics
from hipexo.csvio import (_NP_PREFIX, _NP_SUFFIX, LoadError, read_columns,
                          write_float_columns)
from hipexo.gaitdata import ActivityLabel, load_stride, save_stride
from hipexo.replay import BREAKDOWN_FIELDS, replay_stride, write_step_log
from test_cli import (SMALL_BATTERY, write_hs_config, write_opt_config,
                      write_yaml)

SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5,
                     1e-4, 0.0, -1.5])
HEADER = ["tool: test", "seed: 0"]


def reference_csv(path, names, rows, header_lines):
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)


def reference_step_log(log, path, header_lines):
    reference_csv(path, ("timestamp", "phase", *BREAKDOWN_FIELDS),
                  ([repr(log.t[i]), repr(log.phase[i])]
                   + [repr(log.series[f][i]) for f in BREAKDOWN_FIELDS]
                   for i in range(len(log.t))), header_lines)


def reference_stride_csv(stride, path, header_lines):
    names = sorted(stride.channels)
    reference_csv(path, names,
                  ([repr(float(stride.channels[c][i])) for c in names]
                   for i in range(stride.n)), header_lines)


def reference_profile(columns, path, header_lines):
    names = list(columns)
    n = len(columns[names[0]])
    reference_csv(path, names,
                  ([repr(columns[c][i]) for c in names] for i in range(n)),
                  header_lines)


def inject(values, offset, specials=SPECIALS):
    """``values`` with ``specials`` written over a slice starting at
    ``offset``."""
    out = np.array(values, dtype=float)
    out[offset:offset + len(specials)] = specials
    return out


def test_step_log_bytes_match_row_wise_reference(tmp_path, default_params,
                                                 battery):
    stride = battery[ActivityLabel("ramp-descent", 11)][0]
    log = replay_stride(default_params, stride, cycles=1)
    log.t = inject(log.t, 3)
    log.phase = inject(log.phase, 40)
    for k, name in enumerate(BREAKDOWN_FIELDS):
        log.series[name] = inject(log.series[name], 7 * k)
    write_step_log(log, tmp_path / "new.csv", HEADER)
    reference_step_log(log, tmp_path / "ref.csv", HEADER)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_stride_bytes_match_reference_and_reload_bit_identical(tmp_path,
                                                                battery):
    """The writer gives the reference bytes on every special value, set
    after construction as ``StrideSeries`` admits no non-finite cell. A
    file of finite specials reloads bit for bit; one with nan or inf is a
    load error naming the channel."""
    base = battery[ActivityLabel("stair-ascent", 0.178)][1]
    for specials, name in ((SPECIALS, "all"),
                           (SPECIALS[np.isfinite(SPECIALS)], "finite")):
        stride = base.copy_with()
        stride.channels["extra"] = inject(np.zeros(stride.n), 0, specials)
        stride.channels["hip_angle"] = inject(stride.channels["hip_angle"],
                                              50, specials)
        path = tmp_path / f"{name}.csv"
        save_stride(stride, path, HEADER)
        reference_stride_csv(stride, tmp_path / "ref.csv", HEADER)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), name

    with pytest.raises(LoadError, match=r"all\.csv: channel 'extra' holds "
                       "nan at data row 2"):
        load_stride(tmp_path / "all.csv")
    back = load_stride(tmp_path / "finite.csv")
    assert set(back.channels) == set(stride.channels)
    for name, values in stride.channels.items():
        assert back.channels[name].tobytes() == values.tobytes(), name


def test_stride_cells_reused_only_for_the_same_array(tmp_path, battery):
    """Strides written through one ``cells`` dict reuse a channel's cells
    only while it is the same array object: a channel that
    :meth:`StrideSeries.copy_with` replaced, even by an equal copy that
    then changes in place, and one it added, are formatted again."""
    stride = battery[ActivityLabel("stair-ascent", 0.178)][1]
    hip = stride.channels["hip_angle"].copy()
    changed = stride.copy_with(hip_angle=hip)
    # set after construction: StrideSeries admits no non-finite cell
    changed.channels["extra"] = inject(np.zeros(stride.n), 0)
    cells = {}
    save_stride(stride, tmp_path / "a.csv", HEADER, cells)
    hip[50:50 + len(SPECIALS)] = SPECIALS
    save_stride(changed, tmp_path / "b.csv", HEADER, cells)
    for name, s in (("a", stride), ("b", changed)):
        reference_stride_csv(s, tmp_path / "ref.csv", HEADER)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes(), name


def test_profile_bytes_match_row_wise_reference(tmp_path):
    rng = np.random.default_rng(4)
    n = 201
    columns = {"percent": np.linspace(0.0, 100.0, n)}
    for k, name in enumerate(["bio_moment_mean", "bio_moment_sd",
                              "exo_torque_mean", "exo_torque_sd",
                              "bio_power_mean", "bio_power_sd"]):
        columns[name] = inject(rng.standard_normal(n), 20 * k)
    write_float_columns(tmp_path / "new.csv", list(columns),
                        list(columns.values()), HEADER, numpy_repr=True)
    reference_profile(columns, tmp_path / "ref.csv", HEADER)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("command, files", [
    ("simulate", ["report.csv"]),
    ("optimize", ["trace.csv"]),
    ("metrics", ["report.csv", "paired.csv"]),
    ("detect-hs", ["events.csv", "summary.csv"]),
])
def test_cli_tables_match_csv_writer(tmp_path, monkeypatch, command, files):
    """Each table the CLI writes through ``write_csv`` has the bytes of
    ``csv.writer`` on the same rows."""
    sim = write_yaml(tmp_path / "sim.yaml",
                     {"params": "default", "battery": SMALL_BATTERY})
    assert cli.main(["simulate", "--config", sim,
                     "--out", str(tmp_path / "strides")]) == 0
    config = {
        "simulate": sim,
        "optimize": write_opt_config(tmp_path, budget=60),
        "metrics": write_yaml(tmp_path / "met.yaml", {
            c: str(tmp_path / "strides" / "strides" / c)
            for c in ("unassisted", "assisted")}),
        "detect-hs": write_hs_config(tmp_path, 20.0, 3),
    }[command]
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path / "new")]) == 0
    for module in (cli, metrics):
        monkeypatch.setattr(module, "write_csv", reference_csv)
    assert cli.main([command, "--config", config,
                     "--out", str(tmp_path / "ref")]) == 0
    for name in files:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes(), name


class TestReadColumns:
    def write(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text("# tool: hipexo\n" + text)
        return path

    def test_every_column_as_float_without_parsers(self, tmp_path):
        path = self.write(tmp_path, "a, b\n1.5,2\n\n-3,inf\n")
        assert read_columns(path, "test") == {"a": [1.5, -3.0],
                                              "b": [2.0, math.inf]}

    def test_parsers_pick_and_parse_columns(self, tmp_path):
        path = self.write(tmp_path, "side,extra,time\nleft,x,0.5\n")
        assert read_columns(path, "truth", {"time": float, "side": str}) == \
            {"time": [0.5], "side": ["left"]}

    def test_missing_columns_all_named(self, tmp_path):
        path = self.write(tmp_path, "leg,t\nleft,1.5\n")
        with pytest.raises(LoadError, match=r"missing truth columns "
                           r"\['side', 'time'\]"):
            read_columns(path, "truth", {"side": str, "time": float})

    def test_short_row(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(LoadError, match="bad stride row: data row 2 has "
                           "no cell for column 'c'"):
            read_columns(path, "stride")
        # a column left unread may be short
        assert read_columns(path, "stride", {"a": float}) == {"a": [1.0, 4.0]}

    def test_cell_the_parser_rejects(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,abc\n")
        with pytest.raises(LoadError, match="bad report row: column 'b': "
                           "could not convert string to float: 'abc'"):
            read_columns(path, "report")

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "a,b\n")
        assert read_columns(path, "test") == {"a": [], "b": []}


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_float_columns(tmp_path / "x.csv", ["a", "b"],
                            [np.zeros(3), np.zeros(2)])


def test_wrapped_float_repr_is_numpy_scalar_repr():
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), SPECIALS,
                             rng.uniform(-1e3, 1e3, 1000),
                             rng.uniform(0.0, 1e-300, 1000)])
    mismatches = [x for x, f in zip(values, values.tolist())
                  if _NP_PREFIX + repr(f) + _NP_SUFFIX != repr(x)]
    assert mismatches == []
