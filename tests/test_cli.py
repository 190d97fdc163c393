"""Tests for the command-line front end: exit codes, files, determinism."""

import csv
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfpipe.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    MAX_SAMPLES,
    main,
)
from halfpipe.doubling import meridian_cone_angles
from halfpipe.fuchsian import TeichPoint, WeightedMulticurve, build_punctured_torus, filling_advisory
from halfpipe.geometry import HYP, GeometryError

TOL_READBACK = 1e-9
# the first report each subcommand writes, on the config of _write_config
FIRST_REPORTS = {
    "transition": "transition_00_A.json",
    "kerckhoff": "kerckhoff.json",
    "double": "cone_angles.csv",
    "export-surface": "scene.json",
}


def _write_config(path, **overrides):
    cfg = {
        "traces": [3.0, 3.0, 3.0],
        "multicurves": {
            "lambda": [{"word": "A", "weight": 1.0}],
            "mu": [{"word": "B", "weight": 1.0}],
        },
        "words": ["A", "B"],
        "samples": 40,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def _run(tmp_path, command, config, *extra):
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out), *extra])
    return code, out


def test_transition_writes_report_per_word(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "transition", config)
    assert code == EXIT_OK
    summary = json.loads((out / "transition_summary.json").read_text())
    assert summary["words"] == ["A", "B"]
    assert all(gap < 1e-6 for gap in summary["gaps"])
    for index, word in enumerate(summary["words"]):
        report = json.loads((out / f"transition_{index:02d}_{word}.json").read_text())
        assert report["word"] == word
        assert report["two_sided_gap"] < 1e-6
        assert report["order_pos"] is None or report["order_pos"] > 0.9


def test_transition_empty_word_list_passes(tmp_path):
    config = _write_config(tmp_path / "cfg.json", words=[])
    code, out = _run(tmp_path, "transition", config)
    assert code == EXIT_OK
    summary = json.loads((out / "transition_summary.json").read_text())
    assert summary["gaps"] == []


def test_transition_threshold_exit(tmp_path):
    config = _write_config(tmp_path / "cfg.json", words=["AB"])
    code, _ = _run(tmp_path, "transition", config, "--tol", "1e-18")
    assert code == EXIT_THRESHOLD


def test_transition_one_sided_grid_is_a_config_error(tmp_path, capsys):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "transition", config, "--grid", "0.1,0.01,0.001")
    assert code == EXIT_CONFIG
    assert "field 'grid'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0.1,0.01,-0.1,-0.01", "got 2 positive and 2 negative in [0.1, 0.01, -0.1, -0.01]"),
        ("0.1,0.01,0.001,0,-0.1,-0.01,-0.001", "must be nonzero; got [0.1, 0.01, 0.001, 0.0, -0.1, -0.01, -0.001]"),
        ("0.1,0.01,0.001,-0.0,-0.1,-0.01,-0.001", "must be nonzero"),
    ],
)
def test_transition_grids_the_extrapolation_cannot_use_exit_2_before_any_work(tmp_path, capsys, grid, message):
    config = _write_config(tmp_path / "cfg.json", words=["A"])
    code, out = _run(tmp_path, "transition", config, "--grid", grid)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "field 'grid'" in err and message in err
    assert not out.exists()


def test_config_errors_exit_2(tmp_path):
    bad_traces = _write_config(tmp_path / "bad1.json", traces=[1.0, 1.0, 1.0])
    assert _run(tmp_path, "transition", bad_traces)[0] == EXIT_CONFIG

    bad_json = tmp_path / "bad2.json"
    bad_json.write_text("{not json")
    assert _run(tmp_path, "transition", bad_json)[0] == EXIT_CONFIG

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"traces": [3.0, 3.0, 3.0]}))
    assert _run(tmp_path, "transition", missing)[0] == EXIT_CONFIG

    for words in (["AXb"], [""]):
        bad_word = _write_config(tmp_path / "bad3.json", words=words)
        assert _run(tmp_path, "transition", bad_word)[0] == EXIT_CONFIG, words

    both = _write_config(
        tmp_path / "bad4.json", generators=[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
    )
    assert _run(tmp_path, "transition", both)[0] == EXIT_CONFIG

    # Determinant-0 generators whose traces lie on the Fricke surface.
    tp = TeichPoint.from_xy(4.0, 5.0)
    singular = tmp_path / "bad5.json"
    cfg = json.loads(_write_config(singular).read_text())
    del cfg["traces"]
    cfg["generators"] = [[[tp.x, 1.0], [0.0, 0.0]], [[0.0, 0.0], [tp.z, tp.y]]]
    singular.write_text(json.dumps(cfg))
    for command in ("transition", "kerckhoff"):
        assert _run(tmp_path, command, singular)[0] == EXIT_CONFIG, command

    assert _run(tmp_path, "transition", tmp_path / "absent.json")[0] == EXIT_CONFIG

    # A grid field that is not a list, and repeated grid values, in the
    # config or on the command line.
    good = _write_config(tmp_path / "good.json")
    for command in ("transition", "double", "export-surface"):
        for grid in ("abc", 0.1, {}, [0.2, 0.1, 0.1]):
            config = _write_config(tmp_path / "bad6.json", grid=grid)
            assert _run(tmp_path, command, config)[0] == EXIT_CONFIG, (command, grid)
        for grid in ("0.1,0.1", "0.2,0.1,0.1", "0.1,-0.1,0.01,-0.01,0.001,-0.001,0.01"):
            assert _run(tmp_path, command, good, f"--grid={grid}")[0] == EXIT_CONFIG, (command, grid)


def test_non_finite_config_numbers_exit_2(tmp_path):
    cases = [
        ("transition", {"traces": [math.nan, math.nan, math.nan]}),
        (
            "transition",
            {
                "multicurves": {"lambda": [{"word": "A", "weight": math.inf}], "mu": [{"word": "B"}]},
                "words": ["B"],
            },
        ),
        ("double", {"base_point": "abc"}),
        ("export-surface", {"base_point": [0.1, 0.2, 0.3]}),
        ("double", {"base_point": [math.nan, 0.0]}),
        ("export-surface", {"base_point": [0.9, 0.9]}),
        ("export-surface", {"samples": True}),
        ("transition", {"grid": [math.nan, 0.1, -0.1, 0.01, -0.01, 0.001, -0.001]}),
        ("double", {"grid": [math.inf]}),
    ]
    for index, (command, overrides) in enumerate(cases):
        config = _write_config(tmp_path / f"bad{index}.json", **overrides)
        assert _run(tmp_path, command, config)[0] == EXIT_CONFIG, (command, overrides)
    # Finite traces whose trace relation overflows to NaN.
    huge = _write_config(tmp_path / "huge.json", traces=[1e200, 1e200, 1e200])
    for command in ("transition", "kerckhoff", "double", "export-surface"):
        assert _run(tmp_path, command, huge)[0] == EXIT_CONFIG, command
    config = _write_config(tmp_path / "good.json")
    for command in ("transition", "kerckhoff", "double", "export-surface"):
        for tol in ("nan", "inf", "0", "-1"):
            assert _run(tmp_path, command, config, f"--tol={tol}")[0] == EXIT_CONFIG, (command, tol)


def test_generators_config_equals_traces_config(tmp_path):
    group = build_punctured_torus(TeichPoint(3.0, 3.0, 3.0))
    by_traces = _write_config(tmp_path / "t.json", words=["A"])
    by_gens = tmp_path / "g.json"
    cfg = json.loads(by_traces.read_text())
    del cfg["traces"]
    cfg["generators"] = [group.sl2("A").tolist(), group.sl2("B").tolist()]
    by_gens.write_text(json.dumps(cfg))

    code_t, out_t = _run(tmp_path / "rt", "transition", by_traces)
    code_g, out_g = _run(tmp_path / "rg", "transition", by_gens)
    assert code_t == code_g == EXIT_OK
    rep_t = json.loads((out_t / "transition_00_A.json").read_text())
    rep_g = json.loads((out_g / "transition_00_A.json").read_text())
    assert rep_t["two_sided_gap"] == pytest.approx(rep_g["two_sided_gap"], abs=1e-12)


def test_kerckhoff_report(tmp_path):
    config = _write_config(tmp_path / "cfg.json", traces=[3.0, 3.0, 6.0])
    code, out = _run(tmp_path, "kerckhoff", config)
    assert code == EXIT_OK
    report = json.loads((out / "kerckhoff.json").read_text())
    expected = 2.0 * math.sqrt(2.0)
    assert report["traces"][0] == pytest.approx(expected, abs=1e-6)
    assert report["traces"][1] == pytest.approx(expected, abs=1e-6)
    assert report["traces"][2] == pytest.approx(4.0, abs=1e-6)
    assert report["objective"] == pytest.approx(4.0 * math.acosh(math.sqrt(2.0)), abs=1e-8)
    assert report["gradient_norm"] < 1e-7
    assert report["seed"] == 0


def test_kerckhoff_report_ignores_blas_threads_and_cli_loads_no_scipy(tmp_path):
    traces = TeichPoint.from_xy(6.0, 3.5).as_array().tolist()
    config = _write_config(
        tmp_path / "cfg.json",
        traces=traces,
        multicurves={"lambda": [{"word": "AAB", "weight": 1.1}], "mu": [{"word": "AB", "weight": 0.9}]},
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = tmp_path / f"out-{threads}"
        command = [sys.executable, "-m", "halfpipe.cli", "kerckhoff", "--config", str(config), "--out", str(out)]
        assert subprocess.run(command, env=env, timeout=120).returncode == EXIT_OK
        reports.append((out / "kerckhoff.json").read_bytes())
    assert reports[0] == reports[1]
    probe = "import sys, halfpipe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert loaded.returncode == 0 and loaded.stdout.strip() == "[]"


def test_overflowing_anti_de_sitter_rotation_exits_3(tmp_path):
    # t = -0.1 bends by 1e4 * 0.1 = 1,000, past the range of cosh.
    lam = {"lambda": [{"word": "A", "weight": 1e4}], "mu": [{"word": "B", "weight": 1.0}]}
    config = _write_config(tmp_path / "cfg.json", multicurves=lam)
    assert _run(tmp_path, "transition", config)[0] == EXIT_NUMERICAL
    assert _run(tmp_path, "export-surface", config, "--grid=-0.1")[0] == EXIT_NUMERICAL


def test_double_cone_angle_table(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "double", config)
    assert code == EXIT_OK
    with (out / "cone_angles.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    table = {
        (row["geometry"], float(row["t"])): float(row["cone_angle"]) for row in rows
    }
    assert table[("hyperbolic", 0.1)] == pytest.approx(
        2.0 * (math.pi - 0.1), abs=TOL_READBACK
    )
    assert table[("anti_de_sitter", 0.1)] == pytest.approx(-0.2, abs=TOL_READBACK)
    assert table[("half_pipe", 0.1)] == pytest.approx(-0.2, abs=TOL_READBACK)
    geometries = {row["geometry"] for row in rows}
    assert geometries == {"hyperbolic", "anti_de_sitter", "half_pipe"}


@pytest.mark.parametrize("grid", ("1.6,2.0", "1.0,1.6"))
def test_double_hyperbolic_rows_past_a_quarter_turn(tmp_path, grid):
    # Bending by t * 1.0 > pi/2 leaves the hyperbolic cone angle 2 * (pi - t) below pi.
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "double", config, "--grid", grid)
    assert code == EXIT_OK
    with (out / "cone_angles.csv").open() as handle:
        rows = [row for row in csv.DictReader(handle) if row["geometry"] == "hyperbolic"]
    assert len(rows) == 2
    for row in rows:
        assert float(row["cone_angle"]) == pytest.approx(2.0 * (math.pi - float(row["t"])), abs=TOL_READBACK)


def test_double_with_a_hyperbolic_bending_angle_of_pi_or_more_exits_2(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "double", config, "--grid", "0.1,4.0")
    assert code == EXIT_CONFIG
    assert not (out / "cone_angles.csv").exists()


@pytest.mark.parametrize("weight, t", [(1.0, math.pi), (50.0, 0.2), (0.5, 2.0 * math.pi)])
def test_double_refuses_the_bending_angles_the_cone_table_refuses_with_their_numbers(tmp_path, capsys, weight, t):
    config = _write_config(tmp_path / "cfg.json", multicurves={"lambda": [{"word": "A", "weight": weight}]})
    code, out = _run(tmp_path, "double", config, "--grid", f"0.01,{t!r}")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"value {t!r} times the weight {weight!r}" in err and f"is {t * weight!r}" in err
    assert not out.exists()
    # The library refuses the same slice with its own GeometryError.
    lam = WeightedMulticurve.single("A", weight)
    with pytest.raises(GeometryError, match="must stay below pi"):
        meridian_cone_angles(build_punctured_torus(TeichPoint(3.0, 3.0, 3.0)), lam, (0.11, 0.07), [(HYP, t)])


def test_double_rejects_nonpositive_grid(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, _ = _run(tmp_path, "double", config, "--grid", "0.1,-0.1")
    assert code == EXIT_CONFIG


def test_export_surface_vertices_and_lines(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "export-surface", config, "--grid", "0.1")
    assert code == EXIT_OK
    scene = json.loads((out / "scene.json").read_text())
    assert scene["metadata"]["geometry"] == "hyperbolic"
    assert scene["metadata"]["t"] == 0.1
    assert scene["metadata"]["chart"] == "x0=1"
    assert len(scene["vertices"]) == 40
    assert scene["polylines"]
    for x, y, h in scene["vertices"]:
        assert x * x + y * y + h * h < 1.0 + 1e-10
    heights = [abs(v[2]) for v in scene["vertices"]]
    assert max(heights) > 1e-4  # the bent surface leaves the equatorial plane


def test_export_surface_refuses_a_grid_of_more_than_one_value(tmp_path, capsys):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path / "flag", "export-surface", config, "--grid", "0.1,7")
    assert code == EXIT_CONFIG and not out.exists()
    assert "[0.1, 7.0]" in capsys.readouterr().err
    code, out = _run(tmp_path / "field", "export-surface", _write_config(tmp_path / "two.json", grid=[0.1, 0.2]))
    assert code == EXIT_CONFIG and not out.exists()
    assert "[0.1, 0.2]" in capsys.readouterr().err
    # One value in the config field is the same scene as on the command line.
    _, flag = _run(tmp_path / "a", "export-surface", config, "--grid", "0.1")
    _, field = _run(tmp_path / "b", "export-surface", _write_config(tmp_path / "one.json", grid=[0.1]))
    assert (flag / "scene.json").read_bytes() == (field / "scene.json").read_bytes()


def test_kerckhoff_takes_no_grid_option(tmp_path, capsys):
    config = _write_config(tmp_path / "cfg.json")
    for grid in ("0.1", "abc"):
        with pytest.raises(SystemExit) as info:
            _run(tmp_path, "kerckhoff", config, "--grid", grid)
        assert info.value.code == EXIT_CONFIG, grid
        assert "--grid" in capsys.readouterr().err
    assert _run(tmp_path, "kerckhoff", config)[0] == EXIT_OK


@pytest.mark.parametrize(
    "lam, mu, slopes",
    [("A", "A", "(1, 0) and (1, 0)"), ("A", "a", "(1, 0) and (-1, 0)"), ("AB", "AB", "(1, 1) and (1, 1)")],
)
def test_kerckhoff_refuses_a_pair_that_does_not_fill(tmp_path, capsys, lam, mu, slopes):
    # Such a pair has no length minimum; the search used to take 28 Newton
    # steps and exit 3.
    multicurves = {"lambda": [{"word": lam, "weight": 1.0}], "mu": [{"word": mu, "weight": 1.0}]}
    code, out = _run(tmp_path, "kerckhoff", _write_config(tmp_path / "cfg.json", multicurves=multicurves))
    assert code == EXIT_CONFIG and not out.exists()
    err = capsys.readouterr().err
    assert f"slopes {slopes}" in err and "|ps - qr| is 0" in err


def test_export_surface_flat_at_zero(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "export-surface", config, "--grid", "0")
    assert code == EXIT_OK
    scene = json.loads((out / "scene.json").read_text())
    assert scene["metadata"]["geometry"] == "half_pipe"
    assert all(v[2] == 0.0 for v in scene["vertices"])
    assert all(p[2] == 0.0 for line in scene["polylines"] for p in line)


def test_export_surface_negative_t_uses_ads_chart(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, "export-surface", config, "--grid", "-0.1")
    assert code == EXIT_OK
    scene = json.loads((out / "scene.json").read_text())
    assert scene["metadata"]["geometry"] == "anti_de_sitter"
    for x, y, h in scene["vertices"]:
        assert x * x + y * y - h * h < 1.0 + 1e-10


def test_outputs_are_byte_identical_across_runs(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    _, out_a = _run(tmp_path / "a", "export-surface", config, "--grid", "0.1", "--seed", "7")
    _, out_b = _run(tmp_path / "b", "export-surface", config, "--grid", "0.1", "--seed", "7")
    assert (out_a / "scene.json").read_bytes() == (out_b / "scene.json").read_bytes()

    _, tr_a = _run(tmp_path / "c", "transition", config)
    _, tr_b = _run(tmp_path / "d", "transition", config)
    for name in ("transition_summary.json", "transition_00_A.json"):
        assert (tr_a / name).read_bytes() == (tr_b / name).read_bytes()

    _, db_a = _run(tmp_path / "e", "double", config)
    _, db_b = _run(tmp_path / "f", "double", config)
    assert (db_a / "cone_angles.csv").read_bytes() == (db_b / "cone_angles.csv").read_bytes()


def test_consecutive_runs_do_not_share_options(tmp_path):
    config = _write_config(tmp_path / "cfg.json", words=["A"])
    grid = "0.1,-0.1,0.01,-0.01,0.001,-0.001"
    code, out = _run(tmp_path / "a", "transition", config, "--seed", "5", "--grid", grid, "--tol", "1e-3")
    assert code == EXIT_OK
    summary = json.loads((out / "transition_summary.json").read_text())
    assert (summary["seed"], summary["tolerance"], len(summary["grid"])) == (5, 1e-3, 6)
    code, out = _run(tmp_path / "b", "transition", config)
    assert code == EXIT_OK
    summary = json.loads((out / "transition_summary.json").read_text())
    assert (summary["seed"], summary["tolerance"], len(summary["grid"])) == (0, 1e-6, 8)
    code, out = _run(tmp_path / "c", "export-surface", config, "--seed", "3", "--grid", "-0.1")
    assert code == EXIT_OK
    scene = json.loads((out / "scene.json").read_text())
    assert (scene["seed"], scene["metadata"]["geometry"]) == (3, "anti_de_sitter")
    _, out = _run(tmp_path / "d", "export-surface", config)
    scene = json.loads((out / "scene.json").read_text())
    assert (scene["seed"], scene["metadata"]["geometry"]) == (0, "hyperbolic")


def test_seed_is_recorded_in_outputs(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    _, out = _run(tmp_path, "export-surface", config, "--grid", "0.1", "--seed", "11")
    scene = json.loads((out / "scene.json").read_text())
    assert scene["seed"] == 11


@pytest.mark.parametrize("command", sorted(FIRST_REPORTS))
def test_negative_seed_exits_2(tmp_path, capsys, command):
    config = _write_config(tmp_path / "cfg.json")
    code, out = _run(tmp_path, command, config, "--seed", "-3")
    assert code == EXIT_CONFIG and not out.exists()
    assert "--seed must be a non-negative integer; got -3" in capsys.readouterr().err


def test_export_surface_refuses_more_than_max_samples(tmp_path, capsys):
    for samples in (10**12, MAX_SAMPLES + 1):
        config = _write_config(tmp_path / f"cfg{samples}.json", samples=samples)
        code, out = _run(tmp_path / str(samples), "export-surface", config)
        assert code == EXIT_CONFIG and not out.exists()
        assert f"got {samples}" in capsys.readouterr().err


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    config = _write_config(tmp_path / "cfg.json")
    taken = tmp_path / "a-file"
    taken.write_text("")
    for command, report in FIRST_REPORTS.items():
        # --out names an existing file
        assert main([command, "--config", str(config), "--out", str(taken)]) == EXIT_CONFIG, command
        assert f"cannot write output {taken / report}" in capsys.readouterr().err
        # a directory stands where the report goes
        out = tmp_path / command
        (out / report).mkdir(parents=True)
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG, command
        assert f"cannot write output {out / report}" in capsys.readouterr().err


def test_reports_overwrite_longer_files_in_place(tmp_path):
    config = _write_config(tmp_path / "cfg.json")
    umask = os.umask(0o002)
    try:
        probe = tmp_path / "probe.txt"
        probe.write_text("")
        new_file_mode = stat.S_IMODE(probe.stat().st_mode)
        assert new_file_mode == 0o664
        for command in FIRST_REPORTS:
            code, fresh = _run(tmp_path / command / "fresh", command, config)
            assert code == EXIT_OK, command
            names = sorted(path.name for path in fresh.iterdir())
            assert all(stat.S_IMODE((fresh / name).stat().st_mode) == new_file_mode for name in names), command
            stale = tmp_path / command / "stale" / "out"
            stale.mkdir(parents=True)
            inodes = {}
            for name in names:
                (stale / name).write_bytes(b"x" * ((fresh / name).stat().st_size + 4096))
                inodes[name] = (stale / name).stat().st_ino
            code, out = _run(tmp_path / command / "stale", command, config)
            assert code == EXIT_OK, command
            assert sorted(path.name for path in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (fresh / name).read_bytes(), (command, name)
                assert (out / name).stat().st_ino == inodes[name], (command, name)
    finally:
        os.umask(umask)

def test_multicurves_other_than_one_simple_curve_exit_2(tmp_path):
    lambdas = (
        [{"word": "AABB", "weight": 0.7}],
        [{"word": "AAbb", "weight": 0.7}],
        [{"word": "AA"}],
        [{"word": "ABabABab"}],
        [{"word": "A", "weight": 1.0}, {"word": "B", "weight": 0.5}],
        [],
    )
    for index, lam in enumerate(lambdas):
        multicurves = {"lambda": lam, "mu": [{"word": "B", "weight": 1.0}]}
        config = _write_config(tmp_path / f"cfg{index}.json", multicurves=multicurves)
        for command in ("transition", "kerckhoff", "double", "export-surface"):
            code, out = _run(tmp_path / f"{index}-{command}", command, config)
            assert code == EXIT_CONFIG, (lam, command)
            assert not out.exists()


# Every numeric config field, with one JSON boolean in it, and the subcommands
# that read it.  Python reads true and false as 1 and 0.
_GENERATORS = build_punctured_torus(TeichPoint(3.0, 3.0, 3.0))
BOOLEAN_FIELDS = (
    ("traces", {"traces": [3.0, True, 3.0]}, sorted(FIRST_REPORTS)),
    (
        "generators",
        {"traces": None, "generators": [_GENERATORS.sl2("A").tolist(), [[True, 0.0], [0.0, 1.0]]]},
        sorted(FIRST_REPORTS),
    ),
    (
        "multicurves.lambda.weight",
        {"multicurves": {"lambda": [{"word": "A", "weight": True}], "mu": [{"word": "B"}]}},
        sorted(FIRST_REPORTS),
    ),
    (
        "multicurves.mu.weight",
        {"multicurves": {"lambda": [{"word": "A"}], "mu": [{"word": "B", "weight": True}]}},
        ["kerckhoff"],
    ),
    ("grid", {"grid": [0.1, -0.1, 0.01, True, 0.001, -0.001]}, ["transition"]),
    ("grid", {"grid": [0.2, True]}, ["double"]),
    ("grid", {"grid": [True]}, ["export-surface"]),
    ("base_point", {"base_point": [False, 0.15]}, ["double", "export-surface"]),
)


@pytest.mark.parametrize(
    "command, field, overrides",
    [
        pytest.param(command, field, overrides, id=f"{command}-{field}")
        for field, overrides, commands in BOOLEAN_FIELDS
        for command in commands
    ],
)
def test_json_booleans_in_number_fields_exit_2(tmp_path, capsys, command, field, overrides):
    config = _write_config(tmp_path / "cfg.json", **overrides)
    cfg = {key: value for key, value in json.loads(config.read_text()).items() if value is not None}
    config.write_text(json.dumps(cfg))
    code, out = _run(tmp_path, command, config)
    assert code == EXIT_CONFIG and not out.exists()
    value = cfg[field] if "." not in field else cfg["multicurves"][field.split(".")[1]][0]["weight"]
    assert f"field '{field}' must hold numbers, not booleans; got {json.dumps(value)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, grid, named",
    [
        ("transition", "5e-309,-5e-309,6e-309,-6e-309,7e-309,-7e-309", "not finite at t = [-5e-309, 5e-309]"),
        ("transition", "5e-320,-5e-320,6e-320,-6e-320,7e-320,-7e-320", "not finite at t = [-5e-320, 5e-320, -6e-320"),
        ("double", "1e-170,2e-170", "grid [1e-170, 2e-170]"),
        ("double", "1e-300,2e-300", "grid [1e-300, 2e-300]"),
        ("double", "1e-320,1e-310", "grid [1e-320, 1e-310]"),
    ],
)
def test_grid_values_too_small_for_the_rescaling_or_the_slope_fit_exit_3(tmp_path, capfd, command, grid, named):
    # The rescaled holonomy's last row, divided by |t|, overflows; the slope
    # fit's column of t values has a norm that underflows to 0.
    config = _write_config(tmp_path / "cfg.json")
    code, _ = _run(tmp_path, command, config, f"--grid={grid}")
    assert code == EXIT_NUMERICAL
    out, err = capfd.readouterr()
    assert out == "" and named in err and "Traceback" not in err


# Config fields for the CLI fuzz test: for each, a strategy of values the CLI
# accepts and one of values it must refuse.  None leaves the field out.
FUZZ_FIELDS = {
    "traces": (
        st.sampled_from([[3.0, 3.0, 3.0], TeichPoint.from_xy(4.0, 5.0).as_array().tolist()]),
        st.sampled_from([
            None, "3,3,3", [3.0, 3.0], [3.0, True, 3.0], [math.nan, 3.0, 3.0], [math.inf] * 3,
            [1.0, 1.0, 1.0], [3.0, 3.0, 4.0], [1e200] * 3,
        ]),
    ),
    "base_point": (
        st.sampled_from([None, [0.11, 0.07], [-0.2, 0.15], [0.0, 0.0]]),
        st.sampled_from(["abc", [0.1], [0.1, 0.2, 0.3], [False, 0.1], [math.nan, 0.0], [math.inf, 0.0], [0.9, 0.9]]),
    ),
    "words": (
        st.one_of(st.none(), st.lists(st.text("ABab", min_size=1, max_size=3), max_size=2)),
        st.sampled_from(["A", [""], ["AX"], [5]]),
    ),
    # Never left out: the default is DEFAULT_SAMPLES, too many for a fuzz case.
    "samples": (st.sampled_from([1, 3]), st.sampled_from([0, -1, 1.5, True, "3", 10**12])),
    "lambda.word": (st.sampled_from(["A", "B", "AB", "Ab", "AAB"]), st.sampled_from(["AA", "ABab", "", "AX", 5])),
    "lambda.weight": (
        st.sampled_from([None, 0.5, 1.0, 50.0, 1e4]), st.sampled_from([0.0, -1.0, math.nan, math.inf, True, "a"])
    ),
    "mu.word": (st.sampled_from(["A", "B", "AB", "Ab"]), st.sampled_from(["AA", "", 5])),
    "mu.weight": (st.sampled_from([None, 1.0, 2.0]), st.sampled_from([-1.0, math.inf, True])),
}
# The fields each subcommand reads, besides the grid and 'multicurves.lambda'.
FUZZ_READS = {
    "transition": {"traces", "words"},
    "kerckhoff": {"traces", "mu.word", "mu.weight"},
    "double": {"traces", "base_point"},
    "export-surface": {"traces", "base_point", "samples"},
}
# Grid values reach the bottom of the float range, where the rescaling and
# the slope fit overflow.
FUZZ_MAGNITUDES = st.sampled_from([5e-324, 1e-310, 1e-170, 1e-3, 0.05, 0.3, 2.0, 4.0])
FUZZ_SIGNED = st.tuples(FUZZ_MAGNITUDES, st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])
FUZZ_GRIDS = st.one_of(
    st.none(),
    st.tuples(*[st.lists(FUZZ_MAGNITUDES, min_size=3, max_size=3, unique=True)] * 2).map(
        lambda sides: [*sides[0], *(-t for t in sides[1])]
    ),
    st.lists(FUZZ_MAGNITUDES, min_size=1, max_size=3, unique=True),
    st.lists(FUZZ_SIGNED, min_size=1, max_size=1),
    st.lists(st.one_of(FUZZ_SIGNED, st.sampled_from([0.0, math.nan, math.inf, True, "x", None])), max_size=7),
    st.sampled_from(["0.1", 0.1]),
)


@st.composite
def fuzz_configs(draw):
    """A config with at most two fields drawn from their refused values, and the names of those fields."""
    broken = draw(st.sets(st.sampled_from(sorted(FUZZ_FIELDS)), max_size=2))
    values = {name: draw(pools[name in broken]) for name, pools in FUZZ_FIELDS.items()}
    cfg = {name: values[name] for name in ("traces", "base_point", "words", "samples") if values[name] is not None}
    grid = draw(FUZZ_GRIDS)
    if grid is not None:
        cfg["grid"] = grid
    cfg["multicurves"] = {
        key: [{"word": values[f"{key}.word"]} | ({} if weight is None else {"weight": weight})]
        for key, weight in (("lambda", values["lambda.weight"]), ("mu", values["mu.weight"]))
    }
    return cfg, broken


def _grid_refused(command: str, cfg: dict) -> bool:
    """Whether a subcommand refuses the config's grid, by the grid alone or with the weight of 'lambda'."""
    grid = cfg.get("grid")
    if grid is None:
        return False
    if not isinstance(grid, list) or not grid:
        return True
    if not all(isinstance(t, float) and math.isfinite(t) for t in grid) or len(set(grid)) != len(grid):
        return True
    if command == "transition":
        return 0.0 in grid or min(sum(t > 0.0 for t in grid), sum(t < 0.0 for t in grid)) < 3
    if command == "double":
        weight = cfg["multicurves"]["lambda"][0].get("weight", 1.0)
        return any(t <= 0.0 for t in grid) or any(t * weight >= math.pi for t in grid)
    return len(grid) != 1


@given(case=fuzz_configs())
@settings(max_examples=120)
def test_fuzzed_configs_exit_with_a_documented_code_and_refusals_exit_2(case):
    cfg, broken = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        for command, reads in FUZZ_READS.items():
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / command)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_THRESHOLD), (command, cfg)
            refused = bool(broken & (reads | {"lambda.word", "lambda.weight"}))
            if command == "kerckhoff":
                if not refused:
                    curves = (WeightedMulticurve.single(cfg["multicurves"][key][0]["word"]) for key in ("lambda", "mu"))
                    refused = filling_advisory(*curves) is not None
            else:
                refused = refused or _grid_refused(command, cfg)
            if refused:
                assert code == EXIT_CONFIG, (command, cfg)
