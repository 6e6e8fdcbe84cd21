import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import persets
from persets import cli, engine, graphs, metric, regions, spaces
from persets.errors import InvalidDescriptor


def run(argv):
    return cli.main(argv)


def test_validate_good_matrix(tmp_path, capsys):
    path = tmp_path / "ok.csv"
    metric.write_matrix_csv(metric.validate([[0, 1], [1, 0]]), path)
    assert run(["validate", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] and out["diameter"] == 1.0


def test_validate_bad_matrix_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,3\n1,0\n")
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any(v[0] == "asymmetry" for v in out["violations"])
    assert out["violation_count"] == 1


def test_validate_lists_at_most_the_cap_of_triangles(tmp_path, capsys):
    # a random symmetric 60-point matrix breaks about n^3/6 triangles
    upper = np.triu(np.random.default_rng(2).random((60, 60)), 1)
    path = tmp_path / "bad.csv"
    metric.write_csv(path, upper + upper.T)
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert len(out["violations"]) == metric.VIOLATIONS_LISTED
    assert out["violation_count"] > 10 * metric.VIOLATIONS_LISTED
    assert out["error"].startswith(f"{out['violation_count']} axiom violation(s)")


def test_validate_lists_at_most_the_cap_of_asymmetric_pairs(tmp_path, capsys):
    a = np.random.default_rng(3).random((200, 200))
    np.fill_diagonal(a, 0.0)
    path = tmp_path / "bad.csv"
    metric.write_csv(path, a)
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert len(out["violations"]) == 1000
    assert {v[0] for v in out["violations"]} == {"asymmetry"}
    assert out["violation_count"] == 200 * 199 // 2 == 19_900
    assert out["error"].startswith("19900 axiom violation(s): asymmetry at (0, 1), ")


def test_sample_campaign_files_and_determinism(tmp_path, capsys):
    args = [
        "sample", "--space", "s1", "--n", "4", "--k", "1",
        "--tuples", "20000", "--seed", "7",
        "--out", str(tmp_path / "a.csv"),
        "--svg", str(tmp_path / "a.svg"),
        "--heatmap", str(tmp_path / "a-heat.svg"),
    ]
    assert run(args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tuples"] == 20000
    assert abs(summary["nontrivial_fraction"] - 1 / 9) < 0.02
    args2 = list(args)
    args2[args.index(str(tmp_path / "a.csv"))] = str(tmp_path / "b.csv")
    assert run(args2) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    a_json = json.loads((tmp_path / "a.csv.json").read_text())
    assert a_json["space"] == "s1" and a_json["seed"] == 7
    assert (tmp_path / "a.svg").read_text().startswith("<svg")
    assert (tmp_path / "a-heat.svg").read_text().count("<rect") > 5


def test_oracle_check_on_circle_sample(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    assert run(["sample", "--space", "s1", "--tuples", "20000", "--seed", "3",
                "--out", str(csv)]) == 0
    capsys.readouterr()
    assert run(["oracle-check", "--region", "s1", "--check", str(csv),
                "--out", str(tmp_path / "flags.csv")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0
    header = (tmp_path / "flags.csv").read_text().splitlines()[0]
    assert header == "t_b,t_d,inside"


def test_oracle_check_catches_outside_points(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_text("t_b,t_d\n0.1,3.0\n")
    assert run(["oracle-check", "--region", "s1", "--check", str(csv)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == 1


def test_compare_regions(capsys):
    assert run(["compare", "--region-a", "s1", "--region-b", "s2-geodesic",
                "--step", "0.005", "--interior-step", "0.02"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gh_lower_bound"] == pytest.approx(0.2147, abs=0.01)


def test_compare_samples(tmp_path, capsys):
    for name, seed in [("a", 1), ("b", 2)]:
        assert run(["sample", "--space", "s1", "--tuples", "30000", "--seed",
                    str(seed), "--out", str(tmp_path / f"{name}.csv")]) == 0
    capsys.readouterr()
    assert run(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]) == 0
    out = json.loads(capsys.readouterr().out)
    # same space, dense samples: tiny Hausdorff gap
    assert out["hausdorff_bottleneck"] < 0.1
    assert out["gh_lower_bound"] == out["hausdorff_bottleneck"] / 2.0


def write_pinned_samples(directory):
    """s1 and sphere:m=2 samples of 2^15 tuples, seeds 11 and 12 (3674 and 4127 points)."""
    paths = []
    for name, space, seed in [("a", "s1", 11), ("b", "sphere:m=2", 12)]:
        sample = engine.sample_persistence_set(spaces.parse_space(space), 4, 1, 1 << 15, seed=seed)
        engine.write_sample(sample, directory / f"{name}.csv")
        paths.append(str(directory / f"{name}.csv"))
    return paths


def test_compare_samples_stdout_is_pinned(tmp_path, capsys):
    # recorded with the cKDTree search that the grid search replaced
    a, b = write_pinned_samples(tmp_path)
    capsys.readouterr()
    assert run(["compare", "--a", a, "--b", b]) == 0
    assert capsys.readouterr().out == ('{"hausdorff_bottleneck": 0.36502377584059365, '
                                       '"gh_lower_bound": 0.18251188792029682, "resolution": 0.0}\n')


@pytest.mark.parametrize("row", ["nan,1.0", "0.5,inf", "-inf,1.0", "2.0,1.0", "1.0,1.0"])
def test_compare_refuses_non_finite_or_inverted_points(row, tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("t_b,t_d\n0.1,3.0\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t_b,t_d\n0.1,3.0\n{row}\n")
    sidecar = '{"tuples": 5, "trivial": 3, "seed": 1, "space": "s1", "n": 4, "k": 1}'
    for csv in (good, bad):
        (tmp_path / f"{csv.name}.json").write_text(sidecar)
    assert run(["compare", "--a", str(good), "--b", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.csv: point 2 " in err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 parsers do."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_cli_prints_strict_json_with_null_for_non_finite_amounts(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("0,1e308\n-1e308,0\n")
    assert run(["validate", str(path)]) == 1
    out = strict_json(capsys.readouterr().out)
    assert out["violations"] == [["negative", [1, 0], -1e308], ["asymmetry", [0, 1], None]]
    path.write_text("0\n")
    assert run(["validate", str(path)]) == 0
    assert strict_json(capsys.readouterr().out)["separation"] is None


def test_compare_usage_error(capsys):
    assert run(["compare", "--a", "only-one.csv"]) == 2


def test_graph_betti(capsys):
    assert run(["graph-betti", "--graph", "glued:3.5,4.5:alpha=0.5",
                "--tuples", "50000", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == 2
    assert out["truncated"] is True  # the library's CornerReport.truncated for this campaign
    lengths = sorted(c["length"] for c in out["cycles"])
    assert lengths[0] == pytest.approx(3.5, rel=0.02)
    assert lengths[1] == pytest.approx(4.5, rel=0.02)


def test_graph_betti_reads_a_graph_file_and_names_a_missing_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    graphs.write_graph_json(graphs.parse_family("wedge:3,4"), "wedge.json")
    argv = ["--tuples", "20000", "--seed", "1"]
    assert run(["graph-betti", "--graph", "wedge:3,4"] + argv) == 0
    from_family = capsys.readouterr().out
    assert run(["graph-betti", "--graph", "wedge.json"] + argv) == 0
    assert capsys.readouterr().out == from_family
    assert run(["graph-betti", "--graph", "missing.json"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2]") and "missing.json" in err


def test_density_check(capsys):
    assert run(["density-check", "--tuples", "150000", "--seed", "11"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l1_error"] < 0.05
    assert out["analytic_mass"] == pytest.approx(1 / 9, abs=1e-6)


def test_help_on_every_subcommand(capsys):
    for sub in ["sample", "oracle-check", "compare", "graph-betti", "density-check", "validate"]:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([sub, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out or sub == "validate"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["sample"])  # missing required source
    assert exc.value.code == 2


def test_missing_file_is_error(capsys):
    assert run(["validate", "no-such-file.csv"]) == 1


def test_workers_env_default(monkeypatch):
    argv = ["graph-betti", "--graph", "wedge:3,4"]
    monkeypatch.setenv("PERSETS_WORKERS", "6")
    assert cli.build_parser().parse_args(argv).workers == 6
    assert cli.build_parser().parse_args(argv + ["--workers", "2"]).workers == 2
    monkeypatch.delenv("PERSETS_WORKERS")
    assert cli.build_parser().parse_args(argv).workers == 1


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_workers_flag_below_one_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--space", "s1", "--workers", value])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_workers_env_below_one_is_usage_error(value, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("PERSETS_WORKERS", value)
    for argv in (["graph-betti", "--graph", "wedge:3,4"], ["density-check"],
                 ["sample", "--space", "s1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "PERSETS_WORKERS" in capsys.readouterr().err
    # commands without --workers never read it
    path = tmp_path / "ok.csv"
    metric.write_matrix_csv(metric.validate([[0, 1], [1, 0]]), path)
    assert run(["validate", str(path)]) == 0


@pytest.mark.parametrize("command, flag, value", [
    (["sample", "--space", "s1"], "--seed", "-1"),
    (["graph-betti", "--graph", "wedge:3,4"], "--seed", "1.5"),
    (["density-check"], "--seed", "-2"),
    (["compare", "--region-a", "s1", "--region-b", "r2"], "--step", "nan"),
    (["compare", "--region-a", "s1", "--region-b", "r2"], "--step", "inf"),
    (["compare", "--region-a", "s1", "--region-b", "r2"], "--interior-step", "0"),
    (["graph-betti", "--graph", "wedge:3.5,4.5"], "--rel-tol", "nan"),
    (["graph-betti", "--graph", "wedge:3.5,4.5"], "--rel-tol", "0"),
    (["graph-betti", "--graph", "wedge:3.5,4.5"], "--min-support", "0"),
    (["oracle-check", "--region", "s1", "--check", "s.csv"], "--tol", "nan"),
    (["oracle-check", "--region", "s1", "--check", "s.csv"], "--tol", "-0.5"),
    (["density-check"], "--threshold", "nan"),
    (["density-check"], "--threshold", "inf"),
    (["sample", "--space", "s1"], "--tuples", "0"),
    (["sample", "--space", "s1"], "--tuples", "-5"),
    (["sample", "--space", "s1"], "--bins", "0"),
    (["sample", "--space", "s1", "--heatmap", "h.svg"], "--bins", "0"),
    (["graph-betti", "--graph", "wedge:3,4"], "--tuples", "0"),
    (["density-check"], "--tuples", "0"),
    (["density-check"], "--bins", "0"),
    (["density-check"], "--bins", "1.5"),
])
def test_bad_numeric_flag_is_usage_error(command, flag, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a value that is wrongly accepted writes its files here
    with pytest.raises(SystemExit) as exc:
        run(command + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err and repr(value) in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_numeric_flags_at_their_bounds_are_accepted():
    parse = cli.build_parser().parse_args
    args = parse(["sample", "--space", "s1", "--seed", "0"])
    assert args.seed == 0 and type(args.seed) is int
    assert parse(["oracle-check", "--region", "s1", "--check", "s.csv", "--tol", "0"]).tol == 0.0
    assert parse(["graph-betti", "--graph", "wedge:3,4", "--min-support", "1"]).min_support == 1
    assert parse(["sample", "--space", "s1", "--seed", str(2**70)]).seed == 2**70


@pytest.mark.parametrize("argv", [
    ["sample", "--space", "s1:lambda=abc"],
    ["sample", "--space", "glued:3.5,x:alpha=0.5"],
    ["sample", "--space", "glued:3.5,4.5"],
    ["graph-betti", "--graph", "treecycles"],
    ["sample", "--space", "disk:m=0"],
    ["sample", "--space", "sphere:m=2.5"],
    ["sample", "--space", "flares:c=6,k=2.7"],
    ["sample", "--space", "s1", "--n", "0", "--k", "-1"],
])
def test_bad_descriptor_is_validation_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a descriptor that is wrongly accepted writes sample.csv here
    assert run(argv + ["--tuples", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert argv[-1] in err


@pytest.mark.parametrize("region", ["s1:k=abc", "s1:k=1.5", "s1:k=0", "sphere-e:m=2.5"])
def test_bad_region_is_validation_error(region, tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_text("t_b,t_d\n2.0,2.5\n")  # inside the s1 and sphere-e regions
    assert run(["oracle-check", "--region", region, "--check", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and region in err


@pytest.mark.parametrize("flag, text, key", [
    ("--space", "sphere:mm=5", "mm"),
    ("--space", "s1:lamda=2", "lamda"),
    ("--region", "s1:lamda=2", "lamda"),
    ("--region", "r2:kappa=1", "kappa"),
    ("--space", "treecycles:6,8:edg=0.1", "edg"),
    ("--space", "flares:c=6,k=2,width=3", "width"),
    ("--space", "torus:m=3", "m"),
    ("--region", "ptolemaic:cap=2:m=3", "m"),
])
def test_unknown_descriptor_key_is_validation_error(flag, text, key, tmp_path, monkeypatch, capsys):
    parse = regions.parse_region if flag == "--region" else engine.space_of
    with pytest.raises(InvalidDescriptor, match=f"unknown option '{key}' in {re.escape(repr(text))}"):
        parse(text)
    monkeypatch.chdir(tmp_path)  # a key that is wrongly dropped writes sample.csv here
    csv = tmp_path / "s.csv"
    csv.write_text("t_b,t_d\n2.0,2.5\n")
    argv = (["oracle-check", "--region", text, "--check", str(csv)] if flag == "--region"
            else ["sample", "--space", text, "--tuples", "10"])
    assert run(argv) == 1
    assert f"unknown option '{key}'" in capsys.readouterr().err


def test_validate_ragged_matrix_is_invalid(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1\n1,0,2\n")
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["violations"] == [] and out["violation_count"] == 0


def test_validate_json_missing_key_is_invalid(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 2}\n')
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and "'d'" in out["error"]


@pytest.mark.parametrize("doc", ['{"vertices": 2}', '{"vertices": 2, "edges": [[0, 1]]}', "[2",
                                 '{"vertices": 1.5, "edges": [[0, 0, 1.0]]}',
                                 '{"vertices": 2, "edges": [[0, 1.5, 1.0]]}',
                                 '{"vertices": 2, "edges": [[0, true, 1.0]]}',
                                 '{"vertices": 2, "edges": [["0", 1, 1.0]]}',
                                 '{"vertices": 2, "edges": [[0, 1, Infinity]]}',
                                 '{"vertices": 2, "edges": [[0, 1, 1e308], [0, 1, 1e308]]}',
                                 '{"vertices": 1, "edges": []}',
                                 '{"vertices": 2, "edges": [[0, 1, true], [0, 1, "2.5"]]}',
                                 '{"vertices": 2, "edges": [[0, 1, "2.5"]]}',
                                 '{"vertices": 2, "edges": [[0, 1, 1%s]]}' % ("0" * 400)])
def test_malformed_graph_json_is_validation_error(doc, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(doc)
    assert run(["sample", "--space", str(path), "--tuples", "10", "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_oracle_check_non_numeric_sample(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_text("t_b,t_d\n0.1,abc\n")
    assert run(["oracle-check", "--region", "s1", "--check", str(csv)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_compare_needs_the_sidecar(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_text("t_b,t_d\n0.1,3.0\n")
    assert run(["compare", "--a", str(csv), "--b", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "s.csv.json" in err


@pytest.mark.parametrize("sidecar", ["{}", "not json", '{"tuples": 5, "trivial": 4, "seed": 1}',
                                     '{"tuples": "x", "trivial": 4, "seed": 1, "space": "s1", '
                                     '"n": 4, "k": 1}',
                                     '{"tuples": 5.7, "trivial": 4, "seed": 1, "space": "s1", "n": 4, "k": 1}',
                                     '{"tuples": 5, "trivial": true, "seed": 1, "space": "s1", "n": 4, "k": 1}',
                                     '{"tuples": 5, "trivial": 4, "seed": "1", "space": "s1", "n": 4.5, "k": 1}'])
def test_compare_refuses_a_malformed_sidecar(sidecar, tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_text("t_b,t_d\n0.1,3.0\n")
    (tmp_path / "s.csv.json").write_text(sidecar)
    assert run(["compare", "--a", str(csv), "--b", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "s.csv.json" in err


def test_sample_out_json_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--space", "s1", "--tuples", "10", "--out", str(tmp_path / "s.csv"),
             "--out-json", str(tmp_path / "side.json")])
    assert exc.value.code == 2


def run_python(*args, check=False):
    """A fresh interpreter started next to the persets package under test, so it imports that one."""
    src = os.path.dirname(os.path.dirname(persets.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check, cwd=src)


def test_import_leaves_scipy_out(tmp_path):
    scipy_modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    proc = run_python("-c", f"import sys, persets; print({scipy_modules})", check=True)
    assert proc.stdout.strip() == "[]"
    # nor does comparing two samples load it
    a, b = write_pinned_samples(tmp_path)
    code = f"import sys; from persets import cli; cli.main(['compare', '--a', {a!r}, '--b', {b!r}]); print({scipy_modules})"
    proc = run_python("-c", code, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert strict_json(proc.stdout.splitlines()[0])["hausdorff_bottleneck"] == 0.36502377584059365


def test_import_loads_only_what_sample_runs(tmp_path):
    # the package root re-exports nothing, each other command imports its own
    # modules, and the process pool is imported only for --workers > 1
    loaded = ("print([m in sys.modules for m in ('persets.engine', 'persets.metric', 'persets.spaces', "
              "'persets.graphs', 'persets.regions', 'persets.diagram_metrics', 'persets.graph_analysis', "
              "'concurrent.futures.process')])")
    want = "[True, True, True, True, False, False, False, False]"
    proc = run_python("-c", f"import sys, persets, persets.cli; {loaded}", check=True)
    assert proc.stdout.strip() == want
    out = str(tmp_path / "s.csv")
    code = f"import sys, persets.cli; persets.cli.main(['sample', '--space', 's1', '--tuples', '100', '--out', {out!r}]); {loaded}"
    proc = run_python("-c", code, check=True)
    assert proc.stdout.splitlines()[-1] == want


def test_console_script_entry_point():
    proc = run_python("-m", "persets.cli", "--help")
    assert proc.returncode == 0
    assert "sample" in proc.stdout and "graph-betti" in proc.stdout


def test_engine_accepts_string_descriptors():
    from persets import engine

    s = engine.sample_persistence_set("s1", 4, 1, 2000, seed=1)
    assert s.space == "s1"
    g = engine.sample_persistence_set("wedge:3.2,4.0", 4, 1, 2000, seed=1)
    assert g.space.startswith("graph:")


def test_engine_string_descriptor_errors_name_the_space():
    from persets import engine
    from persets.errors import InvalidDescriptor

    with pytest.raises(InvalidDescriptor, match="'s1:lambda=abc'") as exc:
        engine.sample_persistence_set("s1:lambda=abc", 4, 1, 10, seed=1)
    assert "graph family" not in str(exc.value)
    with pytest.raises(InvalidDescriptor, match="unknown space 'klein'"):
        engine.sample_persistence_set("klein", 4, 1, 10, seed=1)


@pytest.mark.parametrize("doc", ['{"n": 1.5, "d": [0]}', '{"n": true, "d": [0]}', '{"n": "1", "d": [0]}'])
def test_validate_json_fractional_n_is_invalid(doc, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(doc)
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and "whole number" in out["error"]


@pytest.mark.parametrize("doc", ['{"n": 2, "d": [0, true, "1", 0]}', '{"n": 2, "d": [0, 1%s, 1, 0]}' % ("0" * 400)])
def test_validate_json_entry_that_is_not_a_number_is_invalid(doc, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(doc)
    assert run(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and "expected a number" in out["error"] and out["violation_count"] == 0


def test_sample_off_the_principal_path_runs_the_oracle(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["sample", "--space", "s1", "--n", "5", "--k", "1", "--tuples", "1500", "--seed", "17",
                "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["nontrivial_fraction"] == (1500 - 1125) / 1500
    assert json.loads((tmp_path / "s.csv.json").read_text())["n"] == 5
    # the oracle's limits are checked, and named, before anything is drawn
    assert run(["sample", "--space", "s1", "--n", "3", "--k", "5", "--tuples", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n=3, k=5:") and "max_dim" not in err


def test_sample_space_takes_a_graph_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    graphs.write_graph_json(graphs.parse_family("wedge:3,4"), "wedge.json")
    argv = ["--tuples", "3000", "--seed", "1"]
    assert run(["sample", "--space", "wedge:3,4", "--out", "family.csv"] + argv) == 0
    assert run(["sample", "--space", "wedge.json", "--out", "file.csv"] + argv) == 0
    assert (tmp_path / "family.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


def test_sample_space_takes_a_distance_matrix_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pts = np.random.default_rng(5).standard_normal((40, 3))
    metric.write_matrix_csv(metric.validate(np.linalg.norm(pts[:, None] - pts[None], axis=-1)), "m.csv")
    assert run(["sample", "--space", "m.csv", "--tuples", "5000", "--seed", "3", "--out", "cli.csv"]) == 0
    space = engine.FiniteSpace(metric.read_matrix_csv("m.csv"))
    engine.write_sample(engine.sample_persistence_set(space, 4, 1, 5000, 3), "lib.csv")
    for suffix in ("", ".json"):
        assert (tmp_path / f"cli.csv{suffix}").read_bytes() == (tmp_path / f"lib.csv{suffix}").read_bytes()
    assert json.loads((tmp_path / "cli.csv.json").read_text())["space"] == "finite:40"


def test_sample_space_refuses_a_non_metric_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("0,1,5\n1,0,1\n5,1,0\n")
    assert run(["sample", "--space", "bad.csv", "--tuples", "10", "--out", "s.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: 2 axiom violation(s): triangle at (0, 1, 2)")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [["--family", "wedge:3,4"], ["--graph", "wedge.json"],
                                  ["--space", "s1", "--oracle-fallback"]])
def test_sample_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a flag that is wrongly accepted writes sample.csv here
    graphs.write_graph_json(graphs.parse_family("wedge:3,4"), "wedge.json")
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--tuples", "10"] + argv)
    assert exc.value.code == 2


def test_compare_refuses_a_non_principal_sample(tmp_path, capsys):
    for name, n in (("a.csv", "6"), ("b.csv", "4")):
        assert run(["sample", "--space", "s1", "--n", n, "--k", "1", "--tuples", "1000", "--seed", "2",
                    "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert run(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a.csv" in err and "n=6, k=1" in err


def test_readme_cli_lines_parse():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("persets ")]
    assert len(lines) >= 7
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
