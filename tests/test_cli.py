import json

import numpy as np
import pytest

from persets import cli, metric


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
    assert len(out["violations"]) == metric.TRIANGLES_LISTED
    assert out["violation_count"] > 10 * metric.TRIANGLES_LISTED
    assert out["error"].startswith(f"{out['violation_count']} axiom violation(s)")


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


def test_compare_usage_error(capsys):
    assert run(["compare", "--a", "only-one.csv"]) == 2


def test_graph_betti(capsys):
    assert run(["graph-betti", "--graph", "glued:3.5,4.5:alpha=0.5",
                "--tuples", "50000", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == 2
    lengths = sorted(c["length"] for c in out["cycles"])
    assert lengths[0] == pytest.approx(3.5, rel=0.02)
    assert lengths[1] == pytest.approx(4.5, rel=0.02)


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


@pytest.mark.parametrize("argv", [
    ["sample", "--space", "s1:lambda=abc"],
    ["sample", "--family", "glued:3.5,x:alpha=0.5"],
    ["sample", "--family", "glued:3.5,4.5"],
    ["graph-betti", "--graph", "treecycles"],
    ["sample", "--space", "disk:m=0"],
    ["sample", "--space", "sphere:m=2.5"],
    ["sample", "--family", "flares:c=6,k=2.7"],
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
                                 '{"vertices": 2, "edges": [["0", 1, 1.0]]}'])
def test_malformed_graph_json_is_validation_error(doc, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(doc)
    assert run(["sample", "--graph", str(path), "--tuples", "10", "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_import_leaves_scipy_out():
    import subprocess
    import sys

    code = "import sys, persets; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "persets.cli", "--help"], capture_output=True, text=True
    )
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
