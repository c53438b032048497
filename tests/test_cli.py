import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from looptl.cli import (EXIT_CAPACITY, EXIT_CONFIG, EXIT_INTERNAL,
                        EXIT_INVARIANT, EXIT_OK, EXIT_ORACLE, main,
                        report_bundle)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tl_diagrams(capsys):
    code, out, _ = _run(capsys, "tl", "diagrams", "--n", "4")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert rep["count"] == rep["catalan"] == 14


def test_tl_ideal_reports_dimensions_per_grade(capsys):
    code, out, _ = _run(capsys, "tl", "ideal", "--ell", "1", "--nmax", "4")
    assert code == EXIT_OK
    grades = json.loads(out)["results"][0]["grades"]
    assert [g["grade"] for g in grades] == [1, 2, 3, 4]
    assert [g["radical_dim"] for g in grades] == [0, 1, 4, 13]
    assert [g["ideal_dim"] for g in grades] == [0, 1, 4, 13]


def test_annulus_beta_selects_shifted_full_at_level_3(capsys):
    code, out, _ = _run(capsys, "annulus", "beta", "--ell", "3")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert (rep["convention"], rep["sector"]) == ("shifted", "full")
    even = rep["results"]["shifted/even"]
    assert (even["orthogonal"], even["idempotent"]) == (True, True)
    assert even["betas"] == [["1", "delta"], ["1", "-delta+1"], []]
    assert even["scalars"] == {"0": "delta+2", "1": "-delta+3"}


@pytest.mark.parametrize("ell,grade_cap", [(1, None), (2, None), (1, 5)])
def test_annulus_ideal_reports_the_serialized_generator(capsys, ell,
                                                        grade_cap):
    from looptl.annular import annular_ideal, generator_roots
    from looptl.scalars import serialize_scalar
    argv = ["annulus", "ideal", "--ell", str(ell)]
    if grade_cap is not None:
        argv += ["--grade-cap", str(grade_cap)]
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    want_cap = ell + 2 if grade_cap is None else grade_cap
    ideal = annular_ideal(ell, want_cap)
    assert rep["grade_cap"] == want_cap
    assert rep["generator"] == [serialize_scalar(c)
                                for c in ideal.generator.coeffs]
    assert rep["roots"] == generator_roots(ideal)


def test_tl_gram_corank(capsys, tmp_path):
    code, out, _ = _run(capsys, "--out", str(tmp_path),
                        "tl", "gram", "--n", "3", "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "report.json").read_text())["results"][0]
    assert rep["corank"] == 1
    csv_rows = (tmp_path / "gram_n3_ell2.csv").read_text().splitlines()
    assert rep["csv"] == str(tmp_path / "gram_n3_ell2.csv")
    assert csv_rows == [",".join(row) for row in rep["matrix"]]


def test_tl_gram_report_matches_entry_by_entry_serialization(capsys):
    from looptl.cli import _json
    from looptl.linalg import rank
    from looptl.scalars import serialize_scalar
    from looptl.tlcat import gram_matrix
    code, out, _ = _run(capsys, "tl", "gram", "--n", "4", "--ell", "2")
    assert code == EXIT_OK
    _, g = gram_matrix(4, 4, backend="special", ell=2)
    r = rank(g)
    want = report_bundle([{
        "command": "tl", "action": "gram", "n": 4, "size": len(g),
        "rank": r, "corank": len(g) - r,
        "matrix": [[serialize_scalar(x) for x in row] for row in g]}])
    want["wall_clock_seconds"] = json.loads(out)["wall_clock_seconds"]
    assert out == _json(want) + "\n"


# sha256 of the stdout, wall clock masked, as `tl jw` printed it when the
# projectors were built by the two-sided Wenzl relation
_JW_STDOUT_SHA256 = {
    ("--k", "6"):
        "97684a1b6ab2da9d5c5728277c7023681768fbb30c789aab63f04155bcfa0bc2",
    ("--backend", "special", "--ell", "4", "--k", "5"):
        "ce8ba7240eb37d43bc07272b089112eb859c70f90c052c20f1c50de0e94669d5",
}


@pytest.mark.parametrize("flags", list(_JW_STDOUT_SHA256),
                         ids=["generic-k6", "special-ell4-k5"])
def test_tl_jw_stdout_is_pinned(capsys, flags):
    import hashlib
    import re
    code, out, _ = _run(capsys, "tl", "jw", *flags)
    assert code == EXIT_OK
    masked, count = re.subn(r'"wall_clock_seconds": [-+.0-9eE]+',
                            '"wall_clock_seconds": 0', out)
    assert count == 1
    assert hashlib.sha256(masked.encode()).hexdigest() == \
        _JW_STDOUT_SHA256[flags]


# sha256 of the stdout, wall clock and census seconds masked, as the gas,
# annulus and lattice layers printed it before their forwarders and unread
# options were deleted
_STDOUT_SHA256 = {
    ("gas", "exact", "--torus", "2x2", "--ell", "2"):
        "4f5bff5817407c26f96a6f8f32c0e2bdc534b04b62b355f4b65eebc3ac3cf8ea",
    # past the state cap: C from the census kernel and dict tallies
    ("gas", "sample", "--torus", "4x3", "--sweeps", "200", "--seed", "1"):
        "a9726af9c477b4a15392d7d4a389cb7960cdd94f8b60150388f1b1916cfe1f17",
    # the beta report as pinned before, plus its one added line
    # "generator_vanishes_on_family": true
    ("annulus", "beta", "--ell", "3"):
        "341352bac120b96da52d7b240c80581800ffc7f4e1ae74d307ef44e988b31a1e",
    ("lattice", "energy", "--torus", "2x2", "--ell", "2"):
        "4cc4f3701604143f5735d6b35cb3afcfbacb5be1bf2ac954554ad72c773a0216",
    # as printed while the GF(p) oracle carried factors mod p and the
    # component walk merged its states with np.union1d, plus the two
    # added fields "orbits" and "group_order" (29184 and 9 on the
    # torus, 64 and 9 on the hex torus); without them the digests were
    # a0bd3267... and 4dd62bcd...
    ("lattice", "kernel", "--torus", "3x3", "--ell", "2"):
        "be2b2ac7063fca81b7a78529f4e98469da11141c685ae53ffdf51bc7d1b1aef6",
    ("lattice", "kernel", "--hex", "3x3", "--ell", "3"):
        "1c6ad59d4cc8f3ed91e5b5a977e6badb58f5dd1f0e26984c014bc1f725846c1a",
    ("lattice", "components", "--torus", "3x3"):
        "6ceb19f1edbd303a54c99fe544e51d689b658af05808a24aea379cfccaae05bc",
}


@pytest.mark.parametrize("argv", list(_STDOUT_SHA256),
                         ids=["gas-exact", "gas-sample-past-cap",
                              "annulus-beta", "lattice-energy",
                              "lattice-kernel-torus", "lattice-kernel-hex",
                              "lattice-components"])
def test_stdout_is_pinned(capsys, monkeypatch, argv):
    import hashlib
    import re
    from looptl import lattice
    # a cold census cache, so "cached" reads false whatever ran before
    monkeypatch.setattr(lattice, "_CENSUS_CACHE", {})
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    masked, count = re.subn(r'"wall_clock_seconds": [-+.0-9eE]+',
                            '"wall_clock_seconds": 0', out)
    assert count == 1
    masked, count = re.subn(r'"seconds": [-+.0-9eE]+', '"seconds": 0',
                            masked)
    assert count == (argv[0] == "gas")
    assert hashlib.sha256(masked.encode()).hexdigest() == \
        _STDOUT_SHA256[argv]


@pytest.mark.parametrize("n,ell,size,rank", [(0, 1, 1, 1), (3, 2, 5, 4)])
def test_tl_gram_stdout_is_one_json_report(capsys, n, ell, size, rank):
    code, out, _ = _run(capsys, "tl", "gram", "--n", str(n),
                        "--ell", str(ell))
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert (rep["size"], rep["rank"]) == (size, rank)
    assert "csv" not in rep
    matrix = rep["matrix"]
    assert len(matrix) == size and all(len(row) == size for row in matrix)
    assert all(isinstance(x, str) for row in matrix for x in row)
    assert matrix == [list(row) for row in zip(*matrix)]


@pytest.mark.parametrize("argv,key,rows", [
    (("table", "fig02", "--ellmax", "3"), "levels", 3),
    (("table", "smatrix", "--ell", "2"), "matrix", 3),
], ids=["fig02", "smatrix"])
def test_table_stdout_is_one_json_report(capsys, tmp_path, argv, key, rows):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert "csv" not in rep and len(rep[key]) == rows
    # with --out the CSV holds the report's table
    code, _, _ = _run(capsys, "--out", str(tmp_path), *argv)
    assert code == EXIT_OK
    saved = json.loads((tmp_path / "report.json").read_text())["results"][0]
    csv_rows = [line.split(",") for line in
                open(saved["csv"]).read().splitlines()]
    if key == "levels":
        header = csv_rows.pop(0)
        assert [dict(zip(header, r)) for r in csv_rows] == [
            {k: str(v) for k, v in r.items()} for r in saved["levels"]]
        assert [r["ell"] for r in saved["levels"]] == [1, 2, 3]
    else:
        assert csv_rows == [["%.12g" % x for x in r]
                            for r in saved["matrix"]]
    assert saved[key] == rep[key]


@pytest.mark.parametrize("argv,backend", [
    (("tl", "jw", "--k", "3"), "generic"),
    (("tl", "jw", "--backend", "special", "--ell", "2", "--k", "3"),
     "special"),
    (("tl", "diagrams", "--n", "3"), None),
    (("tl", "gram", "--n", "3", "--ell", "2"), None),
    (("tl", "radical", "--n", "3", "--ell", "2"), None),
    (("tl", "ideal", "--ell", "2", "--nmax", "3"), None),
], ids=["jw-generic", "jw-special", "diagrams", "gram", "radical", "ideal"])
def test_only_tl_jw_reports_a_backend(capsys, tmp_path, argv, backend):
    code, _, _ = _run(capsys, "--out", str(tmp_path), *argv)
    assert code == EXIT_OK
    bundle = json.loads((tmp_path / "report.json").read_text())
    assert "backend" not in bundle
    assert bundle["results"][0].get("backend") == backend


def test_table_fig02(capsys):
    code, out, _ = _run(capsys, "table", "fig02", "--ellmax", "3")
    assert code == EXIT_OK
    assert "even_restriction_rank" in out


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["table", "fig02", "--ellmax", "2"])
    assert code == EXIT_OK
    # what stdout still holds is flushed to devnull at exit
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_quietly(unbuffered):
    # a real pipe whose reader is gone: the report's write or flush and
    # the flush at interpreter exit all meet EPIPE, and none may reach
    # stderr or change the exit code
    import looptl
    src = os.path.dirname(os.path.dirname(looptl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "looptl.cli", "table", "fig02",
             "--ellmax", "2"], stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


@pytest.mark.parametrize("argv", [
    ("tl", "diagrams", "--n", "15"),
    ("tl", "gram", "--n", "9", "--ell", "2"),
    ("tl", "radical", "--n", "9", "--ell", "2"),
    ("tl", "ideal", "--nmax", "9", "--ell", "1"),
    ("tl", "jw", "--k", "15"),
], ids=["diagrams-15", "gram-9", "radical-9", "ideal-9", "jw-15"])
def test_tl_past_diagram_cap_is_capacity_error(capsys, monkeypatch, argv):
    from looptl import tlcat

    def no_diagrams(*args):
        raise RuntimeError("a diagram was built before the cap check")
    # the cap is checked before any diagram is built
    monkeypatch.setattr(tlcat, "Diagram", no_diagrams)
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CAPACITY
    assert out == ""
    rep = json.loads(err)
    assert (rep["error"], rep["type"]) == ("capacity", "StateSpaceTooLarge")


def test_lattice_energy_serializes_exact_scalar(capsys):
    code, out, _ = _run(capsys, "lattice", "energy", "--torus", "2x2",
                        "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert rep["uniform_state_energy_exact"] == "2*delta+3"


def test_gas_exact_carries_flags(capsys):
    code, out, _ = _run(capsys, "gas", "exact", "--torus", "2x2",
                        "--ell", "3")
    assert code == EXIT_OK
    bundle = json.loads(out)
    assert any("5.6" in f for f in bundle.get("flags", []))


def test_gas_sample_deterministic(capsys):
    args = ("gas", "sample", "--torus", "2x2", "--ell", "2",
            "--sweeps", "500", "--seed", "13", "--tv")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    r1 = json.loads(out1)["results"][0]
    r2 = json.loads(out2)["results"][0]
    assert r1["tv_distance"] == r2["tv_distance"]
    assert r1["mean_loops"] == r2["mean_loops"]


def test_gas_sample_out_writes_one_csv_row_per_measured_sweep(capsys,
                                                              tmp_path):
    from looptl.gas import metropolis_sample, potts_params
    from looptl.lattice import SquareTorusLattice
    code, _, _ = _run(capsys, "--out", str(tmp_path), "gas", "sample",
                      "--torus", "2x2", "--sweeps", "500", "--seed", "3")
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "report.json").read_text())["results"][0]
    path = tmp_path / "chain_seed3.csv"
    assert rep["csv"] == str(path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["sweep", "loops", "clusters", "dual_clusters",
                      "acceptance"]
    # the drift checks are chain 0's start plus one per measured sweep
    assert len(rows) == rep["oracle_checks"] - 1 > 0
    rec = metropolis_sample(SquareTorusLattice(2, 2), potts_params(2), 500,
                            3, record_rows=True)
    assert rows == [[str(x) for x in row] for row in rec.rows]


def test_bad_lattice_size_is_config_error(capsys):
    code, _, err = _run(capsys, "lattice", "build", "--torus", "bogus")
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"] == "config"


def test_lattice_kernel_runs_past_level_three(capsys):
    code, out, _ = _run(capsys, "lattice", "kernel", "--torus", "2x2",
                        "--ell", "5")
    assert code == EXIT_OK
    bundle = json.loads(out)
    assert "backend" not in bundle
    rep = bundle["results"][0]
    assert rep["kernel_dimension"] == rep["oracle_dimension"]


def test_gas_exact_runs_past_level_three(capsys):
    code, out, _ = _run(capsys, "gas", "exact", "--torus", "2x2",
                        "--ell", "4")
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["constants_hold"]


def test_lattice_has_no_backend_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "kernel", "--torus", "2x2", "--ell", "2",
              "--backend", "float"])
    assert exc.value.code == EXIT_CONFIG
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("lattice", "components", "--torus", "2x2", "--seed-state", "zz"),
    ("tl", "diagrams", "--n", "-1"),
    ("tl", "gram", "--n", "-1", "--ell", "2"),
    ("tl", "radical", "--n", "-1", "--ell", "2"),
    ("tl", "ideal", "--ell", "2", "--nmax", "0"),
    ("table", "smatrix", "--ell", "-2"),
    ("table", "smatrix", "--ell", "0"),
    ("table", "smatrix", "--ell", "-1"),
    ("table", "fig02", "--ellmax", "0"),
    ("table", "fig02", "--ellmax", "17"),
    ("table", "smatrix", "--ell", "17"),
    ("annulus", "eigenvalues", "--ell", "0"),
    ("annulus", "eigenvalues", "--ell", "-2"),
    ("gas", "sample", "--torus", "2x2", "--sweeps", "5", "--seed", "-1"),
], ids=["seed-state-zz", "diagrams-negative-n", "gram-negative-n",
        "radical-negative-n", "ideal-nmax-0", "smatrix-ell-minus-2",
        "smatrix-ell-0", "smatrix-ell-minus-1", "fig02-ellmax-0",
        "fig02-ellmax-17", "smatrix-ell-17", "eigenvalues-ell-0",
        "eigenvalues-ell-minus-2", "sample-negative-seed"])
def test_bad_input_is_config_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["type"] == "ConfigInvalid"


@pytest.mark.parametrize("argv", [
    ("lattice", "joint-kernel", "--hex", "3x3", "--ell", "1"),
    ("lattice", "energy", "--hex", "3x3", "--ell", "2", "--model", "hprime"),
    ("gas", "exact", "--spec", "{missing}"),
    ("--config", "{missing}", "tl", "diagrams"),
    ("gas", "exact", "--spec", "{malformed}"),
    ("gas", "exact", "--spec", "{no_width}"),
    ("gas", "exact", "--spec", "{string_width}"),
    ("gas", "exact", "--spec", "{a_list}"),
    ("--config", "{a_list}", "tl", "diagrams"),
    ("lattice", "components", "--spec", "{disk}"),
    ("lattice", "kernel", "--torus", "1x2", "--ell", "2"),
    ("lattice", "components", "--torus", "1x3"),
    ("lattice", "build", "--torus", "1x2"),
    ("lattice", "build", "--spec", "{disk}"),
], ids=["joint-kernel-hex", "hprime-hex", "missing-spec", "missing-config",
        "malformed-spec", "spec-without-w", "spec-string-w", "spec-list",
        "config-list", "disk-components", "kernel-1x2", "components-1x3",
        "build-1x2", "disk-build"])
def test_unusable_lattice_or_file_is_config_error(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "missing.json"}
    for name, text in [("malformed", '{"kind": "square-torus", "w": '),
                       ("no_width", '{"kind": "square-torus"}'),
                       ("string_width",
                        '{"kind": "square-torus", "w": "3", "h": 3}'),
                       ("a_list", "[1, 2]"),
                       ("disk", '{"kind": "square-disk", "w": 3, "h": 3}')]:
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(text)
    code, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "config"


def test_capacity_error_exit_code(capsys):
    code, _, err = _run(capsys, "gas", "exact", "--torus", "4x3",
                        "--ell", "2")
    assert code == EXIT_CAPACITY
    assert json.loads(err)["error"] == "capacity"


def test_lattice_components_past_the_cap_is_capacity_error(capsys,
                                                           monkeypatch):
    from looptl import lattice
    monkeypatch.setattr(lattice, "COMPONENT_CAP", 10)
    code, out, err = _run(capsys, "lattice", "components", "--torus", "3x3")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert json.loads(err) == {"error": "capacity",
                               "type": "ComponentCapExceeded",
                               "message": "component exceeds 10 states"}


def test_lattice_components_has_no_cap_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "components", "--torus", "2x2",
              "--component-cap", "-5"])
    assert exc.value.code == EXIT_CONFIG
    assert "--component-cap" in capsys.readouterr().err


def test_window_does_not_fit_is_config_error(capsys):
    code, _, err = _run(capsys, "lattice", "joint-kernel", "--torus", "3x3",
                        "--ell", "3")
    assert code == EXIT_CONFIG


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 4}))
    code, out, _ = _run(capsys, "--config", str(conf), "tl", "diagrams")
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["count"] == 14
    # explicit flag wins over the file
    code, out, _ = _run(capsys, "--config", str(conf), "tl", "diagrams",
                        "--n", "3")
    assert json.loads(out)["results"][0]["count"] == 5


def test_verify_passes(capsys):
    code, out, _ = _run(capsys, "verify")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert all(rep["checks"].values())
    # the ideal theorem at level 1, one entry per grade
    grades = rep["ideal_theorem_ell1"]
    assert [g["grade"] for g in grades] == [1, 2, 3, 4, 5]
    assert [g["radical_dim"] for g in grades] == [0, 1, 4, 13, 41]
    assert [g["ideal_dim"] for g in grades] == [0, 1, 4, 13, 41]


def test_verify_fails_when_verlinde_and_label_counts_differ(capsys,
                                                            monkeypatch):
    from looptl import modular
    count = modular.label_count
    monkeypatch.setattr(modular, "label_count",
                        lambda ell: count(ell) + (ell == 5))
    code, out, err = _run(capsys, "verify")
    assert code == EXIT_ORACLE
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "oracle-mismatch"
    assert rep["message"] == \
        "verification checks failed: ['verlinde_matches_labels']"


def test_artifacts_written_to_out_dir(tmp_path, capsys):
    code, _, _ = _run(capsys, "--out", str(tmp_path), "table", "fig02",
                      "--ellmax", "2")
    assert code == EXIT_OK
    assert (tmp_path / "levels.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_report_bundle_merges_flags():
    bundle = report_bundle([{"a": 1, "flags": ["note"]}, {"b": 2}], seed=3)
    assert bundle["flags"] == ["note"]
    assert bundle["seed"] == 3
    assert "wall_clock_seconds" not in bundle


@pytest.mark.parametrize("ell", ["0", "-3"])
def test_gas_nonpositive_level_is_config_error(capsys, ell):
    # --ell 0 once ran level 2 silently
    code, out, err = _run(capsys, "gas", "exact", "--torus", "2x2",
                          "--ell", ell)
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["type"] == "ConfigInvalid"


def test_tl_radical_dimension(capsys):
    from looptl.structure import ideal_span
    from looptl.tlcat import jones_wenzl
    code, out, _ = _run(capsys, "tl", "radical", "--n", "1", "--ell", "1")
    assert code == EXIT_OK
    assert json.loads(out)["results"][0]["radical_dimension"] == 0
    code, out, _ = _run(capsys, "tl", "radical", "--n", "4", "--ell", "2")
    assert code == EXIT_OK
    dim = json.loads(out)["results"][0]["radical_dimension"]
    span, _ = ideal_span(jones_wenzl(3, "special", ell=2), 4)
    assert dim == len(span) == 6


def test_gas_reports_carry_census(capsys):
    code, out, _ = _run(capsys, "gas", "exact", "--torus", "2x2")
    assert code == EXIT_OK
    info = json.loads(out)["results"][0]["census"]
    assert info["states"] == 256 and info["seconds"] >= 0.0
    # the 2x2 torus's 256 states fall into 76 translation orbits
    assert info["orbits"] == 76
    assert isinstance(info["cached"], bool)
    # the census of the 2x2 torus is now cached in this process
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "2x2",
                        "--sweeps", "50")
    assert code == EXIT_OK
    info = json.loads(out)["results"][0]["census"]
    assert info["states"] == 256 and info["cached"] is True
    # 2^18 states lie within the cap: the default run reads the census
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "3x3")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert rep["sweeps"] == 10_000
    assert rep["census"]["states"] == 262144
    # 2^24 states lie past the cap: the chain builds no census
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "4x3",
                        "--sweeps", "2")
    assert code == EXIT_OK
    info = json.loads(out)["results"][0]["census"]
    assert info == {"states": 0, "orbits": 0, "seconds": 0.0,
                    "cached": False}


@pytest.mark.parametrize("argv", [
    ("tl", "jw", "--backend", "special", "--k", "3"),
    ("tl", "jw", "--backend", "bogus"),
    ("tl", "jw", "--backend", "float"),
    ("annulus", "ideal", "--ell", "0"),
], ids=["special-without-ell", "unknown-backend", "float-without-d",
        "level-0"])
def test_bad_backend_or_level_is_config_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["type"] == "ConfigInvalid"


def test_gas_sample_on_hex_torus_is_config_error(capsys):
    code, out, err = _run(capsys, "gas", "sample", "--hex", "3x3",
                          "--sweeps", "10")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "square torus" in json.loads(err)["message"]


@pytest.mark.parametrize("sweeps", ["0", "-3"])
def test_gas_sample_without_sweeps_is_config_error(capsys, sweeps):
    code, out, err = _run(capsys, "gas", "sample", "--torus", "2x2",
                          "--sweeps", sweeps)
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["type"] == "ConfigInvalid"


def test_gas_sample_past_bond_cap_is_capacity_error(capsys):
    # 6x6 torus: 72 bonds, past the chain's int64 state
    code, out, err = _run(capsys, "gas", "sample", "--torus", "6x6",
                          "--sweeps", "2")
    assert code == EXIT_CAPACITY
    assert out == "" and "Traceback" not in err
    rep = json.loads(err)
    assert (rep["error"], rep["type"]) == ("capacity", "StateSpaceTooLarge")


@pytest.mark.parametrize("action", ["kernel", "joint-kernel"])
def test_kernel_past_state_cap_is_capacity_error(capsys, action):
    # 4x3 torus: 2^24 states, past the enumeration cap
    code, out, err = _run(capsys, "lattice", action, "--torus", "4x3",
                          "--ell", "2")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert json.loads(err)["type"] == "StateSpaceTooLarge"


def test_lattice_kernel_always_cross_checks_on_3x3(capsys):
    code, out, _ = _run(capsys, "lattice", "kernel", "--torus", "3x3",
                        "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert rep["kernel_dimension"] == rep["oracle_dimension"] == 22
    assert rep["oracle_method"] == "modular-elimination"


def test_lattice_kernel_reports_the_orbits_it_solved_on(capsys):
    # Burnside: (2^18 + 8 * 2^6) / 9 translation orbits of the 3x3 torus
    code, out, _ = _run(capsys, "lattice", "kernel", "--torus", "3x3",
                        "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert (rep["orbits"], rep["group_order"]) == (29184, 9)


def test_lattice_kernel_cross_checks_3x2_at_level_2(capsys):
    # 4,096 states and 6,144 expanded rows, all on the GF(p) oracle
    code, out, _ = _run(capsys, "lattice", "kernel", "--torus", "3x2",
                        "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert rep["kernel_dimension"] == rep["oracle_dimension"] == 9
    assert rep["oracle_method"] == "modular-elimination"


def test_lattice_kernel_oracle_mismatch_exit_code(capsys, monkeypatch):
    from looptl import hamiltonian
    monkeypatch.setattr(hamiltonian, "kernel_dense", lambda cs:
                        hamiltonian.KernelBasis(0, "modular-elimination"))
    code, out, err = _run(capsys, "lattice", "kernel", "--torus", "2x2",
                          "--ell", "2")
    assert code == EXIT_ORACLE
    assert out == ""
    assert json.loads(err)["error"] == "oracle-mismatch"


def test_lattice_joint_kernel_prints_singular_value_gap(capsys):
    code, out, _ = _run(capsys, "lattice", "joint-kernel", "--torus", "2x2",
                        "--ell", "1")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    kept, dropped = rep["sv_gap"]
    assert rep["dimension"] == 1 and kept > 1e-3 > 1e-12 > dropped


@pytest.mark.parametrize("flag,holds", [("--torus", True), ("--hex", False)])
def test_gas_exact_flags_non_constant_ratios(capsys, flag, holds):
    code, out, _ = _run(capsys, "gas", "exact", flag, "3x3", "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert rep["constants_hold"] is holds
    spreads = [c["spread"] for c in rep["constants"].values()]
    assert holds == (max(spreads) < 1e-12)


@pytest.mark.parametrize("backend", ["float", "exact", "Generic"])
def test_tl_jw_takes_only_the_exact_backends(capsys, backend):
    code, out, err = _run(capsys, "tl", "jw", "--backend", backend)
    assert code == EXIT_CONFIG
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "config"
    assert "generic or special" in rep["message"]
    code, out, _ = _run(capsys, "tl", "jw", "--backend", "special",
                        "--ell", "2", "--k", "3")
    assert code == EXIT_OK
    assert len(json.loads(out)["results"][0]["terms"]) == 5


def test_sampler_drift_is_invariant_error(capsys, monkeypatch):
    from looptl import gas
    # a census that reports one cluster for every state makes each
    # incremental dC zero, so the running count drifts from the recount
    monkeypatch.setattr(gas, "_cluster_table",
                        lambda lat: np.ones(1 << lat.nsites, np.int8))
    code, out, err = _run(capsys, "gas", "sample", "--torus", "2x2",
                          "--sweeps", "50", "--seed", "3")
    assert code == EXIT_INVARIANT
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "invariant"
    assert rep["type"] == "AssertionError"
    assert "drifted" in rep["message"]


def test_sampler_drift_is_invariant_error_under_optimize():
    # python -O strips assert statements; the drift checks must survive
    import looptl
    src = os.path.dirname(os.path.dirname(looptl.__file__))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from looptl import cli, gas\n"
        "gas._cluster_table = "
        "lambda lat: np.ones(1 << lat.nsites, np.int8)\n"
        "sys.exit(cli.main(['gas', 'sample', '--torus', '2x2',"
        " '--sweeps', '50', '--seed', '3']))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_INVARIANT, proc.stderr
    assert proc.stdout == ""
    rep = json.loads(proc.stderr)
    assert rep["type"] == "AssertionError"
    assert "drifted" in rep["message"]


@pytest.mark.parametrize("sweeps,seed,visited,checks", [
    ("50", "3", 169, 51), ("500", "13", 256, 251)])
def test_gas_sample_reports_states_visited_and_oracle_checks(
        capsys, sweeps, seed, visited, checks):
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "2x2",
                        "--sweeps", sweeps, "--seed", seed)
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert (rep["states_visited"], rep["oracle_checks"]) == (visited, checks)
    # one starting count and one check per measured sweep: every sweep
    # of the longest chain at this length
    chains = max(1, int(sweeps) // 250)
    assert rep["chains"] == chains
    assert rep["sweeps_per_chain"] == [int(sweeps) // chains] * 2
    assert checks == 1 + rep["sweeps_per_chain"][1]
    assert (rep["mean_loops_stderr"] is None) == (chains == 1)


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from looptl import tlcat

    def broken(m, n):
        raise RuntimeError("enumeration broke")
    monkeypatch.setattr(tlcat, "enumerate_diagrams", broken)
    code, out, err = _run(capsys, "tl", "diagrams", "--n", "3")
    assert code == EXIT_INTERNAL
    assert EXIT_INTERNAL not in (EXIT_OK, EXIT_CONFIG, EXIT_CAPACITY,
                                 EXIT_INVARIANT, EXIT_ORACLE)
    assert out == ""
    assert json.loads(err) == {"error": "internal", "type": "RuntimeError",
                               "message": "enumeration broke"}


def _readme_command_line():
    """README's Command line section: the text from its heading to the
    next one."""
    import re
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    return re.search(r"^## Command line\n(.*?)^## ", text,
                     re.S | re.M).group(1)


def test_readme_command_line_names_every_subcommand_action_and_flag():
    import argparse
    import re
    from looptl.cli import _build_parser
    text = " ".join(_readme_command_line().split())
    top = _build_parser()
    missing = []
    parsers = [("", top)]
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if "looptl %s" % name not in text:
                    missing.append("looptl %s" % name)
                parsers.append((name, sub))
    for name, parser in parsers:
        for action in parser._actions:
            if action.dest == "action":
                missing += ["%s %s" % (name, choice)
                            for choice in action.choices
                            if not re.search(r"\b%s %s\b" % (name, choice),
                                             text)]
            missing += [opt for opt in action.option_strings
                        if opt not in ("-h", "--help")
                        and not re.search(r"(?<![\w-])%s(?![\w-])" % opt,
                                          text)]
    assert missing == []


def test_readme_exit_code_sentence_names_every_exit_code():
    import re
    from looptl import cli
    text = " ".join(_readme_command_line().split())
    sentence = re.search(r"Exit codes: [^.]*\.", text).group(0)
    codes = {getattr(cli, name) for name in dir(cli)
             if name.startswith("EXIT_")}
    assert {code for code in codes
            if not re.search(r"\b%d [a-z]" % code, sentence)} == set()
