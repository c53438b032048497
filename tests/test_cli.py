import json
import os
import subprocess
import sys

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


def test_tl_gram_corank(capsys, tmp_path):
    code, out, _ = _run(capsys, "--out", str(tmp_path),
                        "tl", "gram", "--n", "3", "--ell", "2")
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "report.json").read_text())["results"][0]
    assert rep["corank"] == 1


def test_table_fig02(capsys):
    code, out, _ = _run(capsys, "table", "fig02", "--ellmax", "3")
    assert code == EXIT_OK
    assert "even_restriction_rank" in out


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
    ("gas", "sample", "--torus", "2x2", "--sweeps", "5", "--seed", "-1"),
], ids=["seed-state-zz", "diagrams-negative-n", "gram-negative-n",
        "radical-negative-n", "ideal-nmax-0", "smatrix-ell-minus-2",
        "smatrix-ell-0", "smatrix-ell-minus-1", "fig02-ellmax-0",
        "sample-negative-seed"])
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
], ids=["joint-kernel-hex", "hprime-hex", "missing-spec", "missing-config",
        "malformed-spec"])
def test_unusable_lattice_or_file_is_config_error(capsys, tmp_path, argv):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"kind": "square-torus", "w": ')
    paths = {"missing": tmp_path / "missing.json", "malformed": malformed}
    code, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "config"


def test_capacity_error_exit_code(capsys):
    code, _, err = _run(capsys, "gas", "exact", "--torus", "4x3",
                        "--ell", "2")
    assert code == EXIT_CAPACITY
    assert json.loads(err)["error"] == "capacity"


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
    assert json.loads(out)["results"][0]["passed"]


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
    assert isinstance(info["cached"], bool)
    # the census of the 2x2 torus is now cached in this process
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "2x2",
                        "--sweeps", "50")
    assert code == EXIT_OK
    info = json.loads(out)["results"][0]["census"]
    assert info["states"] == 256 and info["cached"] is True
    # 2^24 states lie past the cap: the chain builds no census
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "4x3",
                        "--sweeps", "2")
    assert code == EXIT_OK
    info = json.loads(out)["results"][0]["census"]
    assert info == {"states": 0, "seconds": 0.0, "cached": False}


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
                        lambda lat, sweeps: bytes([1]) * (1 << lat.nsites))
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
        "from looptl import cli, gas\n"
        "gas._cluster_table = "
        "lambda lat, sweeps: bytes([1]) * (1 << lat.nsites)\n"
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
    ("50", "3", 169, 51), ("500", "13", 256, 503)])
def test_gas_sample_reports_states_visited_and_oracle_checks(
        capsys, sweeps, seed, visited, checks):
    code, out, _ = _run(capsys, "gas", "sample", "--torus", "2x2",
                        "--sweeps", sweeps, "--seed", seed)
    assert code == EXIT_OK
    rep = json.loads(out)["results"][0]
    assert (rep["states_visited"], rep["oracle_checks"]) == (visited, checks)
    # one starting count, one check per measured sweep (every sweep at
    # this length) and one recount per 1000 accepted moves
    accepted = round(rep["acceptance_rate"] * 8 * int(sweeps))
    assert checks == 1 + int(sweeps) + accepted // 1000


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
