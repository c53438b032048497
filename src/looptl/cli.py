"""Batch front-end: experiment configs in, CSV/JSON artifacts out.

Exit codes: 0 ok, 2 config error, 3 capacity error, 4 invariant
violation (a failed internal consistency check, such as the sampler's
cluster-count drift check), 5 oracle mismatch, 6 internal error (any
other exception).  Past argument parsing, every error is one JSON
object on stderr; argparse itself prints its usage message (exit 2).
A reader that closes stdout early ends the run with exit 0 and nothing
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .errors import (ComponentCapExceeded, ConfigInvalid, IndexOutOfRange,
                     InconsistentCycle, MismatchAtGrade, PoleAtSpecialValue,
                     SignatureMismatch, StateSpaceTooLarge, WindowDoesNotFit)
from .scalars import SpecialField, serialize_scalar

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_INVARIANT = 4
EXIT_ORACLE = 5
EXIT_INTERNAL = 6

_CAPACITY_ERRORS = (StateSpaceTooLarge, ComponentCapExceeded)
_CONFIG_ERRORS = (ConfigInvalid, IndexOutOfRange, PoleAtSpecialValue,
                  WindowDoesNotFit)
# AssertionError is how the package's consistency checks fail, e.g. the
# sampler's "cluster count drifted" recount
_INVARIANT_ERRORS = (InconsistentCycle, SignatureMismatch, MismatchAtGrade,
                     AssertionError)


class OracleMismatch(Exception):
    pass


def _parse_torus(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ConfigInvalid("lattice size must look like 3x3")


def _emit(args, name, payload):
    """Write an artifact to the output directory or stdout."""
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(payload)
        return path
    sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    return None


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a report dict
# ---------------------------------------------------------------------------


def _cmd_tl(args):
    from .linalg import rank as exact_rank
    from .structure import catalan, radical_vectors, verify_ideal_theorem
    from .tlcat import enumerate_diagrams, gram_exponents, jones_wenzl

    report = {"command": "tl", "action": args.action}
    if args.action in ("diagrams", "gram", "radical") and args.n < 0:
        raise ConfigInvalid("--n must be non-negative")
    if args.action == "diagrams":
        n = args.n
        diagrams = enumerate_diagrams(n, n)
        report["n"] = n
        report["count"] = len(diagrams)
        report["catalan"] = catalan(n)
    elif args.action == "jw":
        # the float backend needs a numeric loop weight, which no flag gives
        if args.backend not in ("generic", "special"):
            raise ConfigInvalid("tl jw takes --backend generic or special, "
                                "not %r" % args.backend)
        proj = jones_wenzl(args.k, backend=args.backend, ell=args.ell)
        report["backend"] = args.backend
        report["k"] = args.k
        report["terms"] = {repr(diag): serialize_scalar(c)
                           for diag, c in proj.terms.items()}
    elif args.action == "gram":
        if args.ell is None:
            raise ConfigInvalid("gram needs --ell")
        d = SpecialField(args.ell).delta
        _, expo = gram_exponents(args.n, args.n)
        # entry [i][j] is d^expo[i][j] with at most n loops: build and
        # serialize each power once, not once per entry
        powers = [d ** e for e in range(args.n + 1)]
        text = [serialize_scalar(x) for x in powers]
        g = [[powers[e] for e in row] for row in expo]
        rank = exact_rank(g)
        matrix = [[text[e] for e in row] for row in expo]
        report["n"] = args.n
        report["size"] = len(g)
        report["rank"] = rank
        report["corank"] = len(g) - rank
        report["matrix"] = matrix
        if args.out:
            buf = io.StringIO()
            csv.writer(buf).writerows(matrix)
            report["csv"] = _emit(args, "gram_n%d_ell%d.csv"
                                  % (args.n, args.ell), buf.getvalue())
    elif args.action == "radical":
        if args.ell is None:
            raise ConfigInvalid("radical needs --ell")
        vecs, _, _ = radical_vectors(args.n, args.ell)
        report["n"] = args.n
        report["radical_dimension"] = len(vecs)
    elif args.action == "ideal":
        if args.ell is None:
            raise ConfigInvalid("ideal needs --ell")
        if args.nmax < 1:
            raise ConfigInvalid("ideal needs --nmax >= 1")
        # a mismatch raises MismatchAtGrade (exit 4)
        report["ell"] = args.ell
        report["n_max"] = args.nmax
        report["grades"] = verify_ideal_theorem(args.ell, args.nmax)
    else:
        raise ConfigInvalid("unknown tl action %r" % args.action)
    return report


def _cmd_annulus(args):
    from .annular import (annular_ideal, beta_report, eigenvalue_family,
                          generator_roots)

    report = {"command": "annulus", "action": args.action, "ell": args.ell}
    if args.action == "ideal":
        if args.grade_cap is None:
            args.grade_cap = args.ell + 2
        ideal = annular_ideal(args.ell, args.grade_cap)
        report["generator"] = [serialize_scalar(c)
                               for c in ideal.generator.coeffs]
        report["grade_cap"] = args.grade_cap
        report["roots"] = generator_roots(ideal)
    elif args.action == "eigenvalues":
        report["family"] = eigenvalue_family(args.ell)
    elif args.action == "beta":
        rep = beta_report(args.ell)
        for res in rep["results"].values():
            res["betas"] = [[serialize_scalar(c) for c in beta]
                            for beta in res["betas"]]
            res["scalars"] = {str(n): serialize_scalar(c)
                              for n, c in res["scalars"].items()}
        rep["results"] = {"%s/%s" % key: res
                          for key, res in rep["results"].items()}
        report.update(rep)
    else:
        raise ConfigInvalid("unknown annulus action %r" % args.action)
    return report


def _cmd_table(args):
    from .modular import LEVEL_CAP, level_rows, level_table_csv, s_matrix

    report = {"command": "table", "action": args.action}
    if args.action == "fig02":
        if args.ellmax < 1:
            raise ConfigInvalid("fig02 needs --ellmax >= 1")
        report["ell_max"] = args.ellmax
        report["levels"] = level_rows(args.ellmax)
        if args.out:
            report["csv"] = _emit(args, "levels.csv",
                                  level_table_csv(args.ellmax))
    elif args.action == "smatrix":
        if args.ell is None:
            raise ConfigInvalid("smatrix needs --ell")
        if not 1 <= args.ell <= LEVEL_CAP:
            raise ConfigInvalid("smatrix needs 1 <= --ell <= %d" % LEVEL_CAP)
        mat = s_matrix(args.ell)
        report["matrix"] = mat.tolist()
        if args.out:
            buf = io.StringIO()
            writer = csv.writer(buf)
            for row in mat:
                writer.writerow(["%.12g" % x for x in row])
            report["csv"] = _emit(args, "smatrix_ell%d.csv" % args.ell,
                                  buf.getvalue())
    else:
        raise ConfigInvalid("unknown table action %r" % args.action)
    return report


def _read_json(path):
    """The JSON document in a file; an unreadable or malformed file is a
    config error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid("cannot read JSON from %s: %s" % (path, exc))


def _lattice_from_args(args):
    from .lattice import HexTorusLattice, SquareTorusLattice, lattice_from_spec
    if getattr(args, "spec", None):
        return lattice_from_spec(_read_json(args.spec))
    if getattr(args, "hex", None):
        w, h = _parse_torus(args.hex)
        return HexTorusLattice(w, h)
    w, h = _parse_torus(args.torus or "3x3")
    return SquareTorusLattice(w, h)


def _cmd_lattice(args):
    from . import hamiltonian as ham
    from .lattice import HexTorusLattice, explore_component
    from .modular import torus_dimension_estimate

    lat = _lattice_from_args(args)
    model = args.model or ("h0" if isinstance(lat, HexTorusLattice)
                           else "hprime")
    report = {"command": "lattice", "action": args.action,
              "lattice": lat.spec_dict(), "model": model}
    build = ham.build_h0 if model == "h0" else ham.build_hprime
    if args.action == "build":
        build(lat, 1)  # the model's lattice checks, which no level changes
        return report
    if args.action == "components":
        try:
            bits = int(args.seed_state, 16) if args.seed_state else 0
        except ValueError:
            raise ConfigInvalid("--seed-state must be hex digits")
        seed = lat.config(bits)
        graph = explore_component(seed, model=model)
        report["component_size"] = len(graph.states)
        report["edges"] = len(graph.a)
        report["consistent"] = graph.consistent
        return report

    if args.ell is None:
        raise ConfigInvalid("this action needs --ell")
    cs = build(lat, args.ell)
    if args.action == "kernel":
        kb = ham.kernel_propagate(cs)
        ko = ham.kernel_dense(cs)
        report["kernel_dimension"] = kb.dimension
        report["orbits"] = kb.orbits
        report["group_order"] = kb.group_order
        report["oracle_dimension"] = ko.dimension
        report["oracle_method"] = ko.method
        if ko.dimension != kb.dimension:
            raise OracleMismatch("kernel solvers disagree")
    elif args.action == "joint-kernel":
        target = int(torus_dimension_estimate(args.ell, 1))
        skein = ham.compile_skein_instances(lat, args.ell)
        kb, rep = ham.joint_kernel(cs, skein, target=target)
        report.update(rep)
    elif args.action == "energy":
        exact, approx = ham.uniform_state_energy(cs)
        report["uniform_state_energy"] = approx
        report["uniform_state_energy_exact"] = serialize_scalar(exact)
        report["rows"] = len(cs.rows)
    else:
        raise ConfigInvalid("unknown lattice action %r" % args.action)
    return report


def _census_info(lat, cached_before):
    """States, symmetry orbits tabulated, build seconds and prior
    caching of the lattice census, or zeros when the command did not
    need it."""
    from .lattice import census, census_cached
    if not census_cached(lat):
        return {"states": 0, "orbits": 0, "seconds": 0.0, "cached": False}
    cen = census(lat)
    return {"states": cen.states, "orbits": cen.orbits,
            "seconds": cen.seconds, "cached": cached_before}


def _cmd_gas(args):
    from . import gas
    from .lattice import census_cached

    lat = _lattice_from_args(args)
    model = gas.potts_params(2 if args.ell is None else args.ell)
    cached_before = census_cached(lat)
    report = {"command": "gas", "action": args.action,
              "lattice": lat.spec_dict(), "ell": model.ell,
              "q": model.q_float, "p": model.p_float,
              "q_exact": serialize_scalar(model.q),
              "p_exact": serialize_scalar(model.p)}
    report["flags"] = model.flags
    if args.action == "exact":
        probs, weights, _ = gas.exact_distribution(lat, model)
        report["states"] = len(probs)
        report["max_probability"] = float(probs.max())
        report["constants"] = {
            "%d,%d" % k: v for k, v in
            gas.extensive_constant_report(lat, model).items()}
        report["constants_hold"] = all(
            v["spread"] < 1e-12 for v in report["constants"].values())
        holds, bad = gas.homology_rule_report(lat)
        report["homology_rule_holds"] = holds
        report["homology_rule_violations"] = bad
    elif args.action == "sample":
        rec = gas.metropolis_sample(lat, model, args.sweeps, args.seed,
                                    record_rows=bool(args.out))
        report.update(rec.summary())
        if (1 << lat.nsites) <= gas.ENUM_STATE_CAP and args.tv:
            probs, _, _ = gas.exact_distribution(lat, model)
            report["tv_distance"] = gas.tv_distance(rec, probs)
        if args.out and rec.rows:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["sweep", "loops", "clusters", "dual_clusters",
                             "acceptance"])
            writer.writerows(rec.rows)
            report["csv"] = _emit(args, "chain_seed%d.csv" % args.seed,
                                  buf.getvalue())
    else:
        raise ConfigInvalid("unknown gas action %r" % args.action)
    report["census"] = _census_info(lat, cached_before)
    return report


def _cmd_verify(args):
    """Run the quick cross-checks that do not need minutes of compute."""
    from . import gas, hamiltonian as ham
    from .lattice import SquareTorusLattice
    from .modular import label_count, verlinde_dimension
    from .structure import verify_ideal_theorem

    checks = {}
    checks["pauli_expansion_ell2"] = ham.pauli_expand_check(2)
    checks["pauli_expansion_ell3"] = ham.pauli_expand_check(3)
    lat = SquareTorusLattice(2, 2)
    cs = ham.build_hprime(lat, 2)
    checks["kernel_oracle_2x2"] = (
        ham.kernel_propagate(cs).dimension == ham.kernel_dense(cs).dimension)
    ok, _ = gas.detailed_balance_check(lat, gas.potts_params(2))
    checks["detailed_balance_2x2"] = ok
    holds, _ = gas.homology_rule_report(lat)
    checks["homology_rule_2x2"] = holds
    checks["verlinde_matches_labels"] = all(
        abs(verlinde_dimension(ell, 1) - label_count(ell)) < 1e-9
        for ell in range(1, 7))
    report = {"command": "verify", "checks": checks,
              # a mismatch raises MismatchAtGrade (exit 4)
              "ideal_theorem_ell1": verify_ideal_theorem(1, 5)}
    if not all(checks.values()):
        raise OracleMismatch("verification checks failed: %s" % [
            k for k, v in checks.items() if not v])
    return report


# ---------------------------------------------------------------------------
# bundling and entry point
# ---------------------------------------------------------------------------


def report_bundle(results, seed=None, started=None):
    """Merge sub-reports into one JSON-ready summary."""
    flags = []
    for r in results:
        flags.extend(r.get("flags", []))
    bundle = {"version": __version__, "results": results}
    if flags:
        bundle["flags"] = flags
    if seed is not None:
        bundle["seed"] = seed
    if started is not None:
        bundle["wall_clock_seconds"] = time.time() - started
    return bundle


def _build_parser():
    top = argparse.ArgumentParser(prog="looptl")
    top.add_argument("--config", help="JSON config file; flags override")
    top.add_argument("--out", help="artifact output directory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tl")
    p.add_argument("action", choices=["diagrams", "jw", "gram", "radical",
                                      "ideal"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--ell", type=int)
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--backend", default="generic")
    p.set_defaults(func=_cmd_tl)

    p = sub.add_parser("annulus")
    p.add_argument("action", choices=["ideal", "eigenvalues", "beta"])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--grade-cap", type=int, default=None)
    p.set_defaults(func=_cmd_annulus)

    p = sub.add_parser("table")
    p.add_argument("action", choices=["fig02", "smatrix"])
    p.add_argument("--ellmax", type=int, default=6)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("lattice")
    p.add_argument("action", choices=["build", "components", "kernel",
                                      "joint-kernel", "energy"])
    p.add_argument("--torus")
    p.add_argument("--hex")
    p.add_argument("--spec")
    p.add_argument("--model", choices=["hprime", "h0"])
    p.add_argument("--ell", type=int)
    p.add_argument("--seed-state", dest="seed_state",
                   help="hex bits of the seed configuration")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("gas")
    p.add_argument("action", choices=["exact", "sample"])
    p.add_argument("--torus")
    p.add_argument("--hex")
    p.add_argument("--spec")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--sweeps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tv", action="store_true",
                   help="compare against exact enumeration when feasible")
    p.set_defaults(func=_cmd_gas)

    p = sub.add_parser("verify")
    p.set_defaults(func=_cmd_verify)
    return top


def _apply_config(args, argv):
    if not args.config:
        return args
    conf = _read_json(args.config)
    if not isinstance(conf, dict):
        raise ConfigInvalid("a --config file must hold a JSON object")
    given = {tok.split("=", 1)[0].lstrip("-").replace("-", "_")
             for tok in (argv or []) if tok.startswith("--")}
    for key, value in conf.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigInvalid("unknown config key %r" % key)
        # explicit command-line flags win over the file
        if attr not in given:
            setattr(args, attr, value)
    return args


def main(argv=None):
    parser = _build_parser()
    started = time.time()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv if argv is not None else sys.argv[1:])
        report = args.func(args)
        bundle = report_bundle([report],
                               seed=getattr(args, "seed", None),
                               started=started)
        try:
            _emit(args, "report.json", _json(bundle))
            # a closed stdout fails here, not in the flush at exit
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout (`looptl ... | head`): no one is
            # left to report to, so exit quietly, and give stdout somewhere
            # to flush what it still holds when the interpreter exits
            sys.stdout = open(os.devnull, "w")
        return EXIT_OK
    except _CONFIG_ERRORS as exc:
        _fail("config", exc)
        return EXIT_CONFIG
    except _CAPACITY_ERRORS as exc:
        _fail("capacity", exc)
        return EXIT_CAPACITY
    except OracleMismatch as exc:
        _fail("oracle-mismatch", exc)
        return EXIT_ORACLE
    except _INVARIANT_ERRORS as exc:
        _fail("invariant", exc)
        return EXIT_INVARIANT
    except Exception as exc:
        _fail("internal", exc)
        return EXIT_INTERNAL


def _fail(kind, exc):
    sys.stderr.write(_json({"error": kind, "type": type(exc).__name__,
                            "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
