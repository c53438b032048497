"""The four benchmark workloads, their input sizes and expected results.

Each workload is a pair ``setup(params, seed) -> inputs`` and
``run(inputs, params, tracer, checks) -> extras``.  ``setup`` covers what
the set-up time measures: building lattices, models and the seeded
inputs.  ``run`` makes every call the workload times and checks each
result against the expected values of the acceptance suite
(``tests/test_acceptance.py``).  Spans are taken only around the calls
into ``looptl``; their metric names are the per-layer metric names of
``BENCHMARK.json``.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from looptl.annular import (annular_closure, annular_ideal, beta_report,
                            eigenvalue_family, generator_roots)
from looptl.gas import (exact_distribution, extensive_constant_report,
                        metropolis_sample, potts_params, tv_distance)
from looptl.hamiltonian import (ConstraintSystem, build_hprime,
                                build_ring_exchange, compile_skein_instances,
                                containment_check, joint_kernel,
                                kernel_dense, kernel_propagate)
from looptl.lattice import SquareTorusLattice, explore_component
from looptl.linalg import same_span
from looptl.modular import level_table, torus_dimension_estimate
from looptl.scalars import RationalFunc, SpecialField, quantum_int
from looptl.structure import (conditional_expectation, ideal_span,
                              radical_vectors)
from looptl.tlcat import (Morphism, compose, compose_factored,
                          enumerate_diagrams, jones_wenzl, markov_trace)

# Criterion 11 bounds TV by 0.05 where the iid floor at its sample size
# is about 0.042; the same margin over the floor is applied here.
TV_MARGIN = 0.05 / 0.042
DOUBLED = "doubled-theory dimension"

# "full" is what run.py measures; "toy" is the self-test's size.
PARAMS = {
    "full": {
        "tl-jw": {"generic_k": 7, "special_ell": 6, "special_k": 6,
                  "zero_trace_ells": (1, 2, 3), "float_d": 2.5,
                  "float_k": 7},
        "tl-ideal": {"grades": ((2, 5), (3, 5)), "compress_ell": 5,
                     "compress_count": 200, "closure_ells": (1, 2, 3),
                     "root_ells": (1, 2, 3, 4), "beta_ell": 3,
                     "level_max": 6},
        "torus-kernel": {"torus": 3, "ell": 2, "joint_ells": (1, 2),
                         "staircase_offsets": (0, 1, 2)},
        "fk-gas": {"torus": 3, "ell": 2, "sweeps": 50_000},
    },
    "toy": {
        "tl-jw": {"generic_k": 4, "special_ell": 6, "special_k": 4,
                  "zero_trace_ells": (1, 2, 3), "float_d": 2.5,
                  "float_k": 4},
        "tl-ideal": {"grades": ((1, 4), (2, 4)), "compress_ell": 5,
                     "compress_count": 12, "closure_ells": (1, 2, 3),
                     "root_ells": (1, 2), "beta_ell": 3, "level_max": 6},
        # the 2x2 staircases are frozen: each is its own component
        "torus-kernel": {"torus": 2, "ell": 2, "joint_ells": (1,),
                         "staircase_offsets": (0,)},
        "fk-gas": {"torus": 2, "ell": 2, "sweeps": 300},
    },
}

_LEVEL_ROWS = {"label_count": [1, 4, 4, 9, 9, 16],
               "color_reversing_count": [1, 1, 4, 4, 9, 9],
               "specific_heat": [2, 5, 8, 13, 18, 25]}

# Pinned results.  Ideal and radical dimensions equal Catalan(n) minus
# the dimension of the semisimple quotient (sum over end points of the
# squared number of length-n walks in [0, ell]).
EXPECTED = {
    "full": {
        "ideal_dim.l2n5": 26, "ideal_dim.l3n5": 8,
        "kernel_dim.hprime": 22, "kernel_dim.ring": 1012,
        "joint_dim.l1": 1, "joint_dim.l2": 4,
        "component_size": 3834, "homology_classes": 5,
        **_LEVEL_ROWS,
    },
    "toy": {
        "ideal_dim.l1n4": 13, "ideal_dim.l2n4": 6,
        "kernel_dim.hprime": 10, "kernel_dim.ring": 40,
        "joint_dim.l1": 1,
        "component_size": 1, "homology_classes": 4,
        **_LEVEL_ROWS,
    },
}


def catalan(k):
    # the closed form, independent of looptl.structure.catalan
    return math.comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# tl-jw: Jones-Wenzl projectors over the three scalar backends
# ---------------------------------------------------------------------------


def setup_tl_jw(params, seed):
    # the workload is fixed; the seed only drives the traced-run probes
    return {"special": SpecialField(params["special_ell"]),
            "zero_fields": {ell: SpecialField(ell)
                            for ell in params["zero_trace_ells"]}}


def _projector_checks(tr, chk, label, p, k, want_trace):
    with tr.span("tlcat.compose[hook]", "tlcat.hook_check_s"):
        hooks_ok = all(compose(Morphism.hook(k, i, p.d), p).is_zero()
                       for i in range(k - 1))
    chk.expect("%s hook annihilation k=%d" % (label, k), hooks_ok)
    with tr.span("tlcat.compose_factored", "tlcat.idempotency_s"):
        idem_ok = compose_factored(p, p) == p
    chk.expect("%s idempotency k=%d" % (label, k), idem_ok)
    with tr.span("tlcat.markov_trace", "tlcat.markov_trace_s"):
        trace = markov_trace(p)
    chk.expect("%s Tr p_%d = [%d]" % (label, k, k + 1), trace == want_trace)


def run_tl_jw(inp, params, tr, chk):
    with chk.stage("generic leg"):
        for k in range(1, params["generic_k"] + 1):
            p = tr.call("tlcat.jones_wenzl", "tlcat.jw_generic_s",
                        jones_wenzl, k)
            chk.expect("generic terms k=%d" % k, len(p.terms) == catalan(k),
                       "%d terms" % len(p.terms))
            tr.count("tlcat.jw_terms.k%d" % k, len(p.terms))
            _projector_checks(tr, chk, "generic", p, k, quantum_int(k + 1))
    with chk.stage("special leg"):
        ell, field = params["special_ell"], inp["special"]
        for k in range(1, params["special_k"] + 1):
            p = tr.call("tlcat.jones_wenzl", "tlcat.jw_special_s",
                        jones_wenzl, k, backend="special", ell=ell)
            _projector_checks(tr, chk, "special l=%d" % ell, p, k,
                              field.quantum_int(k + 1))
        for ell, field in inp["zero_fields"].items():
            p = tr.call("tlcat.jones_wenzl", "tlcat.jw_special_s",
                        jones_wenzl, ell + 1, backend="special", ell=ell)
            with tr.span("tlcat.markov_trace", "tlcat.markov_trace_s"):
                trace = markov_trace(p)
            chk.expect("Tr p_%d = 0 at l=%d" % (ell + 1, ell),
                       trace == field.zero)
    with chk.stage("float leg"):
        d = params["float_d"]
        for k in range(1, params["float_k"] + 1):
            p = tr.call("tlcat.jones_wenzl", "tlcat.jw_float_s",
                        jones_wenzl, k, backend="float", d_value=d)
            with tr.span("tlcat.markov_trace", "tlcat.markov_trace_s"):
                trace = markov_trace(p)
            want = quantum_int(k + 1).eval_float(d)
            chk.expect("float Tr p_%d at d=%g" % (k, d),
                       abs(trace - want) <= 1e-9 * max(1.0, abs(want)),
                       "%r vs %r" % (trace, want))
    return {}


# ---------------------------------------------------------------------------
# tl-ideal: exact elimination over Q(delta)
# ---------------------------------------------------------------------------


def setup_tl_ideal(params, seed):
    rng = random.Random(seed)
    field = SpecialField(params["compress_ell"])
    elements = []
    for i in range(params["compress_count"]):
        n = 2 + i % 3  # grades 2, 3, 4 as in criterion 5
        basis = enumerate_diagrams(n, n)
        terms = {}
        while not terms:
            picks = rng.sample(basis, min(3, len(basis)))
            terms = {diag: field.element([rng.randint(-4, 4)])
                     for diag in picks}
            terms = {k: v for k, v in terms.items() if v != field.zero}
        elements.append(Morphism(n, n, terms, field.delta))
    return {"elements": elements}


def run_tl_ideal(inp, params, tr, chk):
    for ell, n in params["grades"]:
        tag = "l%dn%d" % (ell, n)
        with chk.stage("ideal vs radical " + tag):
            p = tr.call("tlcat.jones_wenzl", "tlcat.jw_special_s",
                        jones_wenzl, ell + 1, backend="special", ell=ell)
            span, _ = tr.call("structure.ideal_span",
                              "structure.ideal_span_s." + tag,
                              ideal_span, p, n)
            rad, _, _ = tr.call("structure.radical_vectors",
                                "structure.radical_vectors_s." + tag,
                                radical_vectors, n, ell)
            same = tr.call("linalg.same_span", "linalg.same_span_s." + tag,
                           same_span, span, rad)
            tr.count("structure.ideal_dim." + tag, len(span))
            chk.pinned("ideal_dim." + tag, len(span))
            chk.expect("radical dim " + tag, len(rad) == len(span),
                       "%d vs %d" % (len(rad), len(span)))
            chk.expect("same_span " + tag, same)
    with chk.stage("compression"):
        ell = params["compress_ell"]
        with tr.span("structure.compression", "structure.compression_s"):
            for f in inp["elements"]:
                chk.expect("trace preserved",
                           markov_trace(conditional_expectation(f))
                           == markov_trace(f))
                p = jones_wenzl(f.m, backend="special", ell=ell)
                m = compose(compose(p, f), p)
                gamma = markov_trace(m) / markov_trace(p)
                chk.expect("p f p = gamma p", m == p.scale(gamma))
    with chk.stage("annular suite"), \
            tr.span("annular.suite", "annular.suite_s"):
        for ell in params["closure_ells"]:
            field = SpecialField(ell)
            closed = annular_closure(
                jones_wenzl(2, backend="special", ell=ell))
            got = list(closed.coeffs) + [field.zero] * 3
            chk.expect("closure(p_2) = R^2 - 1 at l=%d" % ell,
                       got[:3] == [field.element([-1]), field.zero,
                                   field.one])
        for ell in params["root_ells"]:
            roots = generator_roots(annular_ideal(ell, ell + 2))
            chk.expect("generator roots in family at l=%d" % ell,
                       all(min(abs(x - r) for r in roots) < 1e-9
                           for x in eigenvalue_family(ell)))
        res = beta_report(params["beta_ell"])["results"][("shifted", "even")]
        chk.expect("beta orthogonal idempotent at l=%d" % params["beta_ell"],
                   res["orthogonal"] and res["idempotent"])
    with chk.stage("level table"):
        rows = tr.call("modular.level_table", "modular.level_table_s",
                       level_table, params["level_max"])
        for key in _LEVEL_ROWS:
            chk.pinned(key, [getattr(r, key) for r in rows])
        for r in rows:
            chk.expect("singular iff l = 2 mod 4 at l=%d" % r.ell,
                       r.theory_singular == (r.ell % 4 == 2)
                       and (r.even_singular or not r.theory_singular))
    return {}


# ---------------------------------------------------------------------------
# torus-kernel: kernel solvers and the move graph on the torus
# ---------------------------------------------------------------------------


def setup_torus_kernel(params, seed):
    size = params["torus"]
    return {"lat": SquareTorusLattice(size, size), "rng": random.Random(seed)}


def _shuffled(rng, rows):
    # kernel dimensions do not depend on the order of the rows
    rows = list(rows)
    rng.shuffle(rows)
    return rows


def _reordered(rng, cs):
    return ConstraintSystem(cs.lattice, cs.ell, _shuffled(rng, cs.rows),
                            cs.model, cs.field)


def run_torus_kernel(inp, params, tr, chk):
    lat, rng = inp["lat"], inp["rng"]
    systems = {}
    with chk.stage("build"):
        with tr.span("hamiltonian.build", "hamiltonian.build_s"):
            hprime = build_hprime(lat, params["ell"])
            ring = build_ring_exchange(lat)
        systems = {"hprime": _reordered(rng, hprime),
                   "ring": _reordered(rng, ring)}
    for name, cs in systems.items():
        with chk.stage("kernel " + name):
            prop = tr.call("hamiltonian.kernel_propagate",
                           "hamiltonian.kernel_propagate_s." + name,
                           kernel_propagate, cs)
            dense = tr.call("hamiltonian.kernel_dense",
                            "hamiltonian.kernel_dense_s." + name,
                            kernel_dense, cs)
            tr.count("hamiltonian.components." + name, prop.dimension)
            chk.pinned("kernel_dim." + name, prop.dimension)
            chk.expect("solvers agree " + name,
                       dense.dimension == prop.dimension,
                       "%d vs %d" % (dense.dimension, prop.dimension))
    if len(systems) == 2:
        with chk.stage("containment"):
            chk.expect("hprime kernel inside ring-exchange kernel",
                       tr.call("hamiltonian.containment_check",
                               "hamiltonian.containment_s",
                               containment_check, systems["hprime"],
                               systems["ring"]))
    for ell in params["joint_ells"]:
        with chk.stage("joint kernel l=%d" % ell):
            cs = _reordered(rng, tr.call("hamiltonian.build_hprime",
                                         "hamiltonian.build_s",
                                         build_hprime, lat, ell))
            skein = _shuffled(rng, tr.call(
                "hamiltonian.compile_skein_instances",
                "hamiltonian.skein_compile_s",
                compile_skein_instances, lat, ell))
            target = torus_dimension_estimate(ell, 1)
            _, rep = tr.call("hamiltonian.joint_kernel",
                             "hamiltonian.joint_kernel_s.l%d" % ell,
                             joint_kernel, cs, skein, target=target)
            tr.count("hamiltonian.reduced_rows.l%d" % ell,
                     rep["reduced_rows"])
            chk.pinned("joint_dim.l%d" % ell, rep["dimension"])
            chk.expect("joint verdict l=%d" % ell, rep["verdict"] == DOUBLED,
                       rep["verdict"])
    with chk.stage("staircase component"):
        graph = tr.call("lattice.explore_component",
                        "lattice.explore_component_s",
                        explore_component, lat.staircase(0), model="hprime")
        members = {c.bits for c in graph.configs}
        tr.count("lattice.component_size", len(members))
        chk.pinned("component_size", len(members))
        chk.expect("staircases share one component",
                   all(lat.staircase(k).bits in members
                       for k in params["staircase_offsets"]))
    return {}


# ---------------------------------------------------------------------------
# fk-gas: wall census and the Metropolis sampler against the exact law
# ---------------------------------------------------------------------------


def setup_fk_gas(params, seed):
    size = params["torus"]
    return {"lat": SquareTorusLattice(size, size),
            "model": potts_params(params["ell"]), "seed": seed}


def iid_tv_floor(probs, n, seed, draws=3):
    """Mean TV distance of n iid draws from probs to probs itself."""
    rng = np.random.default_rng(seed)
    return float(np.mean([
        0.5 * np.abs(rng.multinomial(n, probs) / n - probs).sum()
        for _ in range(draws)]))


def run_fk_gas(inp, params, tr, chk):
    lat, model, sweeps = inp["lat"], inp["model"], params["sweeps"]
    extras = {}
    probs = None
    with chk.stage("exact distribution"):
        probs, _, _ = tr.call("gas.exact_distribution",
                              "gas.exact_distribution_s",
                              exact_distribution, lat, model)
        chk.expect("probabilities sum to 1", abs(probs.sum() - 1.0) < 1e-12)
    with chk.stage("extensive constant"):
        rep = tr.call("gas.extensive_constant_report",
                      "gas.extensive_constant_s",
                      extensive_constant_report, lat, model)
        chk.pinned("homology_classes", len(rep))
        chk.expect("every state counted",
                   sum(v["count"] for v in rep.values()) == 1 << lat.nsites)
        worst = max(v["spread"] for v in rep.values())
        chk.expect("extensive spread < 1e-12", worst < 1e-12, repr(worst))
    with chk.stage("sampler"):
        t0 = time.perf_counter()
        rec = tr.call("gas.metropolis_sample", "gas.sampler_s",
                      metropolis_sample, lat, model, sweeps, seed=inp["seed"])
        extras["sweeps_per_s"] = sweeps / (time.perf_counter() - t0)
        if probs is not None:
            tv = tr.call("gas.tv_distance", "gas.tv_distance_s",
                         tv_distance, rec, probs)
            floor = iid_tv_floor(probs, int(round(rec.sample_size)),
                                 inp["seed"])
            extras["tv_distance"] = tv
            extras["tv_bound"] = TV_MARGIN * floor
            chk.expect("tv below %.3f x iid floor" % TV_MARGIN,
                       tv < TV_MARGIN * floor,
                       "tv %.4f, floor %.4f" % (tv, floor))
        tr.count("gas.acceptance_ratio", rec.accepted / rec.proposed)
        tr.count("gas.states_visited", len(rec.tallies))
        tr.count("gas.sweeps_per_s", extras["sweeps_per_s"])
        tr.count("gas.tv_distance", extras.get("tv_distance", 0.0))
    return extras


# ---------------------------------------------------------------------------
# probes of single layers, made only in the traced run
# ---------------------------------------------------------------------------


def _per_op_us(fn, operands, batch):
    """Median over batches of the time per call, in microseconds."""
    times = []
    for i in range(0, len(operands) - batch + 1, batch):
        chunk = operands[i:i + batch]
        t0 = time.perf_counter_ns()
        for a, b in chunk:
            fn(a, b)
        times.append((time.perf_counter_ns() - t0) / batch / 1e3)
    return float(np.median(times))


def _mul(a, b):
    return a * b


def _inv(a, _):
    return a.inverse()


def _field_operands(rng, field, count):
    def element():
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(field.degree)]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        return field.element(coeffs)
    return [(element(), element()) for _ in range(count)]


def _ratfunc_operands(rng, count):
    def poly(deg):
        c = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((-1, 1))]
        return c
    return [(RationalFunc(poly(rng.randint(1, 4)), poly(rng.randint(1, 3))),
             RationalFunc(poly(rng.randint(1, 4)), poly(rng.randint(1, 3))))
            for _ in range(count)]


def run_probes(seed, tr):
    """Seeded operand probes of ``scalars`` and a seeded state probe of
    ``lattice.extract_walls`` on the 3x3 torus.  Returns metric values."""
    rng = random.Random(seed)
    out = {}
    with tr.span("probe.scalars"):
        for ell in (2, 3, 5):
            field = SpecialField(ell)
            ops = _field_operands(rng, field, 2000)
            out["scalars.field_mul_us.l%d" % ell] = _per_op_us(_mul, ops, 50)
            out["scalars.field_inv_us.l%d" % ell] = \
                _per_op_us(_inv, ops[:400], 20)
        out["scalars.ratfunc_mul_us"] = \
            _per_op_us(_mul, _ratfunc_operands(rng, 500), 25)
    with tr.span("probe.extract_walls"):
        lat = SquareTorusLattice(3, 3)
        configs = [lat.config(rng.getrandbits(lat.nsites))
                   for _ in range(2000)]
        times = []
        for config in configs:
            t0 = time.perf_counter_ns()
            lat.extract_walls(config)
            times.append((time.perf_counter_ns() - t0) / 1e3)
        out["lattice.extract_walls_us.p50"] = float(np.percentile(times, 50))
        out["lattice.extract_walls_us.p99"] = float(np.percentile(times, 99))
    return out


WORKLOADS = {
    "tl-jw": (setup_tl_jw, run_tl_jw),
    "tl-ideal": (setup_tl_ideal, run_tl_ideal),
    "torus-kernel": (setup_torus_kernel, run_torus_kernel),
    "fk-gas": (setup_fk_gas, run_fk_gas),
}
