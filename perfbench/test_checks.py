"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_checks.py -q

Each job's real output must pass its check, and each deliberately
corrupted copy of it (one flipped coefficient, one wrong h, c off by 1%,
...) must fail it, so that no check passes vacuously.  The references
are also tested against slower textbook formulas, and the tracer's self
times against a hand-built call tree.
"""

import contextlib
import copy
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import layers  # noqa: E402
import refs  # noqa: E402

ALL_JOBS = [(name, job) for name, workload in jobs.WORKLOADS.items() for job in workload]


@pytest.fixture(scope="module")
def cache():
    return jobs.ReferenceCache()


def _run_cli(argv):
    from modpforms import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return out.getvalue(), rc


def _corruptions(job, text):
    """(label, corrupted stdout, exit code) for one job's real output."""
    if not job.json_out:  # the oracle's match line
        got, total = text.split()[1].split("/")
        yield "one mismatch", f"match: {int(got) - 1}/{total}\n", 1
        yield "one index missing", f"match: {int(got) - 1}/{int(total) - 1}\n", 0
        return
    out = json.loads(text)
    command = job.argv[0]

    def variant(label, edit):
        bad = copy.deepcopy(out)
        edit(bad)
        return label, json.dumps(bad), 0

    if command in ("count", "compare"):

        def flip(o):  # one coefficient changes from value 1 to value 2
            o["per_value"]["1"][-1] -= 1
            o["per_value"]["2"][-1] += 1

        def zero_to_one(o):  # one zero coefficient becomes 1
            o["pi"][0] += 1
            o["per_value"]["1"][0] += 1

        yield variant("one flipped coefficient", flip)
        yield variant("one zero coefficient made nonzero", zero_to_one)
        yield variant("one square-free count off", lambda o: o["pi_sf"].__setitem__(1, o["pi_sf"][1] + 1))
    if command in ("compare", "predict"):
        yield variant("c off by 1%", lambda o: o.__setitem__("c", o["c"] * 1.01))
        yield variant("wrong h", lambda o: o.__setitem__("h", o["h"] + 1))
        yield variant("wrong alpha", lambda o: o.__setitem__("alpha", "1/3"))
    if command == "predict":
        yield variant("c_err too large", lambda o: o.__setitem__("c_err", o["c"]))
    if command == "module":
        yield variant("wrong h", lambda o: o.__setitem__("h", o["h"] + 1))
        yield variant("wrong conductor", lambda o: o.__setitem__("conductor", 2 * o["conductor"]))
        yield variant("wrong gamma order", lambda o: o.__setitem__("gamma_order", o["gamma_order"] + 1))
        for ci, cls in enumerate(out["classes"]):
            for i, row in enumerate(cls["matrix"]):
                for j in range(len(row)):

                    def flip_entry(o, ci=ci, i=i, j=j):
                        m = o["classes"][ci]["matrix"]
                        m[i][j] = (m[i][j] + 1) % o["p"]

                    yield variant(f"class {cls['class']} entry ({i},{j}) flipped", flip_entry)
    if command == "decompose":
        yield variant("wrong h", lambda o: o["components"][0].__setitem__("h", o["components"][0]["h"] + 1))
        for ci, comp in enumerate(out["components"]):
            for n in range(len(comp["coeffs_prefix"])):

                def flip_coeff(o, ci=ci, n=n):
                    prefix = o["components"][ci]["coeffs_prefix"]
                    prefix[n] = (prefix[n] + 1) % o["p"]

                yield variant(f"component {ci} coefficient {n} flipped", flip_coeff)
    if command == "constants":
        yield variant("C(U) off by 1%", lambda o: o["components"][0].__setitem__("value", o["components"][0]["value"] * 1.01))
        yield variant("wrong beta", lambda o: o["components"][0].__setitem__("beta", "1/3"))


@pytest.mark.parametrize("workload,job", ALL_JOBS, ids=[f"{w}:{' '.join(j.argv)}" for w, j in ALL_JOBS])
def test_check_accepts_real_output_and_rejects_corruptions(workload, job, cache):
    expected = job.expected(cache)
    text, rc = _run_cli(job.argv)
    job.verify(text, rc, expected)
    labels = []
    for label, bad, bad_rc in _corruptions(job, text):
        labels.append(label)
        with pytest.raises(jobs.CheckError):
            job.verify(bad, bad_rc, expected)
    assert labels, "no corruption exercised this check"


def test_tau_congruences_match_the_eta_product():
    tau = refs.delta_power_prefix(1, 80)
    assert tau[:6] == [0, 1, -24, 252, -1472, 4830]
    for p in refs.TAU_CONGRUENCE:
        assert list(refs.tau_mod(80, p)) == [t % p for t in tau]
        assert list(refs.theta_delta_mod(80, p)) == [n * t % p for n, t in enumerate(tau)]


def test_divisor_sieve_and_squarefree_mask_match_trial_division():
    n = 500
    for e, p in ((1, 3), (3, 7), (5, 11)):
        naive = [sum(d**e for d in range(1, k + 1) if k % d == 0) % p if k else 0 for k in range(n)]
        assert list(refs.sigma_mod(n, e, p)) == naive
    sf = [k > 0 and all(k % (q * q) for q in range(2, k + 1)) for k in range(n)]
    assert list(refs.squarefree_mask(n)) == sf


def test_delta_constant_matches_a_direct_product_for_small_bounds():
    # the closed local factor against the truncated series sum_k [tau(l^k) != 0] / l^k
    p, bound = 5, 200
    tau = {}
    for ell in refs.primes_upto(bound):
        ell = int(ell)
        j, e = refs.TAU_CONGRUENCE[p]
        tau[ell] = [0 if ell == p and k else sum(pow(ell, e * i, p) for i in range(k + 1)) % p for k in range(60)]
    beta = float(1 - refs.alpha_delta(p))
    log_c = sum(beta * math.log1p(-1 / ell) + math.log(sum(1 / ell**k for k, t in enumerate(ts) if t)) for ell, ts in tau.items())
    assert refs.delta_constant(p, bound) == pytest.approx(math.exp(log_c) / math.gamma(beta), rel=1e-12)


def test_self_times_add_up_to_the_command_time():
    rec = layers.Recorder()

    def leaf():
        time.sleep(0.01)

    def inner():
        wrapped_leaf()
        time.sleep(0.01)

    wrapped_leaf = rec.span("series.delta_power", leaf)
    wrapped_inner = rec.span("series.mul", inner)
    counted = rec.counted("linalg.matvec", lambda: None)
    t0 = time.perf_counter()
    wrapped_inner()
    wrapped_leaf()
    counted()
    totals = rec.totals(time.perf_counter() - t0)
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(totals["trace.wall_s"], rel=1e-12)
    assert totals["series.delta_power.calls"] == 2 and totals["series.mul.calls"] == 1
    assert totals["linalg.matvec.calls"] == 1
    assert 0.0099 <= totals["series.mul.self_s"] < 0.05
    assert [s[1] for s in rec.spans] == [-1, 0, -1]


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
