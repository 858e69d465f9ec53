"""Tests of the benchmark's own parts: the oracle accepts the README goldens
and rejects single perturbations, the generators are seeded and
constructive, and the traced replay reproduces the pipeline byte for byte.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracle  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402
from workloads import Instance  # noqa: E402


def _real_instance(xs, ys, weights=None):
    doc = {"schema": "v1", "setting": "real", "zn": [str(x) for x in xs], "zm": [str(y) for y in ys]}
    if weights:
        doc["weights"] = weights
    return Instance(0, json.dumps(doc), "real", "rational", "", len(xs), len(ys), 0, tuple(xs), tuple(ys))


def _circle_instance(thetas, phis):
    doc = {"schema": "v1", "setting": "circle", "zn": list(thetas), "zm": list(phis)}
    return Instance(0, json.dumps(doc), "circle", "float64", "", len(thetas), len(phis), 0, tuple(thetas), tuple(phis))


GOLDEN_REAL = _real_instance((1, 2, 3, 4), (F(3, 2), F(7, 2)))
GOLDEN_PARAM = _real_instance(
    (1, 2, 3, 4), (F(3, 2), F(7, 2)), {"strategy": "coefficients", "coefficients": {"s1": "3"}}
)
GOLDEN_SEVEN = _real_instance(tuple(range(7)), (F(1, 2), F(5, 2), F(9, 2)))
GOLDEN_CIRCLE = _circle_instance((math.pi / 2, 4 * math.pi / 3, 5 * math.pi / 3), (0.0, math.pi))


def _solution(instance):
    _, solution, text = stages.solve(instance.text)
    assert solution.report.verdict
    return json.loads(text)


def _check(doc, instance):
    oracle.check(json.dumps(doc), instance)


@pytest.mark.parametrize("instance", [GOLDEN_REAL, GOLDEN_PARAM, GOLDEN_SEVEN, GOLDEN_CIRCLE])
def test_oracle_accepts_goldens(instance):
    _check(_solution(instance), instance)


def _bump(value, rel):
    if isinstance(value, str):
        return str(F(value) * (1 + F(rel).limit_denominator(10**9)))
    return value * (1 + rel)


@pytest.mark.parametrize("instance", [GOLDEN_REAL, GOLDEN_SEVEN])
# A large perturbation already moves the Gauss weights; a small one only
# moves the spectrum out of its windows.
@pytest.mark.parametrize("rel,error", [(1e-3, oracle.Reject), (1e-7, oracle.WindowMiss)])
def test_oracle_rejects_perturbed_beta(instance, rel, error):
    doc = _solution(instance)
    k = len(doc["recurrence"]["beta"]) // 2
    doc["recurrence"]["beta"][k] = _bump(doc["recurrence"]["beta"][k], rel)
    doc["matrices"]["jacobi"][k][k] = doc["recurrence"]["beta"][k]  # stay consistent
    with pytest.raises(error):
        _check(doc, instance)


def test_oracle_rejects_inconsistent_matrix():
    doc = _solution(GOLDEN_REAL)
    doc["matrices"]["jacobi"][0][0] = _bump(doc["matrices"]["jacobi"][0][0], 1e-3)
    with pytest.raises(oracle.Reject, match="matrix"):
        _check(doc, GOLDEN_REAL)


@pytest.mark.parametrize("instance", [GOLDEN_REAL, GOLDEN_SEVEN, GOLDEN_CIRCLE])
def test_oracle_rejects_perturbed_omega(instance):
    doc = _solution(instance)
    doc["omega"][1] = _bump(doc["omega"][1], 1e-3)
    with pytest.raises(oracle.Reject, match="Gauss weight"):
        _check(doc, instance)


@pytest.mark.parametrize("delta,error", [(1e-3, oracle.Reject), (1e-7, oracle.WindowMiss)])
def test_oracle_rejects_perturbed_alpha(delta, error):
    doc = _solution(GOLDEN_CIRCLE)
    rec = doc["recurrence"]
    rec["alpha"][1]["re"] += delta
    alpha = [complex(a["re"], a["im"]) for a in rec["alpha"]]
    b_n = complex(rec["b_n"]["re"], rec["b_n"]["im"])
    # Rebuild the matrix from the perturbed alpha, so only the spectrum is off.
    doc["matrices"]["c_n"] = [
        [{"re": z.real, "im": z.imag} for z in row] for row in oracle.cmv_entries(alpha, b_n)
    ]
    with pytest.raises(error):
        _check(doc, GOLDEN_CIRCLE)


def _with_weights(instance, weights):
    doc = json.loads(instance.text)
    doc["weights"] = weights
    return replace(instance, text=json.dumps(doc))


@pytest.mark.parametrize(
    "instance,asked,given",
    [
        (GOLDEN_SEVEN, {"strategy": "sum_all"}, {"strategy": "cover"}),
        (GOLDEN_SEVEN, {"strategy": "cover"}, {"strategy": "sum_all"}),
        (GOLDEN_SEVEN, {"strategy": "coefficients", "coefficients": {"s7": "2"}}, {"strategy": "cover"}),
        (GOLDEN_CIRCLE, {"strategy": "sum_all"}, {"strategy": "cover"}),
    ],
)
def test_oracle_rejects_other_positive_kernel_vector(instance, asked, given):
    # A solution of another strategy is a consistent reconstruction from a
    # positive kernel vector, so only the strategy check can reject it.
    asked, given = _with_weights(instance, asked), _with_weights(instance, given)
    _check(_solution(asked), asked)
    with pytest.raises(oracle.Reject, match="strategy"):
        _check(_solution(given), asked)


def test_oracle_rejects_wrong_points():
    doc = _solution(GOLDEN_REAL)
    moved = _real_instance((1, 2, 3, F(41, 10)), (F(3, 2), F(7, 2)))
    with pytest.raises(oracle.Reject):
        _check(doc, moved)


def test_sturm_counts_small_matrix():
    # tridiag(1, 0, 1) of order 3 has eigenvalues -sqrt(2), 0, sqrt(2).
    beta, gamma = [0.0, 0.0, 0.0], [1.0, 1.0]
    assert [oracle.sturm_below(beta, gamma, 3, t) for t in (-2, -1, 0.5, 2)] == [0, 1, 2, 3]


def test_gauss_weights_of_known_measure():
    # Equal weights on -1, 0, 1: beta = 0, gamma = (2/3, 1/3).
    lam = oracle.gauss_weights([0.0, 0.0, 0.0], [2 / 3, 1 / 3], [-1.0, 0.0, 1.0])
    assert lam == pytest.approx([1 / 3] * 3, rel=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded_with_fixed_shapes(name):
    a = workloads.WORKLOADS[name](3)
    b = workloads.WORKLOADS[name](3)
    c = workloads.WORKLOADS[name](4)
    assert [i.text for i in a] == [i.text for i in b]
    assert [i.text for i in a] != [i.text for i in c]
    shape = lambda i: (i.n, i.m, i.strategy, i.family if name == "line_sumall" else None)
    assert [shape(i) for i in a] == [shape(i) for i in c]


def test_generators_are_constructive_at_large_n():
    start = time.perf_counter()
    rng = workloads._rng("test", 0, 0)
    xs = workloads._cumulative(rng, 800, -10.0, 10.0, 0.01)
    assert time.perf_counter() - start < 1.0
    assert all(b - a >= 0.01 for a, b in zip(xs, xs[1:]))
    assert -10.0 < xs[0] and xs[-1] < 10.0


def test_sumall_grid_straddles_list_limit():
    props = workloads.input_properties(workloads.WORKLOADS["line_sumall"](1))
    assert 0.5 < props["family_over_list_limit_frac"] < 0.8
    assert props["family"]["min"] <= 100 and props["family"]["max"] >= 10**5


@pytest.mark.parametrize(
    "name,index", [("line_exact", 1), ("line_float", 0), ("line_sumall", 0), ("circle", 0)]
)
def test_replay_matches_pipeline_and_oracle(name, index):
    instance = workloads.WORKLOADS[name](1)[index]
    _, _, text = stages.solve(instance.text)
    tracer = stages.Tracer()
    _, _, replayed = stages.replay(instance.text, tracer, index, 0)
    assert replayed == text
    names = {s.name for s in tracer.spans}
    assert {stages.FILES_LOAD, stages.KERNEL, stages.VERIFY, stages.FILES_ENCODE} <= names
    oracle.check(text, instance)


def test_replay_records_failing_stage():
    doc = {"schema": "v1", "setting": "real", "zn": ["1", "2"], "zm": ["3"]}
    tracer = stages.Tracer()
    with pytest.raises(Exception) as err:
        stages.replay(json.dumps(doc), tracer, 0, 0)
    assert err.value.code == "OUT_OF_RANGE"
    assert tracer.spans[-1].name == stages.INTERLACING
    assert tracer.spans[-1].error == "OUT_OF_RANGE"
