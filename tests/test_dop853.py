"""The Dormand-Prince 8(5,3) stepper behind ``settle`` and ``integrate``.

The tableau is read back from the unrolled loop itself, so the order
conditions and the comparison with scipy check the coefficients that run,
at the stages they multiply.  The loop forms the weighted sum s = sum b_j k_j
once, takes v = u + h*s and the 3rd-order estimate e3 = s - sum bhh_j k_j,
as Hairer's DOP853 does; E3 is rebuilt here as B - BHH.
"""

import ast
import copy
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from conftest import (
    perturbed_fixed_state,
    random_lasing_three_level,
    random_lasing_two_level,
)
import lasekit._dop853 as dop853
import lasekit.dynamics as dynamics
from lasekit import (
    BlochState3,
    IntegratorConfig,
    PhysicalThreeLevel,
    PumpScheme,
    fixed_point_state,
    integrate,
    n_three_physical,
    settle,
)

README_3L = PhysicalThreeLevel(
    n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
    gamma_21=1.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0,
    scheme=PumpScheme.B,
)
# the nodes of Prince & Dormand's 8th-order method, stages 2 to 12
SQRT6 = math.sqrt(6.0)
NODES = {
    2: (12.0 - 2.0 * SQRT6) / 135.0, 3: (6.0 - SQRT6) / 45.0,
    4: (6.0 - SQRT6) / 30.0, 5: (6.0 + SQRT6) / 30.0, 6: 1.0 / 3.0,
    7: 0.25, 8: 4.0 / 13.0, 9: 127.0 / 195.0, 10: 0.6, 11: 6.0 / 7.0, 12: 1.0,
}
STAGE = re.compile(r"k(\d+)_(\d)$")


def _coefficient(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_coefficient(node.operand)
    assert isinstance(node, ast.Constant) and isinstance(node.value, float)
    return node.value


def _terms(node, sign=1.0):
    """(stage, component, coefficient) of each ``c * k<stage>_<component>``
    term of a sum."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        yield from _terms(node.left, sign)
        yield from _terms(node.right, sign if isinstance(node.op, ast.Add) else -sign)
        return
    assert isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
    stage, component = STAGE.match(node.right.id).groups()
    yield int(stage), int(component), sign * _coefficient(node.left)


def _row(sums):
    """One tableau row from the four unrolled component sums, which must
    agree term by term."""
    rows = []
    for component, node in enumerate(sums):
        terms = list(_terms(node))
        assert {c for _, c, _ in terms} == {component}
        rows.append({stage: coef for stage, _, coef in terms})
    assert all(row == rows[0] for row in rows)
    return rows[0]


def _increment(node, component):
    """The sum S of ``u<component> + h * (S)``, or None for another shape."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Name) and node.left.id == f"u{component}"):
        return None
    step = node.right
    if not (isinstance(step, ast.BinOp) and isinstance(step.op, ast.Mult)
            and isinstance(step.left, ast.Name) and step.left.id == "h"):
        return None
    return step.right


def _difference(node, component):
    """The sum S of ``s<component> - (S)``, or None for another shape."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Name) and node.left.id == f"s{component}"):
        return None
    return node.right


def _renamed(node, names):
    """The ast dump of ``node`` with each name in ``names`` renamed."""
    node = copy.deepcopy(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            sub.id = names.get(sub.id, sub.id)
    return ast.dump(node)


def _closure_equations():
    """The rho00 expression and the four derivatives of the closure that
    ``dynamics._rhs_of`` returns, as ast dumps."""
    fn = ast.parse(inspect.getsource(dynamics._rhs_of)).body[0]
    rhs = next(node for node in fn.body if isinstance(node, ast.FunctionDef))
    (rho00, ret) = rhs.body
    assert rho00.targets[0].id == "rho00"
    return _renamed(rho00.value, {}), [_renamed(e, {}) for e in ret.value.elts]


def _tableau():
    """(A, B, E5, BHH, evaluations) as read from the loop: A maps stage i
    to its row {j: a_ij}, the others map stage j to its weight, and
    ``evaluations`` lists the stages whose derivative is the closure of
    ``dynamics._rhs_of`` written out, term for term."""
    tree = ast.parse(inspect.getsource(dop853.dop853_loop))
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.While))
    closure_rho00, closure = _closure_equations()
    a, named, stage_sums, evaluations = {}, {}, {}, []
    for node in loop.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            continue
        target = node.targets[0].id
        # a stage state w<c> = u<c> + h * (S), the derivative there
        # k<i>_<c> over rho00 = r; the last stage runs at v
        if re.match(r"w\d$", target):
            component = int(target[1])
            stage_sums[component] = _increment(node.value, component)
            continue
        stage = STAGE.match(target)
        if target == "r" or stage:
            point = "w" if stage_sums else "v"
            names = {f"{point}{c}": name for c, name in enumerate(("rho11", "rho22", "yq", "xq"))}
            names["r"] = "rho00"
            if target == "r":
                assert _renamed(node.value, names) == closure_rho00
                continue
            i, component = int(stage.group(1)), int(stage.group(2))
            assert _renamed(node.value, names) == closure[component], target
            if component == 3:
                evaluations.append(i)
                if stage_sums:
                    assert len(stage_sums) == 4 and None not in stage_sums.values()
                    a[i] = _row([stage_sums[c] for c in range(4)])
                    stage_sums = {}
            continue
        # the weighted sum s<c> = (S), the solution v<c> = u<c> + h * s<c>
        # and the estimates e5_<c> = (S) and e3_<c> = s<c> - (S)
        match = re.match(r"(s|v|e5_|e3_)(\d)$", target)
        if match is None:
            continue
        name, component = match.group(1), int(match.group(2))
        if name == "v":
            step = _increment(node.value, component)
            assert isinstance(step, ast.Name) and step.id == f"s{component}"
            named.setdefault(name, set()).add(component)
            continue
        node_sum = node.value if name != "e3_" else _difference(node.value, component)
        assert node_sum is not None, target
        named.setdefault(name, [None] * 4)[component] = node_sum
    assert named["v"] == {0, 1, 2, 3}
    return a, _row(named["s"]), _row(named["e5_"]), _row(named["e3_"]), evaluations


A, B, E5, BHH, EVALUATIONS = _tableau()
E3 = {j: B.get(j, 0.0) - BHH.get(j, 0.0) for j in sorted(B.keys() | BHH.keys())}


def test_tableau_shape():
    # 12 stages; zero entries are skipped in every sum
    assert sorted(A) == list(range(2, 13))
    # each stage and the FSAL point evaluate the closure's equations,
    # written out in the same order
    assert EVALUATIONS == list(range(2, 14))
    assert all(max(row) < i for i, row in A.items())
    assert sum(len(row) for row in A.values()) == 50
    assert sorted(B) == sorted(E5) == sorted(E3) == [1, 6, 7, 8, 9, 10, 11, 12]
    assert sorted(BHH) == [1, 9, 12]


def test_tableau_order_conditions():
    c = {1: 0.0}
    for i, row in A.items():
        c[i] = math.fsum(row.values())
        assert c[i] == pytest.approx(NODES[i], abs=1e-14), i
    # the quadrature conditions of an 8th-order method: sum b_i c_i**(q-1) = 1/q
    for q in range(1, 9):
        assert math.fsum(b * c[j] ** (q - 1) for j, b in B.items()) == pytest.approx(
            1.0 / q, abs=1e-14
        ), q
    # each estimate is the difference of two solutions of order >= 5 (>= 3)
    for e, order in ((E5, 5), (E3, 3)):
        for q in range(1, order + 1):
            assert math.fsum(w * c[j] ** (q - 1) for j, w in e.items()) == pytest.approx(
                0.0, abs=1e-14
            ), (order, q)


def test_literals_match_scipy():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

    def check(ours, theirs, what):
        for j, value in enumerate(theirs, start=1):
            value = float(value)
            if value == 0.0:
                assert j not in ours, (what, j)
            else:
                assert abs(ours[j] - value) <= math.ulp(value), (what, j)

    for i, row in A.items():
        check(row, coeffs.A[i - 1, :i - 1], f"A{i}")
    check(B, coeffs.A[12, :12], "B")
    check(E5, coeffs.E5[:12], "E5")
    # scipy keeps E3 = B - BHH; its BHH is B - E3
    check(BHH, coeffs.A[12, :12] - coeffs.E3[:12], "BHH")
    check(E3, coeffs.E3[:12], "E3")


def _fixed_step_end(h, t_max):
    # tolerances of 1 accept every step, so each step is max_step long; a
    # cutoff of 1e-300 keeps the polish and the steady exit from firing
    cfg = IntegratorConfig(rel_tol=1.0, abs_tol=1.0, steady_tol=1e-300,
                           max_step=h, t_max=t_max)
    res = settle(README_3L, config=cfg)
    assert not res.converged and res.rejected_steps == 0
    return dynamics._state_tuple(BlochState3, res.state)


def test_fixed_step_error_falls_as_eighth_power():
    # errors from 8e-5 down to 5e-10 against a 1600-step reference, far
    # above its rounding floor of about 1e-13
    t_max = 2.0
    ref = _fixed_step_end(t_max / 1600, t_max)
    errors = [
        max(abs(a - b) for a, b in zip(_fixed_step_end(h, t_max), ref))
        for h in (0.1, 0.05, 0.025)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.0 ** 7 < coarse / fine < 2.0 ** 9


def test_step_controller_rejects_few_attempts():
    # the PI controller keeps the accept -> grow -> reject cycle rare: on
    # the first 10 criterion-01 draws 7.8 % of the step attempts are
    # rejected, against 20.3 % with the plain 0.9*err**(-1/8) controller
    rng = np.random.default_rng(20250810)
    accepted = rejected = 0
    for _ in range(10):
        p = random_lasing_three_level(rng)
        res = settle(p, initial=perturbed_fixed_state(p))
        assert res.converged
        accepted += res.steps
        rejected += res.rejected_steps
    assert rejected / (accepted + rejected) < 0.15


def _count_rhs(monkeypatch):
    """Count the calls of each right-hand side ``dynamics._rhs_of`` hands
    out, in the order handed out."""
    counts = []
    rhs_of = dynamics._rhs_of

    def counting_rhs_of(par):
        rhs = rhs_of(par)
        index = len(counts)
        counts.append(0)

        def counted(*u):
            counts[index] += 1
            return rhs(*u)

        return counted

    monkeypatch.setattr(dynamics, "_rhs_of", counting_rhs_of)
    return counts


def test_settle_counts_rhs_evaluations(monkeypatch):
    counts = _count_rhs(monkeypatch)
    res = settle(README_3L)
    assert res.converged and res.polish_attempts >= 1
    # one closure per run, which the Newton polish shares; its calls are
    # left out of the count
    assert len(counts) == 1
    assert res.rhs_evaluations == 2 + 12 * (res.steps + res.rejected_steps)
    counts.clear()
    # the stepper calls the closure at the start and in the first-step
    # probe only: its stages write the equations out
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_polish", lambda *args: None)
        res = settle(README_3L)
    assert res.converged and res.steps > 0
    assert counts == [2]
    counts.clear()
    res = settle(README_3L, initial=fixed_point_state(README_3L))
    assert res.converged and res.steps == 0
    assert res.rhs_evaluations == counts[0] == 1


def _pinned_draws():
    """The first 12 criterion-01 and 8 criterion-02 draws of the seeds of
    ``test_settle_work_matches_numpy_newton_step``."""
    rng3 = np.random.default_rng(20250810)
    rng2 = np.random.default_rng(20250811)
    draws = [random_lasing_three_level(rng3) for _ in range(12)]
    return draws + [random_lasing_two_level(rng2)[0] for _ in range(8)]


# settle of each pinned draw from its nudged fixed point: (live state
# components, time, steps, rejected_steps, polish_attempts,
# rhs_evaluations), bit for bit, and the steps the run took when the
# polish was tried on its schedule alone, which bound its steps
SETTLE_PINS = [
    ((0.000707551066458516, 0.9987479860599894, 0.00028318025806069955, 5.259797119738817), 19.740131738590517, 332, 1, 22, 3998, 362),
    ((0.4147067337105991, 0.17059858759262456, 0.0022141180479845033, 17.544440600498998), 1.6623962948717, 686, 79, 27, 9182, 887),
    ((0.38087887881419175, 0.24652305692584814, 0.05359133825861162, 11.813261778979847), 0.47299403483796654, 9, 0, 7, 110, 11),
    ((0.004566150932906923, 0.994383694484704, 0.001890426511842554, 4.52302467151829), 1.3324374687549725, 33, 1, 12, 410, 37),
    ((0.0026316813909458892, 0.9950184610203808, 0.00034800132155700207, 7.132385975319222), 4.199974169864938, 50, 1, 14, 614, 59),
    ((0.22590252165404223, 0.5520101034031011, 0.0019156225222446614, 9.141381121049559), 6.978678113657553, 56, 7, 14, 758, 59),
    ((0.4439423540271034, 0.1389271041001225, 0.06194181436858726, 84.58564005452347), 1.4988960035645176, 39, 3, 13, 506, 47),
    ((0.0066571128356475275, 0.9866932044503679, 0.00021874966966432374, 19.097143722574607), 8.254180785051835, 1222, 163, 29, 16622, 1387),
    ((0.002906953587634983, 0.9943344688036722, 0.0006287487281404535, 17.251598468047707), 4.681982259656937, 178, 10, 19, 2258, 184),
    ((0.4113527059736966, 0.23923365073503133, 0.1015997512269614, 492.23094033608385), 25.38609025705055, 655, 2, 25, 7886, 709),
    ((0.10285049722051597, 0.8782238621110042, 0.03799286880200773, 6.602634534638908), 6.568052587870839, 46, 7, 13, 638, 47),
    ((0.016323028574686763, 0.9684034025145535, 0.00303446776348121, 43.50059030628429), 63.75359362472225, 491, 21, 24, 6146, 567),
    ((0.6996180263372552, 0.3462874328677113, 1180.0064289622906), 7.475911155056618, 1007, 4, 27, 12134, 1109),
    ((0.6476128457226061, 0.24081610561028072, 776.0984194942494), 10.660395600573644, 484, 2, 24, 5834, 567),
    ((0.5077833992763873, 0.04008269247827942, 134.87945106405584), 4.136306676661181, 174, 30, 19, 2450, 184),
    ((0.5000150292786587, 0.0035466864168132903, 24.169020466480813), 2.718816219844723, 565, 65, 24, 7562, 567),
    ((0.5046799374404269, 0.06424358120981039, 13.755275527154899), 1.4342984387741629, 78, 6, 16, 1010, 93),
    ((0.6528959292075788, 0.3254538060207843, 923.0757631497133), 8.221440058711355, 379, 3, 23, 4586, 453),
    ((0.5198763057064153, 0.1379821524219547, 12.393677866915603), 0.09908418858734439, 15, 2, 9, 206, 18),
    ((0.5980218910601239, 0.23683587453904129, 13.169359664388793), 0.4378096666868244, 38, 2, 13, 482, 47),

]


def test_settle_runs_are_pinned_bit_for_bit():
    # the record mode of the loop must leave every settle run as it was
    for p, (*pin, schedule_steps) in zip(_pinned_draws(), SETTLE_PINS, strict=True):
        res = settle(p, initial=perturbed_fixed_state(p))
        assert res.converged
        got = (dataclasses.astuple(res.state), res.time, res.steps, res.rejected_steps, res.polish_attempts,
               res.rhs_evaluations)
        assert got == tuple(pin), p
        assert res.steps <= schedule_steps, p


def test_run_that_does_not_stop_never_polishes(monkeypatch):
    def polish(*args):
        raise AssertionError("the run tried the Newton polish")

    monkeypatch.setattr(dynamics, "_polish", polish)
    series = integrate(README_3L, config=IntegratorConfig(t_max=50.0))
    assert not series.steady and series.times[-1] == 50.0
    # settle from the same start reaches its polish well before t = 50
    with pytest.raises(AssertionError, match="tried the Newton polish"):
        settle(README_3L, config=IntegratorConfig(t_max=50.0))


def test_recorded_run_stops_on_the_root():
    series = integrate(README_3L, config=IntegratorConfig(t_max=50.0), stop_at_steady=True)
    assert series.steady and series.times[-1] < 50.0
    n = n_three_physical(README_3L).photon_number
    assert abs(series.photon_numbers[-1] - n) <= 1e-12 * n


def _recorded_starts():
    """README_3L from the seed field, and the first two criterion-01 and
    criterion-02 draws from their nudged fixed points."""
    draws = _pinned_draws()
    return [(README_3L, None)] + [(p, perturbed_fixed_state(p)) for p in draws[:2] + draws[12:14]]


def test_stopped_recording_is_a_prefix_of_the_unpolished_run(monkeypatch):
    # the polish only cuts the run short: every row before the root is the
    # row the run without it records, and the root keeps its step's t
    for p, start in _recorded_starts():
        stopped = integrate(p, initial=start, stop_at_steady=True)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_polish", lambda *args: None)
            unpolished = integrate(p, initial=start, stop_at_steady=True)
        assert stopped.steady and unpolished.steady
        rows = len(stopped.times)
        assert rows < len(unpolished.times)
        assert np.array_equal(stopped.times, unpolished.times[:rows])
        assert np.array_equal(stopped.states[:-1], unpolished.states[:rows - 1])
        assert not np.array_equal(stopped.states[-1], unpolished.states[rows - 1])


def test_recorded_run_and_settle_share_one_exit(monkeypatch):
    # where no Newton attempt succeeds, settle's scheduled ones change
    # nothing, and settle and a recorded run are the same loop: same end
    # time, state and step count
    monkeypatch.setattr(dynamics, "_polish", lambda *args: None)
    for p, start in _recorded_starts():
        res = settle(p, initial=start)
        series = integrate(p, initial=start, stop_at_steady=True)
        assert res.converged and series.steady
        assert series.times[-1] == res.time
        assert tuple(series.states[-1].tolist()) == dataclasses.astuple(res.state)
        assert len(series.times) - 1 == res.steps
        assert series.derivative_norm == res.derivative_norm


def test_recorded_run_never_aims(monkeypatch):
    # every Newton attempt misses and aims at the state it was tried from:
    # settle tries again on the steps that follow, near the end of a
    # decay, while a recorded run tries only at its approach to the cutoff
    calls = []

    def miss(par, rhs, u, f, steady_tol):
        calls.append(u)
        return None, u

    start = perturbed_fixed_state(README_3L)
    monkeypatch.setattr(dynamics, "_polish", miss)
    series = integrate(README_3L, initial=start, stop_at_steady=True)
    assert series.steady and len(calls) == 1
    aimed = settle(README_3L, initial=start)
    monkeypatch.setattr(dynamics, "_polish", lambda *args: None)
    unaimed = settle(README_3L, initial=start)
    assert aimed.converged and unaimed.converged
    assert aimed.steps == unaimed.steps == len(series.times) - 1
    assert aimed.polish_attempts > unaimed.polish_attempts


def test_run_that_does_not_stop_keeps_its_tolerances():
    # a cutoff that never ends the run must not tighten the tolerances
    # either: from next to the fixed point, where the derivative norm
    # falls below 1e4 times either cutoff, both record the same rows
    start = perturbed_fixed_state(README_3L)
    runs = [
        integrate(README_3L, initial=start,
                  config=IntegratorConfig(t_max=30.0, steady_tol=tol))
        for tol in (1e-10, 1e-3)
    ]
    assert not runs[0].steady and runs[0].times[-1] == 30.0
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].states, runs[1].states)
    # stopping at steady with the loose cutoff does tighten, and ends early
    stopped = integrate(README_3L, initial=start,
                        config=IntegratorConfig(t_max=30.0, steady_tol=1e-3),
                        stop_at_steady=True)
    assert stopped.steady and stopped.times[-1] < 30.0


@pytest.mark.parametrize("stop_at_steady", [True, False])
def test_recorded_run_outside_state_space_raises_as_settle_does(stop_at_steady):
    # tolerances this loose carry the run to rho11 + rho22 > 1 by t = 1.47;
    # a recorded run checks its state on settle's schedule and at the end,
    # so it stops there with settle's error instead of returning rows with
    # a negative population
    config = IntegratorConfig(rel_tol=0.3, abs_tol=0.3, t_max=3.0)
    with pytest.raises(ValueError, match="outside the physical state space") as expected:
        settle(README_3L, config=config)
    with pytest.raises(ValueError) as err:
        integrate(README_3L, config=config, stop_at_steady=stop_at_steady)
    assert str(err.value) == str(expected.value)
