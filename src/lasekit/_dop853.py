"""The one stepper of :mod:`lasekit.dynamics`: an explicit adaptive
Dormand-Prince 8(5,3) pair.

Prince & Dormand, J. Comput. Appl. Math. 7 (1981) 67, in the form of
Hairer's DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, sections II.5 and II.10): 12 stages with first-same-as-last
reuse, so 12 right-hand side evaluations per step, the 8th-order solution,
and an error estimate that blends the embedded 5th- and 3rd-order
differences.  As in Hairer's code the weighted sum s = sum b_j k_j is formed
once: the solution is u + h*s and the 3rd-order difference is
s - sum bhh_j k_j, over the three nonzero weights of the 3rd-order
solution.  Near a lasing fixed point the step is set by the weakly damped
relaxation oscillation, not by stiffness, and the 8th-order pair covers one
period in few right-hand side evaluations.  ``dynamics._run`` is its one
caller; :func:`dop853_loop` states the rule that ends a run, which only
recording changes: a run that records nothing tries the Newton polish on
a schedule of accepted steps, whatever the cavity, and again on the first
step whose state comes within the polish's ball of the root that a
failed attempt was heading for.

The step size follows Hairer's PI (Gustafsson) controller with beta = 0.04
(Hairer & Wanner, Solving ODEs II, sec. IV.2): after an accepted step h
grows by 0.9 * err**-(1/8 - 0.2*beta) * err_old**beta, limited to
[0.333, 6], where err_old is the last accepted error, at least 1e-4 (and
1e-4 before the first step); an error of 0 grows h by 6; a rejected step
shrinks h by max(0.333, 0.9 * err**-(1/8 - 0.2*beta)).  The memory of the
last error damps the accept -> grow -> reject cycle of the plain
0.9 * err**(-1/8) controller.

The stages are unrolled over four scalar float locals.  The coefficients
are float literals, and the zero entries of the tableau are left out of
every sum.  The right-hand side of ``dynamics._rhs_of``, the one set of
equations of both atoms, is written into each of the 12 evaluations of a
step, FSAL's included, with the same operations in the same order, so a
stage gives bit for bit what a call of the closure gives; a call per
stage would cost about 10 % of a step.  The closure itself serves the
derivative at the start, the first-step heuristic and the Newton
polish.  The error norm makes no function call but ``abs`` and
``sqrt``: it squares by multiplication, which overflows to inf without
raising.  The first-step heuristic, the state check, the stability
test, the Newton polish and the step record layout are looked up on
:mod:`lasekit.dynamics`.
"""

import math

from . import dynamics


def dop853_loop(par, y0, n, t_max, rtol, atol, max_step, steady_tol, record):
    """Adaptive DOP853 from t = 0 until a stable fixed point or t_max.

    ``par`` and ``y0`` are float tuples (see ``dynamics._rhs_of``), the
    state as four floats (rho11, rho22, y, x) for either atom; ``n`` is
    the number of fields of its state class, over which the error norm
    takes its mean.  Returns (status, t, y, f_norm, counts, steps): status
    ``dynamics._STEADY``, ``_TMAX`` or ``_UNDERFLOW`` (step-size
    underflow), the end state ``y`` as four floats, and ``counts`` =
    (accepted steps, rejected steps, polish attempts, right-hand side
    evaluations of the stepper, the polish's left out).

    The rule that ends a run:

    - A steady exit, the one at t = 0 included, needs the derivative norm
      below the cutoff steady_tol*(||y|| + 1) and a Hurwitz Jacobian
      (``dynamics._hurwitz``).  The stability test is spent once per
      approach and re-arms only after the norm rises above 1e5 times the
      cutoff, so a run that meets the cutoff at an unstable fixed point
      goes on.
    - Within 1e4 of the cutoff the tolerances are tightened, never beyond
      the rounding floor, so the stepper's own noise, O(atol + rtol*|y|)
      per step, stays below it; above 1e5 times the cutoff they loosen
      again.  A steady_tol of 0 never fires and never tightens: the run
      goes to t_max at the tolerances it was given.
    - Within 1e4 of the cutoff, once per approach, Newton's method
      (``dynamics._polish``) is tried.  A root it accepts (one within
      1e-3*(||y|| + 1) that meets the cutoff, is physical and is stable)
      ends the run as steady, in the place of the last step's state.
    - When the count of accepted steps reaches k = 1, 2, 3, 4, 6, 8, 11,
      14, 18, ..., each term k + 1 + k // 4 after the last, a state
      outside the physical state space (``dynamics._physical``, on the
      floats) ends the run there with the
      status of a run out of time, for the caller to raise on.  A run
      that records nothing also tries the polish at those counts, which
      saves work on either side of the Lorenz-Haken condition; a recorded
      run does not, since there an early root would show as a jump of up
      to the polish's ball.  The ball, not the cavity, keeps a pulsing
      orbit that passes near a fixed point from ending the run.
    - The schedule's gaps grow by a quarter, so it may try the polish up
      to a quarter of a run's steps after the state entered the ball.  A
      run that records nothing therefore also aims.  An attempt that fails
      because a Newton iterate left the ball hands back that iterate,
      Newton's estimate of the root (``dynamics._polish``).  The polish is
      tried again on the first accepted step whose state lies within
      1e-3*(||y|| + 1) of it, a test of a dozen float operations.  Each
      attempt replaces the aim with its own, or drops it.  A run whose
      rel_tol or abs_tol exceeds 1e-3 does not aim: its steps may err by
      more than the ball, so a state inside it says little about the
      flow.  Every attempt, scheduled, aimed or at the approach, takes a
      root only on the same terms.

    With ``record``, ``steps`` holds (t, u0, u1, u2, u3) of the initial
    state and of every accepted step, packed as ``dynamics._STEP`` records
    in one ``bytearray``; otherwise it is None.  Recording changes nothing
    but the scheduled and aimed attempts: where none succeeds, a recorded
    run and an unrecorded one end at the same t, state and step count.
    """
    rhs = dynamics._rhs_of(par)
    # the rates and folded constants of rhs, for the stages written out below
    n_at, g, kappa, g21, g02, g10, gperp, pump = par
    g2, ng, nkappa, ngperp = 2.0 * g, n_at * g, -kappa, -gperp
    polish_armed = check_armed = True
    # whether (a0, a1, a2, a3) holds a root to aim at, and whether the run
    # aims at all (see above)
    aiming = False
    can_aim = not record and rtol <= 1e-3 and atol <= 1e-3
    accepted = rejected = attempts = 0
    next_try = 1
    t = 0.0
    u0, u1, u2, u3 = y0
    k1_0, k1_1, k1_2, k1_3 = rhs(u0, u1, u2, u3)
    fnorm = dynamics._norm(k1_0, k1_1, k1_2, k1_3)
    pack_step = dynamics._STEP.pack
    steps = bytearray(pack_step(t, u0, u1, u2, u3)) if record else None

    if fnorm < steady_tol * (dynamics._norm(u0, u1, u2, u3) + 1.0):
        if dynamics._hurwitz(par, u0, u1, u2, u3):
            return dynamics._STEADY, t, (u0, u1, u2, u3), fnorm, (0, 0, 0, 1), steps
        check_armed = False

    h = dynamics._first_step(rhs, (u0, u1, u2, u3), (k1_0, k1_1, k1_2, k1_3), n,
                             t_max, rtol, atol, max_step)

    # tightening (see above); the floor keeps the error scale of a zero
    # component (the empty level 2 of the two-level atom) positive should
    # atol*tighten underflow
    tighten = 1.0
    tighten_min = min(1.0, 5e-14 / rtol)
    atol_eff = max(atol, 5e-324)
    rtol_eff = rtol
    sqrt = math.sqrt
    sqrt_n = sqrt(n)
    facold = 1e-4  # Hairer's start value of the last accepted error

    status = dynamics._TMAX
    while t < t_max:
        floor = 1e-14 * t if t > 1.0 else 1e-14  # t >= 0
        remaining = t_max - t
        if remaining <= floor:
            break  # arrived within rounding of the horizon
        if h > max_step:
            h = max_step
        if h > remaining:
            h = remaining
        if h < floor:
            # the error controller, not the horizon, drove h to zero
            status = dynamics._UNDERFLOW
            break

        # stages 2-12 (FSAL: k1 already holds f(t, y)), the 8th-order
        # solution v and f(t + h, v) as the next step's k1
        w0 = u0 + h * (0.05260015195876773 * k1_0)
        w1 = u1 + h * (0.05260015195876773 * k1_1)
        w2 = u2 + h * (0.05260015195876773 * k1_2)
        w3 = u3 + h * (0.05260015195876773 * k1_3)
        r = 1.0 - w0 - w1
        k2_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k2_1 = g02 * r - g21 * w1
        k2_2 = ngperp * w2 + g * w3 * (w0 - r)
        k2_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.0197250569845379 * k1_0 + 0.0591751709536137 * k2_0)
        w1 = u1 + h * (0.0197250569845379 * k1_1 + 0.0591751709536137 * k2_1)
        w2 = u2 + h * (0.0197250569845379 * k1_2 + 0.0591751709536137 * k2_2)
        w3 = u3 + h * (0.0197250569845379 * k1_3 + 0.0591751709536137 * k2_3)
        r = 1.0 - w0 - w1
        k3_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k3_1 = g02 * r - g21 * w1
        k3_2 = ngperp * w2 + g * w3 * (w0 - r)
        k3_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.02958758547680685 * k1_0 + 0.08876275643042054 * k3_0)
        w1 = u1 + h * (0.02958758547680685 * k1_1 + 0.08876275643042054 * k3_1)
        w2 = u2 + h * (0.02958758547680685 * k1_2 + 0.08876275643042054 * k3_2)
        w3 = u3 + h * (0.02958758547680685 * k1_3 + 0.08876275643042054 * k3_3)
        r = 1.0 - w0 - w1
        k4_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k4_1 = g02 * r - g21 * w1
        k4_2 = ngperp * w2 + g * w3 * (w0 - r)
        k4_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.2413651341592667 * k1_0 - 0.8845494793282861 * k3_0
                       + 0.924834003261792 * k4_0)
        w1 = u1 + h * (0.2413651341592667 * k1_1 - 0.8845494793282861 * k3_1
                       + 0.924834003261792 * k4_1)
        w2 = u2 + h * (0.2413651341592667 * k1_2 - 0.8845494793282861 * k3_2
                       + 0.924834003261792 * k4_2)
        w3 = u3 + h * (0.2413651341592667 * k1_3 - 0.8845494793282861 * k3_3
                       + 0.924834003261792 * k4_3)
        r = 1.0 - w0 - w1
        k5_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k5_1 = g02 * r - g21 * w1
        k5_2 = ngperp * w2 + g * w3 * (w0 - r)
        k5_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.037037037037037035 * k1_0 + 0.17082860872947386 * k4_0
                       + 0.12546768756682242 * k5_0)
        w1 = u1 + h * (0.037037037037037035 * k1_1 + 0.17082860872947386 * k4_1
                       + 0.12546768756682242 * k5_1)
        w2 = u2 + h * (0.037037037037037035 * k1_2 + 0.17082860872947386 * k4_2
                       + 0.12546768756682242 * k5_2)
        w3 = u3 + h * (0.037037037037037035 * k1_3 + 0.17082860872947386 * k4_3
                       + 0.12546768756682242 * k5_3)
        r = 1.0 - w0 - w1
        k6_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k6_1 = g02 * r - g21 * w1
        k6_2 = ngperp * w2 + g * w3 * (w0 - r)
        k6_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.037109375 * k1_0 + 0.17025221101954405 * k4_0
                       + 0.06021653898045596 * k5_0 - 0.017578125 * k6_0)
        w1 = u1 + h * (0.037109375 * k1_1 + 0.17025221101954405 * k4_1
                       + 0.06021653898045596 * k5_1 - 0.017578125 * k6_1)
        w2 = u2 + h * (0.037109375 * k1_2 + 0.17025221101954405 * k4_2
                       + 0.06021653898045596 * k5_2 - 0.017578125 * k6_2)
        w3 = u3 + h * (0.037109375 * k1_3 + 0.17025221101954405 * k4_3
                       + 0.06021653898045596 * k5_3 - 0.017578125 * k6_3)
        r = 1.0 - w0 - w1
        k7_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k7_1 = g02 * r - g21 * w1
        k7_2 = ngperp * w2 + g * w3 * (w0 - r)
        k7_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.03709200011850479 * k1_0 + 0.17038392571223998 * k4_0
                       + 0.10726203044637328 * k5_0 - 0.015319437748624402 * k6_0
                       + 0.008273789163814023 * k7_0)
        w1 = u1 + h * (0.03709200011850479 * k1_1 + 0.17038392571223998 * k4_1
                       + 0.10726203044637328 * k5_1 - 0.015319437748624402 * k6_1
                       + 0.008273789163814023 * k7_1)
        w2 = u2 + h * (0.03709200011850479 * k1_2 + 0.17038392571223998 * k4_2
                       + 0.10726203044637328 * k5_2 - 0.015319437748624402 * k6_2
                       + 0.008273789163814023 * k7_2)
        w3 = u3 + h * (0.03709200011850479 * k1_3 + 0.17038392571223998 * k4_3
                       + 0.10726203044637328 * k5_3 - 0.015319437748624402 * k6_3
                       + 0.008273789163814023 * k7_3)
        r = 1.0 - w0 - w1
        k8_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k8_1 = g02 * r - g21 * w1
        k8_2 = ngperp * w2 + g * w3 * (w0 - r)
        k8_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.6241109587160757 * k1_0 - 3.3608926294469414 * k4_0
                       - 0.868219346841726 * k5_0 + 27.59209969944671 * k6_0
                       + 20.154067550477894 * k7_0 - 43.48988418106996 * k8_0)
        w1 = u1 + h * (0.6241109587160757 * k1_1 - 3.3608926294469414 * k4_1
                       - 0.868219346841726 * k5_1 + 27.59209969944671 * k6_1
                       + 20.154067550477894 * k7_1 - 43.48988418106996 * k8_1)
        w2 = u2 + h * (0.6241109587160757 * k1_2 - 3.3608926294469414 * k4_2
                       - 0.868219346841726 * k5_2 + 27.59209969944671 * k6_2
                       + 20.154067550477894 * k7_2 - 43.48988418106996 * k8_2)
        w3 = u3 + h * (0.6241109587160757 * k1_3 - 3.3608926294469414 * k4_3
                       - 0.868219346841726 * k5_3 + 27.59209969944671 * k6_3
                       + 20.154067550477894 * k7_3 - 43.48988418106996 * k8_3)
        r = 1.0 - w0 - w1
        k9_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k9_1 = g02 * r - g21 * w1
        k9_2 = ngperp * w2 + g * w3 * (w0 - r)
        k9_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (0.47766253643826434 * k1_0 - 2.4881146199716677 * k4_0
                       - 0.590290826836843 * k5_0 + 21.230051448181193 * k6_0
                       + 15.279233632882423 * k7_0 - 33.28821096898486 * k8_0
                       - 0.020331201708508627 * k9_0)
        w1 = u1 + h * (0.47766253643826434 * k1_1 - 2.4881146199716677 * k4_1
                       - 0.590290826836843 * k5_1 + 21.230051448181193 * k6_1
                       + 15.279233632882423 * k7_1 - 33.28821096898486 * k8_1
                       - 0.020331201708508627 * k9_1)
        w2 = u2 + h * (0.47766253643826434 * k1_2 - 2.4881146199716677 * k4_2
                       - 0.590290826836843 * k5_2 + 21.230051448181193 * k6_2
                       + 15.279233632882423 * k7_2 - 33.28821096898486 * k8_2
                       - 0.020331201708508627 * k9_2)
        w3 = u3 + h * (0.47766253643826434 * k1_3 - 2.4881146199716677 * k4_3
                       - 0.590290826836843 * k5_3 + 21.230051448181193 * k6_3
                       + 15.279233632882423 * k7_3 - 33.28821096898486 * k8_3
                       - 0.020331201708508627 * k9_3)
        r = 1.0 - w0 - w1
        k10_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k10_1 = g02 * r - g21 * w1
        k10_2 = ngperp * w2 + g * w3 * (w0 - r)
        k10_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (-0.9371424300859873 * k1_0 + 5.186372428844064 * k4_0
                       + 1.0914373489967295 * k5_0 - 8.149787010746927 * k6_0
                       - 18.52006565999696 * k7_0 + 22.739487099350505 * k8_0
                       + 2.4936055526796523 * k9_0 - 3.0467644718982196 * k10_0)
        w1 = u1 + h * (-0.9371424300859873 * k1_1 + 5.186372428844064 * k4_1
                       + 1.0914373489967295 * k5_1 - 8.149787010746927 * k6_1
                       - 18.52006565999696 * k7_1 + 22.739487099350505 * k8_1
                       + 2.4936055526796523 * k9_1 - 3.0467644718982196 * k10_1)
        w2 = u2 + h * (-0.9371424300859873 * k1_2 + 5.186372428844064 * k4_2
                       + 1.0914373489967295 * k5_2 - 8.149787010746927 * k6_2
                       - 18.52006565999696 * k7_2 + 22.739487099350505 * k8_2
                       + 2.4936055526796523 * k9_2 - 3.0467644718982196 * k10_2)
        w3 = u3 + h * (-0.9371424300859873 * k1_3 + 5.186372428844064 * k4_3
                       + 1.0914373489967295 * k5_3 - 8.149787010746927 * k6_3
                       - 18.52006565999696 * k7_3 + 22.739487099350505 * k8_3
                       + 2.4936055526796523 * k9_3 - 3.0467644718982196 * k10_3)
        r = 1.0 - w0 - w1
        k11_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k11_1 = g02 * r - g21 * w1
        k11_2 = ngperp * w2 + g * w3 * (w0 - r)
        k11_3 = nkappa * w3 + ng * w2
        w0 = u0 + h * (2.273310147516538 * k1_0 - 10.53449546673725 * k4_0
                       - 2.0008720582248625 * k5_0 - 17.9589318631188 * k6_0
                       + 27.94888452941996 * k7_0 - 2.8589982771350235 * k8_0
                       - 8.87285693353063 * k9_0 + 12.360567175794303 * k10_0
                       + 0.6433927460157636 * k11_0)
        w1 = u1 + h * (2.273310147516538 * k1_1 - 10.53449546673725 * k4_1
                       - 2.0008720582248625 * k5_1 - 17.9589318631188 * k6_1
                       + 27.94888452941996 * k7_1 - 2.8589982771350235 * k8_1
                       - 8.87285693353063 * k9_1 + 12.360567175794303 * k10_1
                       + 0.6433927460157636 * k11_1)
        w2 = u2 + h * (2.273310147516538 * k1_2 - 10.53449546673725 * k4_2
                       - 2.0008720582248625 * k5_2 - 17.9589318631188 * k6_2
                       + 27.94888452941996 * k7_2 - 2.8589982771350235 * k8_2
                       - 8.87285693353063 * k9_2 + 12.360567175794303 * k10_2
                       + 0.6433927460157636 * k11_2)
        w3 = u3 + h * (2.273310147516538 * k1_3 - 10.53449546673725 * k4_3
                       - 2.0008720582248625 * k5_3 - 17.9589318631188 * k6_3
                       + 27.94888452941996 * k7_3 - 2.8589982771350235 * k8_3
                       - 8.87285693353063 * k9_3 + 12.360567175794303 * k10_3
                       + 0.6433927460157636 * k11_3)
        r = 1.0 - w0 - w1
        k12_0 = pump * r + g21 * w1 - g10 * w0 - g2 * w3 * w2
        k12_1 = g02 * r - g21 * w1
        k12_2 = ngperp * w2 + g * w3 * (w0 - r)
        k12_3 = nkappa * w3 + ng * w2
        s0 = (0.054293734116568765 * k1_0 + 4.450312892752409 * k6_0
              + 1.8915178993145003 * k7_0 - 5.801203960010585 * k8_0
              + 0.3111643669578199 * k9_0 - 0.1521609496625161 * k10_0
              + 0.20136540080403034 * k11_0 + 0.04471061572777259 * k12_0)
        s1 = (0.054293734116568765 * k1_1 + 4.450312892752409 * k6_1
              + 1.8915178993145003 * k7_1 - 5.801203960010585 * k8_1
              + 0.3111643669578199 * k9_1 - 0.1521609496625161 * k10_1
              + 0.20136540080403034 * k11_1 + 0.04471061572777259 * k12_1)
        s2 = (0.054293734116568765 * k1_2 + 4.450312892752409 * k6_2
              + 1.8915178993145003 * k7_2 - 5.801203960010585 * k8_2
              + 0.3111643669578199 * k9_2 - 0.1521609496625161 * k10_2
              + 0.20136540080403034 * k11_2 + 0.04471061572777259 * k12_2)
        s3 = (0.054293734116568765 * k1_3 + 4.450312892752409 * k6_3
              + 1.8915178993145003 * k7_3 - 5.801203960010585 * k8_3
              + 0.3111643669578199 * k9_3 - 0.1521609496625161 * k10_3
              + 0.20136540080403034 * k11_3 + 0.04471061572777259 * k12_3)
        v0 = u0 + h * s0
        v1 = u1 + h * s1
        v2 = u2 + h * s2
        v3 = u3 + h * s3
        r = 1.0 - v0 - v1
        k13_0 = pump * r + g21 * v1 - g10 * v0 - g2 * v3 * v2
        k13_1 = g02 * r - g21 * v1
        k13_2 = ngperp * v2 + g * v3 * (v0 - r)
        k13_3 = nkappa * v3 + ng * v2

        e5_0 = (0.01312004499419488 * k1_0 - 1.2251564463762044 * k6_0
                - 0.4957589496572502 * k7_0 + 1.6643771824549864 * k8_0
                - 0.35032884874997366 * k9_0 + 0.3341791187130175 * k10_0
                + 0.08192320648511571 * k11_0 - 0.022355307863886294 * k12_0)
        e5_1 = (0.01312004499419488 * k1_1 - 1.2251564463762044 * k6_1
                - 0.4957589496572502 * k7_1 + 1.6643771824549864 * k8_1
                - 0.35032884874997366 * k9_1 + 0.3341791187130175 * k10_1
                + 0.08192320648511571 * k11_1 - 0.022355307863886294 * k12_1)
        e5_2 = (0.01312004499419488 * k1_2 - 1.2251564463762044 * k6_2
                - 0.4957589496572502 * k7_2 + 1.6643771824549864 * k8_2
                - 0.35032884874997366 * k9_2 + 0.3341791187130175 * k10_2
                + 0.08192320648511571 * k11_2 - 0.022355307863886294 * k12_2)
        e5_3 = (0.01312004499419488 * k1_3 - 1.2251564463762044 * k6_3
                - 0.4957589496572502 * k7_3 + 1.6643771824549864 * k8_3
                - 0.35032884874997366 * k9_3 + 0.3341791187130175 * k10_3
                + 0.08192320648511571 * k11_3 - 0.022355307863886294 * k12_3)
        # the 3rd-order solution shares the weights of the 8th-order one
        e3_0 = s0 - (0.2440944881889764 * k1_0 + 0.7338466882816118 * k9_0
                   + 0.022058823529411766 * k12_0)
        e3_1 = s1 - (0.2440944881889764 * k1_1 + 0.7338466882816118 * k9_1
                   + 0.022058823529411766 * k12_1)
        e3_2 = s2 - (0.2440944881889764 * k1_2 + 0.7338466882816118 * k9_2
                   + 0.022058823529411766 * k12_2)
        e3_3 = s3 - (0.2440944881889764 * k1_3 + 0.7338466882816118 * k9_3
                   + 0.022058823529411766 * k12_3)

        # Hairer's blend of the 5th- and 3rd-order estimates: h*e5 scaled
        # by |e5|/sqrt(|e5|**2 + 0.01*|e3|**2), which behaves as h**8.  The
        # conditional is builtin max, NaN included; a product that
        # overflows gives inf without raising
        a = abs(u0)
        b = abs(v0)
        sc0 = atol_eff + rtol_eff * (b if b > a else a)
        a = abs(u1)
        b = abs(v1)
        sc1 = atol_eff + rtol_eff * (b if b > a else a)
        a = abs(u2)
        b = abs(v2)
        sc2 = atol_eff + rtol_eff * (b if b > a else a)
        a = abs(u3)
        b = abs(v3)
        sc3 = atol_eff + rtol_eff * (b if b > a else a)
        q0 = e5_0 / sc0
        q1 = e5_1 / sc1
        q2 = e5_2 / sc2
        q3 = e5_3 / sc3
        err5 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
        q0 = e3_0 / sc0
        q1 = e3_1 / sc1
        q2 = e3_2 / sc2
        q3 = e3_3 / sc3
        err3 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
        deno = err5 + 0.01 * err3
        if deno == 0.0:
            errnorm = 0.0
        elif deno < math.inf:
            errnorm = h * err5 / (sqrt(deno) * sqrt_n)
        else:  # an overflowed (or NaN) estimate rejects the step
            errnorm = math.inf

        if errnorm <= 1.0:
            t += h
            u0, u1, u2, u3 = v0, v1, v2, v3
            k1_0, k1_1, k1_2, k1_3 = k13_0, k13_1, k13_2, k13_3  # FSAL
            accepted += 1
            # dynamics._norm of the derivative and of the state
            fnorm = sqrt(k1_0 * k1_0 + k1_1 * k1_1 + k1_2 * k1_2 + k1_3 * k1_3)
            scale = sqrt(u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3) + 1.0
            target = steady_tol * scale
            if fnorm > 1e5 * target:
                polish_armed = check_armed = True
            if record:
                steps += pack_step(t, u0, u1, u2, u3)
            attempt = False
            if accepted == next_try:
                next_try += 1 + next_try // 4
                if not dynamics._physical(u0, u1, u2, u3):
                    break  # the caller raises on the unphysical end state
                attempt = not record
            if polish_armed and fnorm < 1e4 * target:
                polish_armed = False
                attempt = True
            if aiming and not attempt:
                # the first state within the polish's ball of the aim
                e0 = u0 - a0
                e1 = u1 - a1
                e2 = u2 - a2
                e3 = u3 - a3
                radius = 1e-3 * scale
                attempt = e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3 <= radius * radius
            if attempt:
                attempts += 1
                found = dynamics._polish(par, rhs, (u0, u1, u2, u3),
                                         (k1_0, k1_1, k1_2, k1_3), steady_tol)
                if found is not None and found[0] is not None:
                    (u0, u1, u2, u3), fnorm = found
                    if record:  # the root takes the last step's row, at its t
                        steps[-dynamics._STEP.size:] = pack_step(t, u0, u1, u2, u3)
                    status = dynamics._STEADY
                    break
                # a miss may name the root Newton was heading for: the aim
                aiming = found is not None and can_aim
                if aiming:
                    a0, a1, a2, a3 = found[1]
            if fnorm < target:
                if check_armed and dynamics._hurwitz(par, u0, u1, u2, u3):
                    status = dynamics._STEADY
                    break
                check_armed = False
            if fnorm < 1e4 * target and tighten > tighten_min:
                tighten = max(0.25 * tighten, tighten_min)
                atol_eff = max(atol * tighten, 5e-324)
                rtol_eff = rtol * tighten
            elif fnorm > 1e5 * target and tighten < 1.0:
                tighten = min(4.0 * tighten, 1.0)
                atol_eff = max(atol * tighten, 5e-324)
                rtol_eff = rtol * tighten
            # PI control (Gustafsson; Hairer's beta = 0.04): the exponent
            # 1/8 - 0.2*beta on this error, beta on the last accepted one;
            # the compiler folds the constant expression
            if errnorm == 0.0:
                h *= 6.0
            else:
                fac = 0.9 * errnorm ** -(0.125 - 0.2 * 0.04) * facold ** 0.04
                h *= 6.0 if fac > 6.0 else (0.333 if fac < 0.333 else fac)
            facold = errnorm if errnorm > 1e-4 else 1e-4
        else:
            rejected += 1
            h *= max(0.333, 0.9 * errnorm ** -(0.125 - 0.2 * 0.04))

    # the start, the first-step probe and 12 per attempted step
    rhs_evaluations = 2 + 12 * (accepted + rejected)
    counts = (accepted, rejected, attempts, rhs_evaluations)
    return status, t, (u0, u1, u2, u3), fnorm, counts, steps
