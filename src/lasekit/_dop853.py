"""The stepper behind :func:`lasekit.dynamics.settle`: an explicit adaptive
Dormand-Prince 8(5,3) pair.

Prince & Dormand, J. Comput. Appl. Math. 7 (1981) 67, in the form of
Hairer's DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, sections II.5 and II.10): 12 stages with first-same-as-last
reuse, so 12 right-hand side evaluations per step, the 8th-order solution,
and an error estimate that blends the embedded 5th- and 3rd-order
differences.  Near a lasing fixed point the step is set by the weakly
damped relaxation oscillation, not by stiffness, and at the tolerances
``settle`` runs at the 8th-order pair covers one period in fewer
evaluations than the 5(4) pair that :func:`lasekit.dynamics.integrate`
records with.

As in ``dynamics._dp45_loop`` the stages are unrolled over four scalar
float locals.  The coefficients are float literals, and the zero entries
of the tableau are left out of every sum.  The right-hand side, the norms,
the first-step heuristic, the stability test and the Newton polish are
looked up on :mod:`lasekit.dynamics`, so both steppers share them.  Only
``settle`` imports this module.
"""

import math

from . import dynamics


def dop853_loop(model, par, y0, n, t_max, rtol, atol, max_step, steady_tol, schedule):
    """Adaptive DOP853 from t = 0 until a stable fixed point or t_max.

    The arguments are those of ``dynamics._dp45_loop``.  Returns (status,
    t, y, f_norm, counts), with status and the end state ``y`` as there
    and ``counts`` = (accepted steps, rejected steps, polish attempts).

    A steady exit, the one at t = 0 included, needs a Hurwitz Jacobian.
    Newton's method (``dynamics._polish``) finishes the solve once the
    derivative norm is within 1e4 of the cutoff.  One polish and one
    stability test are spent per approach: both re-arm only after the norm
    rises above 1e5 times the cutoff again.  With ``schedule`` (set on the
    good-cavity side only) the polish is also tried when the count of
    accepted steps reaches k = 1, 2, 3, 4, 6, 8, 11, 14, 18, ..., each
    term k + 1 + k // 4 after the last.
    """
    rhs = dynamics._rhs_of(model, par)
    norm = dynamics._norm
    sq = dynamics._sq
    polish_armed = check_armed = True
    accepted = rejected = attempts = 0
    next_try = 1
    t = 0.0
    u0, u1, u2, u3 = y0
    k1_0, k1_1, k1_2, k1_3 = rhs(u0, u1, u2, u3)
    fnorm = norm(k1_0, k1_1, k1_2, k1_3)

    if fnorm < steady_tol * (norm(u0, u1, u2, u3) + 1.0):
        if dynamics._hurwitz(model, par, u0, u1, u2, u3):
            return dynamics._STEADY, t, (u0, u1, u2, u3)[:n], fnorm, (0, 0, 0)
        check_armed = False

    h = dynamics._first_step(rhs, (u0, u1, u2, u3), (k1_0, k1_1, k1_2, k1_3), n,
                             t_max, rtol, atol, max_step, 8)

    # tightening as in dynamics._dp45_loop: the stepper's own noise floor
    # must stay below the cutoff, down to the rounding floor
    tighten = 1.0
    tighten_min = min(1.0, 5e-14 / rtol)
    sqrt_n = math.sqrt(n)

    status = dynamics._TMAX
    while t < t_max:
        # the floor keeps the error scale of a zero component (the
        # two-level padding) positive should atol*tighten underflow
        atol_eff = max(atol * tighten, 5e-324)
        rtol_eff = rtol * tighten
        floor = 1e-14 * max(1.0, abs(t))
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
        k2_0, k2_1, k2_2, k2_3 = rhs(
            u0 + h * (0.05260015195876773 * k1_0),
            u1 + h * (0.05260015195876773 * k1_1),
            u2 + h * (0.05260015195876773 * k1_2),
            u3 + h * (0.05260015195876773 * k1_3),
        )
        k3_0, k3_1, k3_2, k3_3 = rhs(
            u0 + h * (0.0197250569845379 * k1_0 + 0.0591751709536137 * k2_0),
            u1 + h * (0.0197250569845379 * k1_1 + 0.0591751709536137 * k2_1),
            u2 + h * (0.0197250569845379 * k1_2 + 0.0591751709536137 * k2_2),
            u3 + h * (0.0197250569845379 * k1_3 + 0.0591751709536137 * k2_3),
        )
        k4_0, k4_1, k4_2, k4_3 = rhs(
            u0 + h * (0.02958758547680685 * k1_0 + 0.08876275643042054 * k3_0),
            u1 + h * (0.02958758547680685 * k1_1 + 0.08876275643042054 * k3_1),
            u2 + h * (0.02958758547680685 * k1_2 + 0.08876275643042054 * k3_2),
            u3 + h * (0.02958758547680685 * k1_3 + 0.08876275643042054 * k3_3),
        )
        k5_0, k5_1, k5_2, k5_3 = rhs(
            u0 + h * (0.2413651341592667 * k1_0 - 0.8845494793282861 * k3_0
                      + 0.924834003261792 * k4_0),
            u1 + h * (0.2413651341592667 * k1_1 - 0.8845494793282861 * k3_1
                      + 0.924834003261792 * k4_1),
            u2 + h * (0.2413651341592667 * k1_2 - 0.8845494793282861 * k3_2
                      + 0.924834003261792 * k4_2),
            u3 + h * (0.2413651341592667 * k1_3 - 0.8845494793282861 * k3_3
                      + 0.924834003261792 * k4_3),
        )
        k6_0, k6_1, k6_2, k6_3 = rhs(
            u0 + h * (0.037037037037037035 * k1_0 + 0.17082860872947386 * k4_0
                      + 0.12546768756682242 * k5_0),
            u1 + h * (0.037037037037037035 * k1_1 + 0.17082860872947386 * k4_1
                      + 0.12546768756682242 * k5_1),
            u2 + h * (0.037037037037037035 * k1_2 + 0.17082860872947386 * k4_2
                      + 0.12546768756682242 * k5_2),
            u3 + h * (0.037037037037037035 * k1_3 + 0.17082860872947386 * k4_3
                      + 0.12546768756682242 * k5_3),
        )
        k7_0, k7_1, k7_2, k7_3 = rhs(
            u0 + h * (0.037109375 * k1_0 + 0.17025221101954405 * k4_0
                      + 0.06021653898045596 * k5_0 - 0.017578125 * k6_0),
            u1 + h * (0.037109375 * k1_1 + 0.17025221101954405 * k4_1
                      + 0.06021653898045596 * k5_1 - 0.017578125 * k6_1),
            u2 + h * (0.037109375 * k1_2 + 0.17025221101954405 * k4_2
                      + 0.06021653898045596 * k5_2 - 0.017578125 * k6_2),
            u3 + h * (0.037109375 * k1_3 + 0.17025221101954405 * k4_3
                      + 0.06021653898045596 * k5_3 - 0.017578125 * k6_3),
        )
        k8_0, k8_1, k8_2, k8_3 = rhs(
            u0 + h * (0.03709200011850479 * k1_0 + 0.17038392571223998 * k4_0
                      + 0.10726203044637328 * k5_0 - 0.015319437748624402 * k6_0
                      + 0.008273789163814023 * k7_0),
            u1 + h * (0.03709200011850479 * k1_1 + 0.17038392571223998 * k4_1
                      + 0.10726203044637328 * k5_1 - 0.015319437748624402 * k6_1
                      + 0.008273789163814023 * k7_1),
            u2 + h * (0.03709200011850479 * k1_2 + 0.17038392571223998 * k4_2
                      + 0.10726203044637328 * k5_2 - 0.015319437748624402 * k6_2
                      + 0.008273789163814023 * k7_2),
            u3 + h * (0.03709200011850479 * k1_3 + 0.17038392571223998 * k4_3
                      + 0.10726203044637328 * k5_3 - 0.015319437748624402 * k6_3
                      + 0.008273789163814023 * k7_3),
        )
        k9_0, k9_1, k9_2, k9_3 = rhs(
            u0 + h * (0.6241109587160757 * k1_0 - 3.3608926294469414 * k4_0
                      - 0.868219346841726 * k5_0 + 27.59209969944671 * k6_0
                      + 20.154067550477894 * k7_0 - 43.48988418106996 * k8_0),
            u1 + h * (0.6241109587160757 * k1_1 - 3.3608926294469414 * k4_1
                      - 0.868219346841726 * k5_1 + 27.59209969944671 * k6_1
                      + 20.154067550477894 * k7_1 - 43.48988418106996 * k8_1),
            u2 + h * (0.6241109587160757 * k1_2 - 3.3608926294469414 * k4_2
                      - 0.868219346841726 * k5_2 + 27.59209969944671 * k6_2
                      + 20.154067550477894 * k7_2 - 43.48988418106996 * k8_2),
            u3 + h * (0.6241109587160757 * k1_3 - 3.3608926294469414 * k4_3
                      - 0.868219346841726 * k5_3 + 27.59209969944671 * k6_3
                      + 20.154067550477894 * k7_3 - 43.48988418106996 * k8_3),
        )
        k10_0, k10_1, k10_2, k10_3 = rhs(
            u0 + h * (0.47766253643826434 * k1_0 - 2.4881146199716677 * k4_0
                      - 0.590290826836843 * k5_0 + 21.230051448181193 * k6_0
                      + 15.279233632882423 * k7_0 - 33.28821096898486 * k8_0
                      - 0.020331201708508627 * k9_0),
            u1 + h * (0.47766253643826434 * k1_1 - 2.4881146199716677 * k4_1
                      - 0.590290826836843 * k5_1 + 21.230051448181193 * k6_1
                      + 15.279233632882423 * k7_1 - 33.28821096898486 * k8_1
                      - 0.020331201708508627 * k9_1),
            u2 + h * (0.47766253643826434 * k1_2 - 2.4881146199716677 * k4_2
                      - 0.590290826836843 * k5_2 + 21.230051448181193 * k6_2
                      + 15.279233632882423 * k7_2 - 33.28821096898486 * k8_2
                      - 0.020331201708508627 * k9_2),
            u3 + h * (0.47766253643826434 * k1_3 - 2.4881146199716677 * k4_3
                      - 0.590290826836843 * k5_3 + 21.230051448181193 * k6_3
                      + 15.279233632882423 * k7_3 - 33.28821096898486 * k8_3
                      - 0.020331201708508627 * k9_3),
        )
        k11_0, k11_1, k11_2, k11_3 = rhs(
            u0 + h * (-0.9371424300859873 * k1_0 + 5.186372428844064 * k4_0
                      + 1.0914373489967295 * k5_0 - 8.149787010746927 * k6_0
                      - 18.52006565999696 * k7_0 + 22.739487099350505 * k8_0
                      + 2.4936055526796523 * k9_0 - 3.0467644718982196 * k10_0),
            u1 + h * (-0.9371424300859873 * k1_1 + 5.186372428844064 * k4_1
                      + 1.0914373489967295 * k5_1 - 8.149787010746927 * k6_1
                      - 18.52006565999696 * k7_1 + 22.739487099350505 * k8_1
                      + 2.4936055526796523 * k9_1 - 3.0467644718982196 * k10_1),
            u2 + h * (-0.9371424300859873 * k1_2 + 5.186372428844064 * k4_2
                      + 1.0914373489967295 * k5_2 - 8.149787010746927 * k6_2
                      - 18.52006565999696 * k7_2 + 22.739487099350505 * k8_2
                      + 2.4936055526796523 * k9_2 - 3.0467644718982196 * k10_2),
            u3 + h * (-0.9371424300859873 * k1_3 + 5.186372428844064 * k4_3
                      + 1.0914373489967295 * k5_3 - 8.149787010746927 * k6_3
                      - 18.52006565999696 * k7_3 + 22.739487099350505 * k8_3
                      + 2.4936055526796523 * k9_3 - 3.0467644718982196 * k10_3),
        )
        k12_0, k12_1, k12_2, k12_3 = rhs(
            u0 + h * (2.273310147516538 * k1_0 - 10.53449546673725 * k4_0
                      - 2.0008720582248625 * k5_0 - 17.9589318631188 * k6_0
                      + 27.94888452941996 * k7_0 - 2.8589982771350235 * k8_0
                      - 8.87285693353063 * k9_0 + 12.360567175794303 * k10_0
                      + 0.6433927460157636 * k11_0),
            u1 + h * (2.273310147516538 * k1_1 - 10.53449546673725 * k4_1
                      - 2.0008720582248625 * k5_1 - 17.9589318631188 * k6_1
                      + 27.94888452941996 * k7_1 - 2.8589982771350235 * k8_1
                      - 8.87285693353063 * k9_1 + 12.360567175794303 * k10_1
                      + 0.6433927460157636 * k11_1),
            u2 + h * (2.273310147516538 * k1_2 - 10.53449546673725 * k4_2
                      - 2.0008720582248625 * k5_2 - 17.9589318631188 * k6_2
                      + 27.94888452941996 * k7_2 - 2.8589982771350235 * k8_2
                      - 8.87285693353063 * k9_2 + 12.360567175794303 * k10_2
                      + 0.6433927460157636 * k11_2),
            u3 + h * (2.273310147516538 * k1_3 - 10.53449546673725 * k4_3
                      - 2.0008720582248625 * k5_3 - 17.9589318631188 * k6_3
                      + 27.94888452941996 * k7_3 - 2.8589982771350235 * k8_3
                      - 8.87285693353063 * k9_3 + 12.360567175794303 * k10_3
                      + 0.6433927460157636 * k11_3),
        )
        v0 = u0 + h * (0.054293734116568765 * k1_0 + 4.450312892752409 * k6_0
                       + 1.8915178993145003 * k7_0 - 5.801203960010585 * k8_0
                       + 0.3111643669578199 * k9_0 - 0.1521609496625161 * k10_0
                       + 0.20136540080403034 * k11_0 + 0.04471061572777259 * k12_0)
        v1 = u1 + h * (0.054293734116568765 * k1_1 + 4.450312892752409 * k6_1
                       + 1.8915178993145003 * k7_1 - 5.801203960010585 * k8_1
                       + 0.3111643669578199 * k9_1 - 0.1521609496625161 * k10_1
                       + 0.20136540080403034 * k11_1 + 0.04471061572777259 * k12_1)
        v2 = u2 + h * (0.054293734116568765 * k1_2 + 4.450312892752409 * k6_2
                       + 1.8915178993145003 * k7_2 - 5.801203960010585 * k8_2
                       + 0.3111643669578199 * k9_2 - 0.1521609496625161 * k10_2
                       + 0.20136540080403034 * k11_2 + 0.04471061572777259 * k12_2)
        v3 = u3 + h * (0.054293734116568765 * k1_3 + 4.450312892752409 * k6_3
                       + 1.8915178993145003 * k7_3 - 5.801203960010585 * k8_3
                       + 0.3111643669578199 * k9_3 - 0.1521609496625161 * k10_3
                       + 0.20136540080403034 * k11_3 + 0.04471061572777259 * k12_3)
        k13_0, k13_1, k13_2, k13_3 = rhs(v0, v1, v2, v3)

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
        e3_0 = (-0.18980075407240762 * k1_0 + 4.450312892752409 * k6_0
                + 1.8915178993145003 * k7_0 - 5.801203960010585 * k8_0
                - 0.4226823213237919 * k9_0 - 0.1521609496625161 * k10_0
                + 0.20136540080403034 * k11_0 + 0.02265179219836082 * k12_0)
        e3_1 = (-0.18980075407240762 * k1_1 + 4.450312892752409 * k6_1
                + 1.8915178993145003 * k7_1 - 5.801203960010585 * k8_1
                - 0.4226823213237919 * k9_1 - 0.1521609496625161 * k10_1
                + 0.20136540080403034 * k11_1 + 0.02265179219836082 * k12_1)
        e3_2 = (-0.18980075407240762 * k1_2 + 4.450312892752409 * k6_2
                + 1.8915178993145003 * k7_2 - 5.801203960010585 * k8_2
                - 0.4226823213237919 * k9_2 - 0.1521609496625161 * k10_2
                + 0.20136540080403034 * k11_2 + 0.02265179219836082 * k12_2)
        e3_3 = (-0.18980075407240762 * k1_3 + 4.450312892752409 * k6_3
                + 1.8915178993145003 * k7_3 - 5.801203960010585 * k8_3
                - 0.4226823213237919 * k9_3 - 0.1521609496625161 * k10_3
                + 0.20136540080403034 * k11_3 + 0.02265179219836082 * k12_3)

        # Hairer's blend of the 5th- and 3rd-order estimates: h*e5 scaled
        # by |e5|/sqrt(|e5|**2 + 0.01*|e3|**2), which behaves as h**8
        sc0 = atol_eff + rtol_eff * max(abs(u0), abs(v0))
        sc1 = atol_eff + rtol_eff * max(abs(u1), abs(v1))
        sc2 = atol_eff + rtol_eff * max(abs(u2), abs(v2))
        sc3 = atol_eff + rtol_eff * max(abs(u3), abs(v3))
        err5 = sq(e5_0 / sc0) + sq(e5_1 / sc1) + sq(e5_2 / sc2) + sq(e5_3 / sc3)
        err3 = sq(e3_0 / sc0) + sq(e3_1 / sc1) + sq(e3_2 / sc2) + sq(e3_3 / sc3)
        deno = err5 + 0.01 * err3
        if deno == 0.0:
            errnorm = 0.0
        elif deno < math.inf:
            errnorm = h * err5 / (math.sqrt(deno) * sqrt_n)
        else:  # an overflowed (or NaN) estimate rejects the step
            errnorm = math.inf

        if errnorm <= 1.0:
            t += h
            u0, u1, u2, u3 = v0, v1, v2, v3
            k1_0, k1_1, k1_2, k1_3 = k13_0, k13_1, k13_2, k13_3  # FSAL
            accepted += 1
            fnorm = norm(k1_0, k1_1, k1_2, k1_3)
            target = steady_tol * (norm(u0, u1, u2, u3) + 1.0)
            if fnorm > 1e5 * target:
                polish_armed = check_armed = True
            attempt = False
            if schedule and accepted == next_try:
                next_try += 1 + next_try // 4
                attempt = True
            if polish_armed and fnorm < 1e4 * target:
                polish_armed = False
                attempt = True
            if attempt:
                attempts += 1
                root = dynamics._polish(model, par, n, (u0, u1, u2, u3), steady_tol)
                if root is not None:
                    (u0, u1, u2, u3), fnorm = root
                    status = dynamics._STEADY
                    break
            if fnorm < target:
                if check_armed and dynamics._hurwitz(model, par, u0, u1, u2, u3):
                    status = dynamics._STEADY
                    break
                check_armed = False
            if fnorm < 1e4 * target and tighten > tighten_min:
                tighten = max(0.25 * tighten, tighten_min)
            elif fnorm > 1e5 * target and tighten < 1.0:
                tighten = min(4.0 * tighten, 1.0)
            if errnorm == 0.0:
                h *= 6.0
            else:
                h *= min(6.0, max(0.333, 0.9 * errnorm ** -0.125))
        else:
            rejected += 1
            h *= max(0.333, 0.9 * errnorm ** -0.125)

    return status, t, (u0, u1, u2, u3)[:n], fnorm, (accepted, rejected, attempts)
