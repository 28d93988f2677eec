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
caller; :func:`kernel` states the rule that ends a run, which only
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

The tableau is held once, as data: its nonzero entries as float
literals.  From it each atom gets its own kernel, the loop of
:data:`_LOOP` with its stages unrolled over scalar float locals, one per
live slot of the atom's four-float state (rho11, rho22, y, x), emitted
and compiled once per process on the atom's first run.  The two-level
kernel steps rho11, y and x: its level 2 is empty, and every term that
reads it is an exact zero.  The three-level kernel steps all four slots
and leaves out Gamma*rho00, as Gamma = 0 there.  The right-hand side is
one table, ``dynamics._RHS``, the one set of equations of both atoms,
from which ``dynamics._rhs_of`` is emitted too: every other term is
written into each of the 12 evaluations of a step, FSAL's included,
with the same operations in the same order, so a stage gives bit for
bit what a call of the closure gives; a call per stage would cost about
10 % of a step.  The closure serves the derivative at the start, the
first-step heuristic and the Newton polish.  The error norm makes no
function call but ``abs`` and ``sqrt``: it squares by multiplication,
which overflows to inf without raising.  The first-step heuristic, the state check, the stability
test, the Newton polish and the step record layout are looked up on
:mod:`lasekit.dynamics` at run time.  The emitted source is registered
with :mod:`linecache` (``dynamics._compiled``), so tracebacks and
``inspect.getsource`` show it.
"""

import math

from . import dynamics

# Prince & Dormand's 8th-order pair, its nonzero entries only: the row
# {j: a_ij} of each stage i, and {j: weight} of the 8th-order solution
# (B), of the 5th-order error estimate (E5) and of the 3rd-order solution
# (BHH)
_A = {
    2: {1: 0.05260015195876773},
    3: {1: 0.0197250569845379, 2: 0.0591751709536137},
    4: {1: 0.02958758547680685, 3: 0.08876275643042054},
    5: {1: 0.2413651341592667, 3: -0.8845494793282861, 4: 0.924834003261792},
    6: {1: 0.037037037037037035, 4: 0.17082860872947386, 5: 0.12546768756682242},
    7: {1: 0.037109375, 4: 0.17025221101954405, 5: 0.06021653898045596,
        6: -0.017578125},
    8: {1: 0.03709200011850479, 4: 0.17038392571223998, 5: 0.10726203044637328,
        6: -0.015319437748624402, 7: 0.008273789163814023},
    9: {1: 0.6241109587160757, 4: -3.3608926294469414, 5: -0.868219346841726,
        6: 27.59209969944671, 7: 20.154067550477894, 8: -43.48988418106996},
    10: {1: 0.47766253643826434, 4: -2.4881146199716677, 5: -0.590290826836843,
         6: 21.230051448181193, 7: 15.279233632882423, 8: -33.28821096898486,
         9: -0.020331201708508627},
    11: {1: -0.9371424300859873, 4: 5.186372428844064, 5: 1.0914373489967295,
         6: -8.149787010746927, 7: -18.52006565999696, 8: 22.739487099350505,
         9: 2.4936055526796523, 10: -3.0467644718982196},
    12: {1: 2.273310147516538, 4: -10.53449546673725, 5: -2.0008720582248625,
         6: -17.9589318631188, 7: 27.94888452941996, 8: -2.8589982771350235,
         9: -8.87285693353063, 10: 12.360567175794303, 11: 0.6433927460157636},
}
_B = {1: 0.054293734116568765, 6: 4.450312892752409, 7: 1.8915178993145003,
      8: -5.801203960010585, 9: 0.3111643669578199, 10: -0.1521609496625161,
      11: 0.20136540080403034, 12: 0.04471061572777259}
_E5 = {1: 0.01312004499419488, 6: -1.2251564463762044, 7: -0.4957589496572502,
       8: 1.6643771824549864, 9: -0.35032884874997366, 10: 0.3341791187130175,
       11: 0.08192320648511571, 12: -0.022355307863886294}
_BHH = {1: 0.2440944881889764, 9: 0.7338466882816118, 12: 0.022058823529411766}

# the live slots of each atom's state, and whether its Gamma*rho00 term
# is live (module docstring)
_ATOMS = {dynamics.BlochState2: ((0, 2, 3), True),
          dynamics.BlochState3: ((0, 1, 2, 3), False)}

# The loop of every kernel.  Each field names what the emitter writes
# over the live slots: a tuple of the four-float state (a dead slot is
# 0.0, or _ as a target), a sum of squares, or a block of lines.
_LOOP = '''\
def dop853_loop(par, y0, n, t_max, rtol, atol, max_step, steady_tol, record):
    rhs = dynamics._rhs_of(par)
    # the rates and folded constants of rhs, for the stages written out below
{rates}
    polish_armed = check_armed = True
    # whether the a<slot> hold a root to aim at, and whether the run aims
    aiming = False
    can_aim = not record and rtol <= 1e-3 and atol <= 1e-3
    accepted = rejected = attempts = 0
    next_try = 1
    t = 0.0
    {u_} = y0
    {k1_} = rhs({u})
    fnorm = dynamics._norm({k1})
    pack_step = dynamics._STEP.pack
    steps = bytearray(pack_step(t, {u})) if record else None

    if fnorm < steady_tol * (dynamics._norm({u}) + 1.0):
        if dynamics._hurwitz(par, {u}):
            return dynamics._STEADY, t, ({u}), fnorm, (0, 0, 0, 1), steps
        check_armed = False

    h = dynamics._first_step(rhs, ({u}), ({k1}), n, t_max, rtol, atol, max_step)

    # tightening; the floor keeps the error scale of a zero component
    # positive should atol*tighten underflow
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
        # solution v, f(t + h, v) as the next step's k1, and the 5th- and
        # 3rd-order estimates; the 3rd-order solution shares the weights
        # of the 8th-order one
{stages}

        # Hairer's blend of the 5th- and 3rd-order estimates: h*e5 scaled
        # by |e5|/sqrt(|e5|**2 + 0.01*|e3|**2), which behaves as h**8.  The
        # conditional is builtin max, NaN included; a product that
        # overflows gives inf without raising
{scales}
{q5}
        err5 = {err}
{q3}
        err3 = {err}
        deno = err5 + 0.01 * err3
        if deno == 0.0:
            errnorm = 0.0
        elif deno < math.inf:
            errnorm = h * err5 / (sqrt(deno) * sqrt_n)
        else:  # an overflowed (or NaN) estimate rejects the step
            errnorm = math.inf

        if errnorm <= 1.0:
            t += h
            {accept}
            {fsal}  # FSAL
            accepted += 1
            # dynamics._norm of the derivative and of the state
            fnorm = sqrt({fsq})
            scale = sqrt({usq}) + 1.0
            target = steady_tol * scale
            if fnorm > 1e5 * target:
                polish_armed = check_armed = True
            if record:
                steps += pack_step(t, {u})
            attempt = False
            if accepted == next_try:
                next_try += 1 + next_try // 4
                if not dynamics._physical({u}):
                    break  # the caller raises on the unphysical end state
                attempt = not record
            if polish_armed and fnorm < 1e4 * target:
                polish_armed = False
                attempt = True
            if aiming and not attempt:
                # the first state within the polish's ball of the aim
{distance}
                radius = 1e-3 * scale
                attempt = {esq} <= radius * radius
            if attempt:
                attempts += 1
                found = dynamics._polish(par, rhs, ({u}), ({k1}), steady_tol)
                if found is not None and found[0] is not None:
                    ({u_}), fnorm = found
                    if record:  # the root takes the last step's row, at its t
                        steps[-dynamics._STEP.size:] = pack_step(t, {u})
                    status = dynamics._STEADY
                    break
                # a miss may name the root Newton was heading for: the aim
                aiming = found is not None and can_aim
                if aiming:
                    {a_} = found[1]
            if fnorm < target:
                if check_armed and dynamics._hurwitz(par, {u}):
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
    return status, t, ({u}), fnorm, counts, steps
'''

_KERNELS = {}


def kernel(cls):
    """The stepper for the atom whose state class is ``cls``, emitted and
    compiled on its first call: a function of (par, y0, n, t_max, rtol,
    atol, max_step, steady_tol, record) that integrates by adaptive DOP853
    from t = 0 until a stable fixed point or t_max.

    ``par`` and ``y0`` are float tuples (see ``dynamics._rhs_of``), the
    state as four floats (rho11, rho22, y, x) for either atom; ``n`` is
    the number of fields of ``cls``, over which the error norm takes its
    mean.  Returns (status, t, y, f_norm, counts, steps): status
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
      floats) ends the run there with the status of a run out of time,
      for the caller to raise on.  A run that records nothing also tries
      the polish at those counts, which saves work on either side of the
      Lorenz-Haken condition; a recorded run does not, since there an
      early root would show as a jump of up to the polish's ball.  The
      ball, not the cavity, keeps a pulsing orbit that passes near a
      fixed point from ending the run.
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
    in one ``bytearray``, rho22 = 0.0 for the two-level atom; otherwise it
    is None.  Recording changes nothing but the scheduled and aimed
    attempts: where none succeeds, a recorded run and an unrecorded one
    end at the same t, state and step count.
    """
    loop = _KERNELS.get(cls)
    if loop is None:
        loop = _KERNELS[cls] = _emit(*_ATOMS[cls], cls.__name__)
    return loop


def _emit(live, pumped, name):
    """Compile :data:`_LOOP` over the slots ``live``, with the
    Gamma*rho00 term where ``pumped``, as the function of :func:`kernel`;
    its source is registered with :mod:`linecache` under ``name``."""

    def row(x, dead=None):
        # x<c> over the live slots, or over all four with ``dead`` in a dead one
        slots = range(4) if dead else live
        return ", ".join(f"{x}{c}" if c in live else dead for c in slots)

    def squares(x):
        return " + ".join(f"{x}{c} * {x}{c}" for c in live)

    def lines(indent, *templates):
        return "\n".join(indent + t.format(c=c) for c in live for t in templates)

    def combination(weights, c):
        # the first weight with its sign, then + or - each magnitude
        text = " ".join(f"{'+' if w > 0.0 else '-'} {abs(w)!r} * k{j}_{c}"
                        for j, w in weights.items())
        return text[2:] if text[0] == "+" else "-" + text[2:]

    # the terms that are exact zeros: those that read a dead slot, and
    # Gamma*rho00 where Gamma = 0
    zeros = [f"{{p}}{c}" for c in range(4) if c not in live] + ([] if pumped else ["pump"])

    def evaluate(i, p):
        # rho00 = r and the derivative k<i>_<c> of each live slot at the point p
        r, *k = dynamics._written(p, zeros)
        return [f"r = {r}"] + [f"k{i}_{c} = {k[c]}" for c in live]

    body = []
    for i, a in _A.items():
        body += [f"w{c} = u{c} + h * ({combination(a, c)})" for c in live]
        body += evaluate(i, "w")
    body += [f"s{c} = {combination(_B, c)}" for c in live]
    body += [f"v{c} = u{c} + h * s{c}" for c in live]
    body += evaluate(13, "v")
    body += [f"e5_{c} = {combination(_E5, c)}" for c in live]
    body += [f"e3_{c} = s{c} - ({combination(_BHH, c)})" for c in live]
    source = _LOOP.format(
        rates=dynamics._RATES.format(pump="pump" if pumped else "_"),
        u=row("u", "0.0"), u_=row("u", "_"), k1=row("k1_", "0.0"), k1_=row("k1_", "_"),
        a_=row("a", "_"), stages="\n".join(" " * 8 + line for line in body),
        scales=lines(" " * 8, "a = abs(u{c})", "b = abs(v{c})",
                     "sc{c} = atol_eff + rtol_eff * (b if b > a else a)"),
        q5=lines(" " * 8, "q{c} = e5_{c} / sc{c}"), q3=lines(" " * 8, "q{c} = e3_{c} / sc{c}"),
        err=squares("q"), accept=f"{row('u')} = {row('v')}", fsal=f"{row('k1_')} = {row('k13_')}",
        fsq=squares("k1_"), usq=squares("u"),
        distance=lines(" " * 16, "e{c} = u{c} - a{c}"), esq=squares("e"),
    )
    namespace = {"__name__": __name__, "dynamics": dynamics, "math": math}
    return dynamics._compiled(source, f"<lasekit._dop853 {name}>", namespace)["dop853_loop"]
