"""Seeded generator of model files whose verdicts and closed forms are known
by construction.

Expressions are built here as small tuples, printed in the package's text
grammar for the model files, and compiled to Python ``math`` callables for
the oracles.  Derivatives are taken by this module's own rules, so a model
file states every derivative in expanded form and no oracle calls the code
under test.  The same seed gives byte-identical files.

Every generated expression is defined on the whole probe box: fractional
powers and ``log`` only ever see arguments of the form ``x^2 + b`` with
``b >= 1``.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# expression tuples: ("num", v) ("var", name) ("add", terms) ("mul", factors)
# ("pow", base, p) ("call", func, arg)


def num(v):
    return ("num", float(v))


def var(name):
    return ("var", name)


ZERO, ONE = num(0), num(1)


def add(*terms):
    kept = tuple(t for t in terms if t != ZERO)
    if not kept:
        return ZERO
    return kept[0] if len(kept) == 1 else ("add", kept)


def mul(*factors):
    coefficient, rest = 1.0, []
    for f in factors:
        if f[0] == "num":
            coefficient *= f[1]
        else:
            rest.append(f)
    if coefficient == 0.0:
        return ZERO
    if coefficient != 1.0 or not rest:
        rest.insert(0, num(coefficient))
    return rest[0] if len(rest) == 1 else ("mul", tuple(rest))


def neg(e):
    return mul(num(-1), e)


def sub(a, b):
    return add(a, neg(b))


def pw(base, p):
    p = float(p)
    if p == 0.0:
        return ONE
    if p == 1.0:
        return base
    return ("pow", base, p)


def call(func, arg):
    return ("call", func, arg)


def depends(e, name):
    kind = e[0]
    if kind == "num":
        return False
    if kind == "var":
        return e[1] == name
    if kind in ("add", "mul"):
        return any(depends(t, name) for t in e[1])
    return depends(e[1] if kind == "pow" else e[2], name)


def diff(e, name):
    """Partial derivative, expanded by the sum, product and chain rules."""
    if not depends(e, name):
        return ZERO
    kind = e[0]
    if kind == "var":
        return ONE
    if kind == "add":
        return add(*(diff(t, name) for t in e[1]))
    if kind == "mul":
        fs = e[1]
        return add(*(
            mul(*fs[:k], diff(fs[k], name), *fs[k + 1:]) for k in range(len(fs))
        ))
    if kind == "pow":
        base, p = e[1], e[2]
        return mul(num(p), pw(base, p - 1.0), diff(base, name))
    func, arg = e[1], e[2]
    inner = diff(arg, name)
    outer = {
        "sin": lambda: call("cos", arg),
        "cos": lambda: neg(call("sin", arg)),
        "exp": lambda: call("exp", arg),
        "log": lambda: pw(arg, -1.0),
    }[func]()
    return mul(outer, inner)


def _fmt(v):
    text = repr(float(v))
    return f"({text})" if v < 0 else text


def text(e):
    """The expression in the package grammar (fully parenthesised)."""
    kind = e[0]
    if kind == "num":
        return _fmt(e[1])
    if kind == "var":
        return e[1]
    if kind == "add":
        return "(" + " + ".join(text(t) for t in e[1]) + ")"
    if kind == "mul":
        return "(" + " * ".join(text(f) for f in e[1]) + ")"
    if kind == "pow":
        return f"{text(e[1])}^{_fmt(e[2])}"
    return f"{e[1]}({text(e[2])})"


def pysrc(e):
    """The expression as Python source over ``math``."""
    kind = e[0]
    if kind == "num":
        return _fmt(e[1])
    if kind == "var":
        return e[1]
    if kind == "add":
        return "(" + " + ".join(pysrc(t) for t in e[1]) + ")"
    if kind == "mul":
        return "(" + " * ".join(pysrc(f) for f in e[1]) + ")"
    if kind == "pow":
        return f"({pysrc(e[1])} ** {_fmt(e[2])})"
    return f"math.{e[1]}({pysrc(e[2])})"


def compile_fn(e, names):
    """Python callable of the listed variables, for the closed-form oracles."""
    return eval(f"lambda {', '.join(names)}: {pysrc(e)}", {"math": math})


# ---------------------------------------------------------------------------
# random smooth functions of the base coordinates


class SplitRandom:
    """Numbers (``uniform``, ``random``) from a seeded stream; choices of
    form (``choice``, ``sample``, ``shuffle``) from a stream fixed by the
    chart shape alone.  Every seed then builds cases of the same forms with
    other coefficients, so that a run costs about the same whatever the
    seed, while the forms still vary from case to case within a run."""

    def __init__(self, seed, m, n):
        values = random.Random(f"bundle/{seed}/{m}/{n}")
        forms = random.Random(f"bundle-forms/{m}/{n}")
        self.uniform, self.random = values.uniform, values.random
        self.choice, self.sample, self.shuffle = forms.choice, forms.sample, forms.shuffle


def _coef(rng, low=0.3, high=1.5):
    value = round(rng.uniform(low, high), 2)
    return value if rng.random() < 0.5 else -value


def _atom(rng, kind, x):
    """One smooth factor in the variable x, bounded on the probe box."""
    if kind == "trig":
        offset = num(round(rng.uniform(0, 1), 2))
        return call(rng.choice(("sin", "cos")), add(mul(num(_coef(rng)), var(x)), offset))
    if kind == "exp":
        return call("exp", mul(num(_coef(rng, 0.1, 0.5)), var(x)))
    if kind == "radlog":
        inner = add(pw(var(x), 2), num(round(rng.uniform(1, 3), 2)))
        p = rng.choice((0.5, 1.5, -0.5, None))
        return call("log", inner) if p is None else pw(inner, p)
    return pw(var(x), rng.choice((2, 3)))


def smooth(rng, xs, terms=2):
    """Sum of `terms` products of two atoms in distinct variables.  Every
    function of a given `terms` is built from the same kinds of atom, so
    that cases of one chart shape cost about the same to process."""
    if terms == 2:
        kinds = ["trig", "exp", "radlog", "poly"]
    else:
        kinds = [rng.choice(("trig", "exp")), rng.choice(("radlog", "poly"))]
    rng.shuffle(kinds)
    out = []
    for t in range(terms):
        a, b = rng.sample(xs, 2)
        out.append(mul(num(_coef(rng)), _atom(rng, kinds[2 * t], a), _atom(rng, kinds[2 * t + 1], b)))
    return add(*out)


# ---------------------------------------------------------------------------
# model file text


def _q(s):
    return '"' + s + '"'


def _rows(table, indent):
    """YAML block list of (nested) lists of expression strings."""
    pad = " " * indent

    def inline(row):
        if isinstance(row, (list, tuple)):
            return "[" + ", ".join(inline(r) for r in row) + "]"
        return _q(row)

    return "".join(f"{pad}- {inline(row)}\n" for row in table)


def bundle_header(xs, ys):
    box = "".join(f"    {y}: [-1.0e6, 1.0e6]\n" for y in ys)
    return (
        "bundle:\n"
        f"  base: [{', '.join(xs)}]\n"
        f"  fiber: [{', '.join(ys)}]\n"
        "  box:\n" + box
    )


# ---------------------------------------------------------------------------
# bundle cases: connections, sections, jet fields, Christoffel tables


def names(m, n):
    xs = [f"x{k}" for k in range(1, m + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    jets = [f"{y}_{mu}" for y in ys for mu in range(1, m + 1)]
    return xs, ys, jets


def flat_case(rng, m, n):
    """Gamma^i_mu = d_mu phi^i + (y^i - phi^i) d_mu kappa^i: flat, with
    integral sections y^i = phi^i + C exp(kappa^i)."""
    xs, ys, _ = names(m, n)
    phi = [smooth(rng, xs) for _ in ys]
    kappa = [smooth(rng, xs, terms=1) for _ in ys]
    gamma = [
        [add(diff(phi[i], x), mul(sub(var(ys[i]), phi[i]), diff(kappa[i], x))) for x in xs]
        for i in range(n)
    ]
    return {"phi": phi, "kappa": kappa, "gamma": gamma}


def curved_gamma(rng, m, n, case):
    """Flat case with k = d kappa + omega, omega = c (x2 dx1 - x1 dx2): the
    curvature is R^i_12 = (y^i - phi^i)(-2 c) and zero for other pairs."""
    xs, ys, _ = names(m, n)
    c = _coef(rng)
    omega = [mul(num(c), var(xs[1])), mul(num(-c), var(xs[0]))] + [ZERO] * (m - 2)
    k = [[add(diff(case["kappa"][i], xs[mu]), omega[mu]) for mu in range(m)] for i in range(n)]
    gamma = [
        [add(diff(case["phi"][i], xs[mu]), mul(sub(var(ys[i]), case["phi"][i]), k[i][mu]))
         for mu in range(m)]
        for i in range(n)
    ]
    return gamma, c


def separable_gamma(rng, m, n):
    """Gamma^i_mu = f(y^i) d_mu g^i(x): flat for any f."""
    xs, ys, _ = names(m, n)
    out = []
    for y in ys:
        g = smooth(rng, xs, terms=1)
        f = rng.choice((var(y), pw(var(y), 2), add(ONE, pw(var(y), 2))))
        out.append([mul(f, diff(g, x)) for x in xs])
    return out


def gradient_gamma(rng, m, n):
    """Gamma^i_mu = d_mu a^i(x): flat, independent of the fiber."""
    xs, ys, _ = names(m, n)
    return [[diff(a, x) for x in xs] for a in (smooth(rng, xs) for _ in ys)]


def disguise(e, rng, xs):
    """e + (sin(u)^2 + cos(u)^2 - 1) * x: equal in value, different in form."""
    u = mul(num(_coef(rng)), var(rng.choice(xs)))
    zero = add(pw(call("sin", u), 2), pw(call("cos", u), 2), num(-1))
    return add(e, mul(zero, var(rng.choice(xs))))


def linear_case(rng, m, n):
    """Gamma^i_mu = -C^i_{j mu}(x) y^j with Christoffel table C."""
    xs, ys, _ = names(m, n)
    C = [[[smooth(rng, xs, terms=1) for _ in xs] for _ in ys] for _ in ys]
    gamma = [
        [add(*(neg(mul(C[i][j][mu], var(ys[j]))) for j in range(n))) for mu in range(m)]
        for i in range(n)
    ]
    return {"C": C, "gamma": gamma}


def jet_case(rng, m, n):
    """Second-order jet fields with a known solution psi.

    sode:  F = y_nu, G = Hess psi (integrable).
    sodeb: G = Hess psi + c (y - psi) (symmetric, psi still solves it, not
           integrable: its dG residuals are c (u_mu - u_nu), u = y_nu - psi_nu).
    sodd:  sode with a disguised second-order condition.
    nsode: F = y_nu + x1, not second order.
    """
    xs, ys, jets = names(m, n)
    psi = [smooth(rng, xs, terms=1) for _ in ys]
    c = _coef(rng)
    hess = [[[diff(diff(psi[i], xs[nu]), xs[mu]) for mu in range(m)] for nu in range(m)]
            for i in range(n)]
    F = [[var(jets[i * m + nu]) for nu in range(m)] for i in range(n)]
    Gb = [[[add(hess[i][nu][mu], mul(num(c), sub(var(ys[i]), psi[i]))) for mu in range(m)]
           for nu in range(m)] for i in range(n)]
    return {
        "psi": psi,
        "c": c,
        "F": F,
        "G": hess,
        "Gb": Gb,
        "Fd": [[disguise(f, rng, xs) for f in row] for row in F],
        "Fn": [[add(f, var(xs[0])) for f in row] for row in F],
    }


def bundle_model(seed, m, n, count):
    """Model text and the construction record of `count` cases on an
    m x n chart.  Names carry the case index k."""
    rng = SplitRandom(seed, m, n)
    xs, ys, jets = names(m, n)
    cases = []
    conns, sections, jetfields, chris = [], [], [], []
    for k in range(count):
        flat = flat_case(rng, m, n)
        curved, c = curved_gamma(rng, m, n, flat)
        lin = linear_case(rng, m, n)
        jet = jet_case(rng, m, n)
        shift = [[mul(num(_coef(rng)), var(xs[mu])) for mu in range(m)] for _ in ys]
        case = {
            "k": k, "flat": flat, "curved_c": c, "lin": lin, "jet": jet,
            "shift": shift, "m": m, "n": n,
        }
        gammas = {
            "flat": flat["gamma"],
            "curved": curved,
            "sep": separable_gamma(rng, m, n),
            "grad": gradient_gamma(rng, m, n),
            "lin": lin["gamma"],
            "lind": [[disguise(e, rng, xs) for e in row] for row in lin["gamma"]],
            "nonlin": [[add(e, mul(num(_coef(rng)), pw(var(ys[0]), 2), var(xs[0])))
                        for e in row] for row in lin["gamma"]],
            "same": [[disguise(e, rng, xs) for e in row] for row in flat["gamma"]],
            "shifted": [[add(e, s) for e, s in zip(row, srow)]
                        for row, srow in zip(flat["gamma"], shift)],
        }
        case["gammas"] = gammas
        for label, table in gammas.items():
            conns.append((f"{label}{k}", table))
        sections.append((f"phi{k}", flat["phi"]))
        sections.append((f"off{k}", [add(p, ONE) for p in flat["phi"]]))
        sections.append((f"psi{k}", jet["psi"]))
        for label, F, G in (("sode", jet["F"], jet["G"]), ("sodeb", jet["F"], jet["Gb"]),
                            ("sodd", jet["Fd"], jet["G"]), ("nsode", jet["Fn"], jet["G"])):
            jetfields.append((f"{label}{k}", F, G))
        chris.append((f"ch{k}", lin["C"]))
        cases.append(case)
    out = [f"# generated: seed {seed}, m {m}, n {n}, {count} cases\n", bundle_header(xs, ys)]
    out.append("connections:\n")
    for name, table in conns:
        out.append(f"  {name}:\n    gamma:\n" + _rows([[text(e) for e in row] for row in table], 6))
    out.append("sections:\n")
    for name, comps in sections:
        out.append(f"  {name}:\n    components:\n" + _rows([text(e) for e in comps], 6))
    out.append("jetfields:\n")
    for name, F, G in jetfields:
        out.append(f"  {name}:\n    F:\n" + _rows([[text(e) for e in row] for row in F], 6))
        out.append("    G:\n" + _rows([[[text(e) for e in r] for r in plane] for plane in G], 6))
    out.append("christoffels:\n")
    for name, C in chris:
        out.append(f"  {name}:\n    gamma:\n"
                   + _rows([[[text(e) for e in r] for r in plane] for plane in C], 6))
    return "".join(out), cases


# ---------------------------------------------------------------------------
# sphere: the Levi-Civita connection of the shipped sphere model, with
# seeded latitude circles and meridian arcs

TWO_PI = 2.0 * math.pi


def sphere_model(seed, count):
    """Latitude circles th in [0.35, 2.8], away from the poles; meridian
    arcs th: a -> a + b at a fixed longitude, inside the chart box."""
    rng = random.Random(f"sphere/{seed}")
    lats, arcs = [], []
    for k in range(count):
        lats.append((f"lat{k}", round(rng.uniform(0.35, 2.8), 6)))
        a = round(rng.uniform(0.4, 1.4), 6)
        b = round(rng.uniform(0.3, 1.2), 6)
        ph = round(rng.uniform(0.0, TWO_PI), 6)
        arcs.append((f"mer{k}", a, b, ph))
    out = [
        f"# generated: seed {seed}, {count} latitude circles and meridian arcs\n",
        "manifold:\n  coords: [th, ph]\n  box:\n    th: [0.01, 3.13]\n",
        "manifold_connections:\n  levi_civita:\n    gamma:\n",
        '      - [["0", "0"], ["0", "-sin(th) * cos(th)"]]\n',
        '      - [["0", "cos(th) / sin(th)"], ["cos(th) / sin(th)", "0"]]\n',
        "curves:\n",
    ]
    for name, th in lats:
        out.append(
            f"  {name}:\n    components: [\"{th!r}\", \"t\"]\n"
            f"    domain: [0.0, {TWO_PI!r}]\n    periods:\n      ph: {TWO_PI!r}\n"
        )
    for name, a, b, ph in arcs:
        out.append(
            f"  {name}:\n    components: [\"{a!r} + {b!r} * t\", \"{ph!r}\"]\n"
            "    domain: [0.0, 1.0]\n"
        )
    return "".join(out), {"lats": lats, "arcs": arcs}


# ---------------------------------------------------------------------------
# workload file sets

# (m, n) chart shapes and cases per shape for the symbolic workload
SYMBOLIC_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3))
SYMBOLIC_CASES = 4
# flat connections for numeric integral sections
TRANSPORT_SHAPES = ((2, 1), (2, 2), (3, 1))
TRANSPORT_CASES = 4
SPHERE_CURVES = 12


def workload_files(workload, seed):
    """{file name: text} and {file name: construction record}."""
    files, specs = {}, {}
    if workload in ("transport-loop", "cli-cold"):
        files["sphere.yaml"], specs["sphere.yaml"] = sphere_model(seed, SPHERE_CURVES)
    if workload in ("symbolic-verdicts", "cli-cold"):
        shapes = SYMBOLIC_SHAPES if workload == "symbolic-verdicts" else ((2, 1), (3, 2))
        for m, n in shapes:
            name = f"bundle_m{m}_n{n}.yaml"
            files[name], specs[name] = bundle_model(seed, m, n, SYMBOLIC_CASES)
    if workload == "transport-loop":
        for m, n in TRANSPORT_SHAPES:
            name = f"flat_m{m}_n{n}.yaml"
            files[name], specs[name] = bundle_model(seed, m, n, TRANSPORT_CASES)
    return files, specs
