"""The three workloads as rounds of operations, each with its oracle check.

An operation is one call a user would make: a public library call for the
in-process workloads, one ``python -m ehresmann.cli`` process for
``cli-cold``.  Operations are grouped into rounds; a run stops at the end of
the first round that finishes after the time budget, so every run covers
whole rounds and keeps the workload's mix of operations.

Library functions are looked up on their modules when an operation runs,
so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import gen
import oracles as orc

# RK4 sizes of the transport-loop operations.  Meridian transports spread
# their step counts over a range, so that latency percentiles fall inside a
# spread of costs rather than on one repeated cost.
HOLONOMY_STEPS = 10_000
MERIDIAN_STEPS = (500, 2_500)
MERIDIANS_PER_ROUND = 24
SECTION_STEPS = 400
# symbolic-verdicts integrates coarsely: its integral sections are mostly
# the integrability check that precedes the sweep.  At 100 steps per unit
# the RK4 error stays below 1e-5 on 60 seeds, under the 1e-4 tolerance.
SYMBOLIC_SECTION_STEPS = 100
# the CLI keeps --steps small: start-up and loading dominate there
CLI_STEPS = 400
CLI_TIMEOUT = 120


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str | None]


def returns(check):
    """Check for an operation that must return normally."""
    def outer(result, exc):
        if exc is not None:
            return f"{type(exc).__name__}: {exc}"
        return check(result)
    return outer


def raises(error_name):
    """Check for an operation that must raise the named package error."""
    def outer(result, exc):
        if exc is not None and type(exc).__name__ == error_name:
            return None
        return f"expected {error_name}, got {type(exc).__name__ if exc else result!r}"
    return outer


def verdict(expected):
    return returns(lambda got: None if got is expected else f"verdict {got!r}, expected {expected!r}")


def _fn(e, names):
    return None if e == gen.ZERO else gen.compile_fn(e, names)


# ---------------------------------------------------------------------------
# transport-loop


def transport_rounds(seed, models, specs):
    """Round r: one holonomy at 10^4 steps around latitude r, one integral
    section of flat connection r, and 24 meridian transports at 500 to 2500
    steps."""
    from ehresmann import transport as tp

    rng = random.Random(f"ops/transport-loop/{seed}")
    sphere, sphere_spec = models["sphere.yaml"], specs["sphere.yaml"]
    lc = sphere.manifold_connections["levi_civita"]
    # round r integrates a section on chart shape r mod 3, and its meridians
    # take every step count of an even ladder over MERIDIAN_STEPS in seeded
    # order: each round costs the same on every seed, and only the inputs vary
    flats = sorted(((name, case) for name in specs if name.startswith("flat_") for case in specs[name]),
                   key=lambda flat: (flat[1]["k"], flat[0]))
    low, high = MERIDIAN_STEPS
    ladder = [low + (high - low) * i // (MERIDIANS_PER_ROUND - 1) for i in range(MERIDIANS_PER_ROUND)]
    rounds = []
    for r, (lat_name, theta) in enumerate(sphere_spec["lats"]):
        ops = [Op(
            "holonomy",
            lambda c=sphere.curves[lat_name]: tp.holonomy(lc, c, HOLONOMY_STEPS),
            returns(lambda got, t=theta: orc.check_close(got, orc.holonomy_matrix(t), 1e-7, "holonomy")),
        )]
        ops.append(section_op(rng, models, *flats[r % len(flats)]))
        for steps in rng.sample(ladder, len(ladder)):
            name, a, b, _ph = rng.choice(sphere_spec["arcs"])
            u0 = [round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)]
            ops.append(Op(
                "parallel_transport",
                lambda c=sphere.curves[name], u=u0, n=steps: tp.parallel_transport(lc, c, u, n).final,
                returns(lambda got, a=a, b=b, u=u0: orc.check_meridian(a, b, u, got, 1e-7)),
            ))
        rounds.append(ops)
    return rounds


def section_op(rng, models, file_name, case):
    from ehresmann import connection as cn

    m, n, k = case["m"], case["n"], case["k"]
    xs, _, _ = gen.names(m, n)
    conn = models[file_name].connections[f"flat{k}"]
    phi = [gen.compile_fn(e, xs) for e in case["flat"]["phi"]]
    kappa = [gen.compile_fn(e, xs) for e in case["flat"]["kappa"]]
    x0 = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(m)]
    y0 = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
    targets = [[round(rng.uniform(-1, 1), 3) for _ in range(m)] for _ in range(2)]
    want = [orc.flat_section(phi, kappa, x0, y0, t) for t in targets]
    return Op(
        "integral_section",
        lambda: cn.integral_section(conn, x0, y0, targets, steps=SECTION_STEPS),
        returns(lambda got: orc.check_close(got, want, 1e-6, "integral section")),
    )


# ---------------------------------------------------------------------------
# symbolic-verdicts


def symbolic_rounds(seed, models, specs):
    """One round per generated case; cases of different chart shapes
    alternate."""
    per_file = [[(name, case) for case in specs[name]] for name in sorted(specs)]
    rounds = []
    for k in range(max(len(cases) for cases in per_file)):
        for cases in per_file:
            if k < len(cases):
                name, case = cases[k]
                rounds.append(case_ops(models[name], case, seed))
    return rounds


def case_ops(model, case, seed):
    from ehresmann import connection as cn, expr as ex, jetfield as jf
    from ehresmann import linear as ln, multivector as mvec

    m, n, k = case["m"], case["n"], case["k"]
    xs, ys, jets = gen.names(m, n)
    conn = {label: model.connections[f"{label}{k}"] for label in case["gammas"]}
    jet = {label: model.jetfields[f"{label}{k}"] for label in ("sode", "sodeb", "sodd", "nsode")}
    phi, off, psi = (model.sections[f"{s}{k}"] for s in ("phi", "off", "psi"))
    probe_seed = seed * 1000 + m * 100 + n * 10 + k
    flat, js = case["flat"], case["jet"]

    def zero_verdict(exprs):
        return all(ex.is_zero(e, model.probe) for e in exprs)

    def trees_and(expected_verdict, want, names, what):
        def check(got):
            trees, got_verdict = got
            if got_verdict is not expected_verdict:
                return f"{what}: verdict {got_verdict!r}, expected {expected_verdict!r}"
            return orc.check_trees(trees, want, names, probe_seed, what=what)
        return returns(check)

    # closed forms
    c = case["curved_c"]
    curvature_want = [
        _fn(gen.mul(gen.num(-2 * c), gen.sub(gen.var(ys[j]), flat["phi"][j])), xs + ys)
        if (mu, nu) == (0, 1) else None
        for j in range(n) for mu in range(m) for nu in range(mu + 1, m)
    ]
    off_want = [_fn(gen.neg(gen.diff(flat["kappa"][i], x)), xs) for i in range(n) for x in xs]
    dg_want = {}
    for j in range(n):
        u = [gen.sub(gen.var(jets[j * m + mu]), gen.diff(js["psi"][j], xs[mu])) for mu in range(m)]
        for rho in range(m):
            for mu in range(m):
                for nu in range(mu + 1, m):
                    dg_want[f"dG[{j + 1}][{nu + 1}][{rho + 1}]d{mu + 1}"] = _fn(
                        gen.mul(gen.num(js["c"]), gen.sub(u[mu], u[nu])), xs + ys + jets)
    chris_want = [_fn(e, xs) for plane in case["lin"]["C"] for row in plane for e in row]
    rng = random.Random(probe_seed)
    x0 = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(m)]
    y0 = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
    target = [round(rng.uniform(-1, 1), 3) for _ in range(m)]
    section_want = [orc.flat_section([gen.compile_fn(e, xs) for e in flat["phi"]],
                                     [gen.compile_fn(e, xs) for e in flat["kappa"]], x0, y0, target)]
    all_names = xs + ys + jets

    def residual_list(field):
        pairs = jf.sopde_integrability_residuals(field, model.probe)
        return pairs, zero_verdict(e for _, e in pairs)

    def check_sodeb(got):
        pairs, got_verdict = got
        if got_verdict is not False:
            return "sodeb: integrability verdict True, expected False"
        want = [dg_want.get(label) for label, _ in pairs]
        return orc.check_trees([e for _, e in pairs], want, all_names, probe_seed, what="sodeb")

    def flat2(table):
        return [e for row in table for e in row]

    def flat3(table):
        return [e for plane in table for row in plane for e in row]

    rep = mvec.representative
    return [
        Op("is_integrable", lambda: cn.is_integrable(conn["flat"], model.probe), verdict(True)),
        Op("is_integrable", lambda: cn.is_integrable(conn["curved"], model.probe), verdict(False)),
        Op("is_integrable", lambda: cn.is_integrable(conn["sep"], model.probe), verdict(True)),
        Op("is_integrable", lambda: cn.is_integrable(conn["grad"], model.probe), verdict(True)),
        Op("integral_section",
           lambda: cn.integral_section(conn["flat"], x0, y0, [target], steps=SYMBOLIC_SECTION_STEPS,
                                       probe=model.probe),
           returns(lambda got: orc.check_close(got, section_want, 1e-4, "integral section"))),
        Op("curvature",
           lambda: [v for *_, v in cn.curvature(conn["curved"]).entries()],
           returns(lambda got: orc.check_trees(got, curvature_want, xs + ys, probe_seed, what="curvature"))),
        Op("integral_section_residual",
           lambda: _with_verdict(flat2(cn.integral_section_residual(conn["flat"], phi)), zero_verdict),
           trees_and(True, None, xs, "residual(phi)")),
        Op("integral_section_residual",
           lambda: _with_verdict(flat2(cn.integral_section_residual(conn["flat"], off)), zero_verdict),
           trees_and(False, off_want, xs, "residual(phi + 1)")),
        Op("is_sopde", lambda: jf.is_sopde(jet["sode"], model.probe), verdict(True)),
        Op("is_sopde", lambda: jf.is_sopde(jet["sodd"], model.probe), verdict(True)),
        Op("is_sopde", lambda: jf.is_sopde(jet["nsode"], model.probe), verdict(False)),
        Op("sopde_integrability_residuals",
           lambda: _pairs(residual_list(jet["sode"])),
           trees_and(True, None, all_names, "sode residuals")),
        Op("sopde_integrability_residuals", lambda: residual_list(jet["sodeb"]), returns(check_sodeb)),
        Op("sopde_integrability_residuals",
           lambda: jf.sopde_integrability_residuals(jet["nsode"], model.probe), raises("NotSOPDEError")),
        Op("second_order_residual",
           lambda: _with_verdict(flat3(jf.second_order_residual(jet["sode"], psi, model.probe)), zero_verdict),
           trees_and(True, None, xs, "second order(sode)")),
        Op("second_order_residual",
           lambda: _with_verdict(flat3(jf.second_order_residual(jet["sodeb"], psi, model.probe)), zero_verdict),
           trees_and(True, None, xs, "second order(sodeb)")),
        Op("is_linear", lambda: ln.is_linear(conn["lin"], model.probe), verdict(True)),
        Op("is_linear", lambda: ln.is_linear(conn["lind"], model.probe), verdict(True)),
        Op("is_linear", lambda: ln.is_linear(conn["nonlin"], model.probe), verdict(False)),
        Op("christoffels",
           lambda: flat3(ln.christoffels(conn["lin"], model.probe).gamma),
           returns(lambda got: orc.check_trees(got, chris_want, xs, probe_seed, what="christoffels"))),
        Op("christoffels", lambda: ln.christoffels(conn["nonlin"], model.probe), raises("NotLinearError")),
        Op("same_class",
           lambda: mvec.same_class(rep(conn["flat"]), rep(conn["same"]), model.probe), verdict(True)),
        Op("same_class",
           lambda: mvec.same_class(rep(conn["flat"]), rep(conn["shifted"]), model.probe), verdict(False)),
        Op("is_transverse", lambda: mvec.is_transverse(rep(conn["flat"]), model.probe), verdict(True)),
    ]


def _with_verdict(entries, zero_verdict):
    return entries, zero_verdict(entries)


def _pairs(got):
    pairs, got_verdict = got
    return [e for _, e in pairs], got_verdict


# ---------------------------------------------------------------------------
# cli-cold


@dataclass
class CliOp:
    args: list
    exit_code: int
    check: Callable[[dict], str | None]


def cli_ops(seed, root, files, specs):
    """Every subcommand once, on generated and shipped models."""
    rng = random.Random(f"ops/cli-cold/{seed}")
    g1, g2, sph = (files[n] for n in ("bundle_m2_n1.yaml", "bundle_m3_n2.yaml", "sphere.yaml"))
    c1, c2 = specs["bundle_m2_n1.yaml"][0], specs["bundle_m3_n2.yaml"][0]
    shipped = {n: os.path.join(root, "models", n) for n in ("plane.yaml", "sphere.yaml", "line.yaml")}
    xs, ys, _ = gen.names(2, 1)
    xs2, ys2, _ = gen.names(3, 2)
    fl = c1["flat"]
    p = [round(rng.uniform(-1, 1), 3) for _ in range(2)]
    y0 = round(rng.uniform(-1, 1), 3)
    target = [round(rng.uniform(-1, 1), 3) for _ in range(2)]
    phi_fn = gen.compile_fn(fl["phi"][0], xs)
    gamma_1 = gen.compile_fn(fl["gamma"][0][0], xs + ys)
    shift = c1["shift"][0]
    shifted_fns = [gen.compile_fn(gen.add(g, s), xs + ys) for g, s in zip(fl["gamma"][0], shift)]
    C = c1["lin"]["C"]
    cov_want = [  # d phi / dx^mu + C_mu phi, rows mu
        gen.compile_fn(gen.add(gen.diff(fl["phi"][0], x), gen.mul(C[0][0][mu], fl["phi"][0])), xs)
        for mu, x in enumerate(xs)
    ]
    cc = c2["curved_c"]
    curv2 = {
        f"R[{j + 1}][{mu + 1}][{nu + 1}]":
            _fn(gen.mul(gen.num(-2 * cc), gen.sub(gen.var(ys2[j]), c2["flat"]["phi"][j])), xs2 + ys2)
            if (mu, nu) == (0, 1) else None
        for j in range(2) for mu in range(3) for nu in range(mu + 1, 3)
    }
    lat_name, theta = specs["sphere.yaml"]["lats"][0]
    mer_name, a, b, _ = specs["sphere.yaml"]["arcs"][0]
    u = [round(rng.uniform(-1, 1), 3) for _ in range(2)]
    v = [round(rng.uniform(-1, 1), 3) for _ in range(2)]
    point = [round(rng.uniform(0.5, 2.5), 3), 0.5]
    sid = seed & 0xFFFF

    def fields(**want):
        def check(rep):
            for key, value in want.items():
                if rep.get(key) != value:
                    return f"{key} = {rep.get(key)!r}, expected {value!r}"
            return None
        return check

    def both(*checks):
        return lambda rep: next((r for r in (c(rep) for c in checks) if r), None)

    fmt = lambda vals: ",".join(repr(float(x)) for x in vals)  # noqa: E731
    at = f"x1={p[0]!r},x2={p[1]!r}"
    phi_text = gen.text(fl["phi"][0])
    return [
        CliOp(["expr", "--model", g1, "--text", phi_text, "--diff", "x1", "--at", at], 0, both(
            fields(zero=False),
            lambda rep: orc.check_close(rep["value"], phi_fn(*p), 1e-12, "expr value"),
            lambda rep: orc.check_texts([rep["derivative"]], [gen.compile_fn(gen.diff(fl["phi"][0], "x1"), xs)],
                                        xs, sid, what="derivative"))),
        CliOp(["prolong", "--model", g1, "--section", "phi0", "--second"], 0, both(
            fields(holonomic=True),
            lambda rep: orc.check_texts(rep["jet_components"][0],
                                        [gen.compile_fn(gen.diff(fl["phi"][0], x), xs) for x in xs],
                                        xs, sid, what="jet"))),
        CliOp(["curvature", "--model", g2, "--connection", "curved0"], 0, both(
            fields(integrable=False),
            lambda rep: orc.check_texts([rep["components"][key] for key in curv2],
                                        list(curv2.values()), xs2 + ys2, sid, what="curvature"))),
        CliOp(["integrable", "--model", g1, "--connection", "flat0"], 0, fields(integrable=True)),
        CliOp(["integrable", "--model", g2, "--connection", "curved0"], 1, fields(integrable=False)),
        CliOp(["split", "--model", g1, "--connection", "flat0", "--vector", "1,0,0"], 0,
              lambda rep: orc.check_texts(rep["vector"]["vertical"][2:],
                                          [lambda x1, x2, y1: -gamma_1(x1, x2, y1)],
                                          xs + ys, sid, what="vertical")),
        CliOp(["integral-section", "--model", g1, "--connection", "flat0", "--start", fmt(p),
               "--fiber", fmt([y0]), "--target", fmt(target), "--steps", str(CLI_STEPS)], 0,
              lambda rep: orc.check_close(
                  rep["samples"][0]["values"],
                  orc.flat_section([phi_fn], [gen.compile_fn(fl["kappa"][0], xs)], p, [y0], target),
                  1e-6, "integral section")),
        CliOp(["residual", "--model", g1, "--connection", "flat0", "--section", "phi0"], 0,
              fields(vanishes=True)),
        CliOp(["residual", "--model", g2, "--jetfield", "sodeb0", "--section", "psi0"], 0,
              fields(vanishes=True)),
        CliOp(["shift", "--model", g1, "--connection", "flat0",
               "--by", ",".join(gen.text(s) for s in shift)], 0,
              lambda rep: orc.check_texts(rep["gamma"][0], shifted_fns, xs + ys, sid, what="shift")),
        CliOp(["multivector", "--model", g1, "--connection", "flat0", "--other", "same0"], 0,
              fields(transverse=True, same_class=True)),
        CliOp(["sopde-check", "--model", g2, "--jetfield", "sode0"], 0,
              fields(sopde=True, integrable=True)),
        CliOp(["sopde-check", "--model", g1, "--jetfield", "nsode0"], 1, fields(sopde=False)),
        CliOp(["linear-check", "--model", g2, "--connection", "lin0"], 0, fields(linear=True)),
        CliOp(["christoffels", "--model", g1, "--connection", "lin0"], 0, both(
            fields(roundtrip=True),
            lambda rep: orc.check_texts(rep["symbols"][0][0],
                                        [gen.compile_fn(e, xs) for e in C[0][0]], xs, sid,
                                        what="christoffels"))),
        CliOp(["covariant", "--model", g1, "--christoffel", "ch0", "--section", "phi0",
               "--field", "1,0"], 0,
              lambda rep: orc.check_texts([row[0] for row in rep["differential"]], cov_want, xs, sid,
                                          what="differential")),
        CliOp(["torsion", "--model", shipped["sphere.yaml"], "--manifold-connection", "twisted"], 0,
              fields(symmetric=False)),
        CliOp(["transport", "--model", sph, "--manifold-connection", "levi_civita",
               "--curve", mer_name, "--vector", fmt(u), "--steps", str(CLI_STEPS)], 0,
              lambda rep: orc.check_meridian(a, b, u, rep["final"], 1e-6)),
        CliOp(["holonomy", "--model", sph, "--manifold-connection", "levi_civita",
               "--curve", lat_name, "--steps", str(CLI_STEPS)], 0,
              lambda rep: orc.check_close(rep["matrix"], orc.holonomy_matrix(theta), 1e-5, "holonomy")),
        CliOp(["lift", "--model", sph, "--manifold-connection", "levi_civita",
               "--point", fmt(point), "--fiber", fmt(u), "--vector", fmt(v)], 0,
              lambda rep: orc.check_close(rep["horizontal_lift"], orc.horizontal_lift(point[0], u, v),
                                          1e-12, "lift")),
        CliOp(["curvature", "--model", shipped["plane.yaml"], "--connection", "curved"], 0,
              fields(integrable=False)),
        CliOp(["integral-section", "--model", shipped["line.yaml"], "--connection", "exponential",
               "--start", "0", "--fiber", "1", "--target", "1", "--steps", str(CLI_STEPS)], 0,
              lambda rep: orc.check_close(rep["samples"][0]["values"], [math.e], 1e-9,
                                          "exponential section")),
    ]


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cli_command(op, out_path, trace_path=None):
    if trace_path is None:
        head = [sys.executable, "-m", "ehresmann.cli"]
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        head = [sys.executable, os.path.join(here, "traced_cli.py"), trace_path]
    return head + op.args + ["-o", out_path]


def run_cli(op, root, out_path, trace_path=None):
    """Run one CLI process; returns (exit code, stderr, JSON report or None)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    proc = subprocess.run(cli_command(op, out_path, trace_path), cwd=root, env=cli_env(root),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT)
    try:
        with open(out_path) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = None
    return proc.returncode, proc.stderr, report


def check_cli(op, outcome):
    code, stderr, report = outcome
    if code != op.exit_code:
        return f"exit {code}, expected {op.exit_code}: {stderr.strip()[-300:]}"
    if report is None:
        return "no JSON report"
    try:
        return op.check(report)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return f"report field missing or malformed: {type(err).__name__}: {err}"
