"""End-to-end acceptance gate.

Each test prints one line of the form ``CRITERION n (<label>): PASS|FAIL``
and then asserts, so the verdicts survive in the captured log either way.
Tolerances are pinned here and must not be loosened to make a test pass.
"""

import json
import math
import time

import numpy as np
import pytest

from arznet import cli
from arznet import fundamental as fd
from arznet import junction as jc
from arznet import oracle, sim
from arznet.fundamental import TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from shared import ROAD_IN, ROAD_OUT, ramp_branches, ramp_doc, ramp_network, rand_params, rand_state

# Frozen steady merge fluxes for the on-ramp reference scenario (road 1 held at
# density 30, road 3 at density 10, priority 0.5): desired road-2 inflow vs the
# realized (q1, q2, outflow) triple.
RAMP_ROWS = [
    (1000.0, 2500.0, 1000.0, 3500.0),
    (1400.0, 2500.0, 1400.0, 3900.0),
    (1500.0, 2413.1, 1500.0, 3913.1),
    (1750.0, 2155.0, 1750.0, 3905.0),
    (2000.0, 1945.3, 1945.3, 3890.6),
    (2500.0, 1924.6, 1924.6, 3849.3),
    (3000.0, 1903.9, 1903.9, 3807.7),
    (3500.0, 1881.9, 1881.9, 3763.8),
]


def report(num, label, ok, detail=""):
    line = f"CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)


def rand_merge(rng):
    ps = [rand_params(rng) for _ in range(3)]
    return tuple((p, rand_state(rng, p)) for p in ps)


def rand_instance(rng, kind):
    """(spec, states) for a random junction of the given kind."""
    if kind is JunctionKind.ONE_TO_ONE:
        p1, p2 = rand_params(rng), rand_params(rng)
        spec = JunctionSpec(kind, (p1,), (p2,))
        states = [rand_state(rng, p1), rand_state(rng, p2)]
    elif kind is JunctionKind.DIVERGE:
        m = int(rng.integers(2, 4))
        p1 = rand_params(rng)
        outs = tuple(rand_params(rng) for _ in range(m))
        raw = rng.dirichlet(np.full(m, 2.0))
        alphas = tuple(float(a) for a in raw[:-1]) + (float(1.0 - raw[:-1].sum()),)
        spec = JunctionSpec(kind, (p1,), outs, alphas=alphas)
        states = [rand_state(rng, p1)] + [rand_state(rng, p) for p in outs]
    else:
        p1, p2, p3 = rand_params(rng), rand_params(rng), rand_params(rng)
        spec = JunctionSpec(kind, (p1, p2), (p3,), priority=float(rng.uniform(0.05, 0.95)))
        states = [rand_state(rng, p1), rand_state(rng, p2), rand_state(rng, p3)]
    return spec, states


def direct_sweep():
    rows = []
    for q2_desired, *_ in RAMP_ROWS:
        b1, b2, b3 = ramp_branches(q2_desired)
        sol = jc.solve_merge(b1, b2, b3, priority=0.5)
        rows.append((sol.q_in[0], sol.q_in[1], sol.q_out[0], sol.ratio))
    return rows


def test_criterion_01_table_direct():
    t0 = time.perf_counter()
    rows = direct_sweep()
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for (q1, q2, q3, _), (_, e1, e2, e3) in zip(rows, RAMP_ROWS):
        for got, want in ((q1, e1), (q2, e2), (q3, e3)):
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 5e-3 and elapsed < 1.0
    report(1, "reference table, direct solver", ok,
           f"worst rel dev {worst:.2e}, {elapsed:.3f} s")
    assert ok


def test_criterion_02_table_simulation(tmp_path):
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(ramp_doc({"t_end": 0.5, "cfl": 0.5})))
    out = tmp_path / "cap"
    sweep = ",".join(str(r[0]) for r in RAMP_ROWS)
    t0 = time.perf_counter()
    code = cli.main(["capacity-drop", "--scenario", str(path),
                     "--sweep", sweep, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = (out / "capacity_drop.csv").read_text().splitlines()
    worst = 0.0
    for line, (_, e1, e2, e3) in zip(lines[1:], RAMP_ROWS):
        _, a1, _, a2, outflow, _, _ = (float(x) for x in line.split(","))
        for got, want in ((a1, e1), (a2, e2), (outflow, e3)):
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-2 and elapsed < 60.0
    report(2, "reference table, simulation", ok,
           f"worst rel dev {worst:.2e}, {elapsed:.1f} s")
    assert ok


def test_criterion_03_capacity_drop_shape():
    rows = direct_sweep()
    outflow = [r[2] for r in rows]
    rising = all(outflow[i] < outflow[i + 1] for i in range(2))
    falling = all(outflow[i] > outflow[i + 1] for i in range(2, 7))
    ratios_locked = all(abs(rows[i][3] - 0.5) <= 1e-3 for i in range(4, 8))
    ok = rising and falling and ratios_locked
    report(3, "capacity drop shape and ratio lock", ok,
           f"rising={rising} falling={falling} locked={ratios_locked}")
    assert ok


def _staircase_front(sample):
    """Non-dominated column maxima of the sampled feasible set."""
    feas = sample.feasible
    n, m = feas.shape
    jmax = np.where(feas.any(axis=1), m - 1 - np.argmax(feas[:, ::-1], axis=1), -1)
    pts = []
    best = -1
    for i in range(n - 1, -1, -1):
        if jmax[i] > best:
            pts.append((float(sample.q1_axis[i]), float(sample.q2_axis[jmax[i]])))
            best = jmax[i]
    return np.array(pts[::-1])


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(20240)
    infeasible = dominated = ratio_beaten = 0
    for _ in range(1000):
        b1, b2, b3 = rand_merge(rng)
        priority = float(rng.uniform(0.05, 0.95))
        ctx = oracle.MergeContext(b1, b2, b3)
        sol = jc.solve_merge(b1, b2, b3, priority)
        q1, q2 = sol.q_in

        if not oracle.feasible(ctx, q1, q2):
            infeasible += 1
            continue

        sample = oracle.sample_pareto(ctx, n=512)
        step1 = float(sample.q1_axis[1] - sample.q1_axis[0])
        step2 = float(sample.q2_axis[1] - sample.q2_axis[0])
        tol = jc.flux_tol(max(1.0, ctx.delta1, ctx.delta2))

        # (b) nothing feasible dominates the solver point beyond one grid cell
        i0 = int(np.searchsorted(sample.q1_axis, q1 + step1 + tol))
        j0 = int(np.searchsorted(sample.q2_axis, q2 + step2 + tol))
        if sample.feasible[i0:, j0:].any():
            dominated += 1
            continue

        # (c) no sampled front point comes closer to the priority ratio,
        # beyond the ratio quantization induced by the grid
        pts = _staircase_front(sample)
        tot = pts.sum(axis=1)
        good = tot > 0
        if good.any():
            ratios = pts[good, 0] / tot[good]
            slack = 3.0 * max(step1, step2) / np.maximum(tot[good], max(step1, step2))
            excess = abs(sol.ratio - priority) - np.abs(ratios - priority) - slack
            if float(excess.max()) > 0:
                ratio_beaten += 1

    ok = infeasible == 0 and dominated == 0 and ratio_beaten == 0
    report(4, "merge solver vs grid oracle", ok,
           f"infeasible={infeasible} dominated={dominated} ratio_beaten={ratio_beaten}")
    assert ok


def test_criterion_05_convexity():
    rng = np.random.default_rng(20241)
    violations = 0
    for _ in range(10_000):
        b1, b2, b3 = rand_merge(rng)
        ctx = oracle.MergeContext(b1, b2, b3)
        violations += oracle.convexity_probe(ctx, trials=1, rng=rng, segment_points=10)
    ok = violations == 0
    report(5, "feasible set convexity probe", ok, f"violations={violations}")
    assert ok


def test_criterion_06_conservation():
    # ledger closure over three qualitatively different runs
    worst_mass = worst_mom = 0.0

    def run_ledger(net, t_end):
        nonlocal worst_mass, worst_mom
        res = sim.run(net, sim.SimConfig(t_end=t_end))
        r_mass, r_mom = res.ledger.residuals()
        worst_mass = max(worst_mass, abs(r_mass))
        worst_mom = max(worst_mom, abs(r_mom))

    run_ledger(ramp_network(2000.0), 0.1)

    road = sim.road_from_state("r", ROAD_IN, 2.0, 80, fd.equilibrium_state(ROAD_IN, 20.0))
    rho_hi, y_hi = fd.to_conservative(ROAD_IN, fd.equilibrium_state(ROAD_IN, 90.0))
    road.rho[30:50] = rho_hi
    road.y[30:50] = y_hi
    run_ledger(sim.Network({"r": road}), 0.02)

    droads = {
        "a": sim.road_from_state("a", ROAD_IN, 1.0, 60, fd.equilibrium_state(ROAD_IN, 50.0)),
        "b": sim.road_from_state("b", ROAD_IN, 1.0, 60, fd.equilibrium_state(ROAD_IN, 20.0)),
        "c": sim.road_from_state("c", ROAD_OUT, 1.0, 60, fd.equilibrium_state(ROAD_OUT, 40.0)),
    }
    dspec = JunctionSpec(JunctionKind.DIVERGE, (ROAD_IN,), (ROAD_IN, ROAD_OUT),
                         alphas=(0.6, 0.4))
    run_ledger(sim.Network(droads, [sim.NetworkJunction(dspec, ("a",), ("b", "c"))]), 0.05)

    # per-junction balance: mass exact, momentum to 1e-9 relative
    rng = np.random.default_rng(20242)
    mass_exact = True
    worst_jmom = 0.0
    for kind in JunctionKind:
        for _ in range(1000):
            spec, states = rand_instance(rng, kind)
            sol = jc.solve(spec, states)
            if math.fsum(sol.q_in) != math.fsum(sol.q_out):
                mass_exact = False
            mom_in = math.fsum(q * w for q, w in zip(sol.q_in, sol.w_in))
            mom_out = math.fsum(q * w for q, w in zip(sol.q_out, sol.w_out))
            worst_jmom = max(worst_jmom, abs(mom_in - mom_out) / max(1.0, mom_in))

    ok = worst_mass <= 1e-10 and worst_mom <= 1e-10 and mass_exact and worst_jmom <= 1e-9
    report(6, "conservation ledgers", ok,
           f"ledger mass {worst_mass:.1e}, ledger momentum {worst_mom:.1e}, "
           f"junction mass exact={mass_exact}, junction momentum {worst_jmom:.1e}")
    assert ok


def test_criterion_07_admissibility():
    rng = np.random.default_rng(20243)
    bad = {kind.value: 0 for kind in JunctionKind}
    for kind in JunctionKind:
        for _ in range(1000):
            spec, states = rand_instance(rng, kind)
            sol = jc.solve(spec, states)
            rep = jc.check_admissibility(spec, states, sol)
            if not rep.ok:
                bad[kind.value] += 1
    ok = all(v == 0 for v in bad.values())
    report(7, "wave admissibility", ok, f"violations per kind {bad}")
    assert ok


def test_criterion_08_supply_geometry():
    rng = np.random.default_rng(20244)
    worst_comp = worst_hat = worst_star = worst_star2 = 0.0
    n_hat = n_star = n_star2 = n_comp = 0
    h = 1e-5
    while min(n_hat, n_star, n_star2) < 300 or n_comp < 1000:
        b1, b2, b3 = rand_merge(rng)
        geom = jc.merge_geometry(b1, b2, b3)

        if n_comp < 1000:
            p = float(rng.uniform(0.0, 1.0))
            w = geom.w_at(p)
            direct = float(fd.supply(b3[0], jc.modified_density(b3[0], w, b3[1].v), w))
            rel = abs(jc.sigma_tilde(geom, p) - direct) / max(1.0, direct)
            worst_comp = max(worst_comp, rel)
            n_comp += 1

        if geom.p_hat is None:
            continue
        if 0.01 < geom.p_hat < 0.99 and n_hat < 300:
            dfree = jc.sigma_tilde_branch_derivative(geom, geom.p_hat, "free")
            dcong = jc.sigma_tilde_branch_derivative(geom, geom.p_hat, "cong")
            worst_hat = max(worst_hat, abs(dfree - dcong) / max(abs(dfree), abs(dcong), 1e-30))
            n_hat += 1
        for target, second in ((geom.p_star, False), (geom.p_star2, True)):
            if target is None or not 10 * h < target < 1 - 10 * h:
                continue
            if abs(target - geom.p_hat) < 10 * h:
                continue
            if second and n_star2 >= 300 or not second and n_star >= 300:
                continue
            share = (lambda p: 1.0 - p) if second else (lambda p: p)
            qa = share(target - h) * jc.sigma_tilde(geom, target - h)
            qb = share(target + h) * jc.sigma_tilde(geom, target + h)
            d = abs(qb - qa) / (2 * h) / max(1.0, jc.sigma_tilde(geom, target))
            if second:
                worst_star2 = max(worst_star2, d)
                n_star2 += 1
            else:
                worst_star = max(worst_star, d)
                n_star += 1

    ok = (worst_comp <= 1e-10 and worst_hat <= 1e-8
          and worst_star <= 1e-6 and worst_star2 <= 1e-6)
    report(8, "closed-form supply geometry", ok,
           f"composition {worst_comp:.1e}, derivative match {worst_hat:.1e}, "
           f"stationarity {worst_star:.1e}/{worst_star2:.1e}")
    assert ok


def _jump_estimate(f, a, b, min_width=1e-11):
    """Limit variation of f over a shrinking interval: zero iff continuous."""
    fa, fb = np.asarray(f(a)), np.asarray(f(b))
    while b - a > min_width:
        mid = 0.5 * (a + b)
        fm = np.asarray(f(mid))
        if np.max(np.abs(fm - fa)) >= np.max(np.abs(fb - fm)):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return float(np.max(np.abs(fb - fa)))


def test_criterion_09_continuity_sweeps():
    instances = [ramp_branches(2000.0), rand_merge(np.random.default_rng(20245))]
    worst = 0.0
    for b1, b2, b3 in instances:
        def fluxes(p):
            sol = jc.solve_merge(b1, b2, b3, p)
            return np.array([sol.q_in[0], sol.q_in[1], sol.q_out[0]])

        ratios = np.arange(1e-4, 1.0, 1e-4)
        vals = np.array([fluxes(p) for p in ratios])
        scale = float(np.max(vals[:, 2]))
        limit = 10.0 * jc.flux_tol(scale)
        diffs = np.max(np.abs(np.diff(vals, axis=0)), axis=1)
        candidates = set(int(i) for i in np.argsort(diffs)[-8:])
        geom = jc.merge_geometry(b1, b2, b3)
        for crit in (geom.p_hat, geom.p_star, geom.p_star2):
            if crit is not None and ratios[0] < crit < ratios[-1]:
                candidates.add(int(np.searchsorted(ratios, crit)) - 1)
        for i in candidates:
            if 0 <= i < len(ratios) - 1:
                worst = max(worst, _jump_estimate(fluxes, ratios[i], ratios[i + 1]) / limit)

    # attribute-gap sweep through zero: vary the road-2 speed so w2 crosses w1
    p1, s1 = ramp_branches(2000.0)[0]
    out = ramp_branches(2000.0)[2]
    w1 = fd.attribute(p1, s1)
    rho2 = 60.0
    v_eq = w1 - float(fd.pressure(ROAD_IN, rho2))

    def gap_fluxes(t):
        s2 = TrafficState(rho2, v_eq + t)
        sol = jc.solve_merge((p1, s1), (ROAD_IN, s2), out, 0.4)
        return np.array([sol.q_in[0], sol.q_in[1], sol.q_out[0]])

    gaps = np.arange(-0.01, 0.0101, 1e-4)
    gvals = np.array([gap_fluxes(t) for t in gaps])
    limit = 10.0 * jc.flux_tol(float(np.max(gvals[:, 2])))
    gd = np.max(np.abs(np.diff(gvals, axis=0)), axis=1)
    cand = set(int(i) for i in np.argsort(gd)[-5:])
    cand.add(int(np.searchsorted(gaps, 0.0)) - 1)
    for i in cand:
        if 0 <= i < len(gaps) - 1:
            worst = max(worst, _jump_estimate(gap_fluxes, gaps[i], gaps[i + 1], 1e-13) / limit)
    worst = max(worst, float(np.max(np.abs(gap_fluxes(0.0) - gap_fluxes(1e-9)))) / limit)
    worst = max(worst, float(np.max(np.abs(gap_fluxes(0.0) - gap_fluxes(-1e-9)))) / limit)

    ok = worst <= 1.0
    report(9, "flux continuity sweeps", ok, f"worst jump {worst:.2e} of allowance")
    assert ok


def test_criterion_10_consistency():
    rng = np.random.default_rng(20246)
    worst = {kind.value: 0.0 for kind in JunctionKind}
    merge_by_case: dict[str, float] = {}
    gate_ok = True
    for kind in JunctionKind:
        for _ in range(1000):
            spec, states = rand_instance(rng, kind)
            sol = jc.solve(spec, states)
            rep = jc.check_consistency(spec, states)
            worst[kind.value] = max(worst[kind.value], rep.max_deviation)
            scale = max(1.0, *sol.q_in, *sol.q_out)
            if kind is JunctionKind.MERGE:
                tag = rep.case or "?"
                merge_by_case[tag] = max(merge_by_case.get(tag, 0.0), rep.max_deviation)
            elif rep.max_deviation > jc.flux_tol(scale):
                gate_ok = False
    detail = (f"one_to_one {worst['one_to_one']:.1e}, diverge {worst['diverge']:.1e}; "
              "merge by case "
              + ", ".join(f"{k}={v:.1e}" for k, v in sorted(merge_by_case.items())))
    report(10, "solver self-consistency", gate_ok, detail)
    assert gate_ok
