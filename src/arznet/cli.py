"""Command-line front end: junction solves, network simulation, capacity-drop sweeps.

Exit codes: 0 success, 2 scenario, argument or allocation errors, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import fundamental as fd
from . import junction as jn
from . import oracle, scenario, sim
from .junction import JunctionKind
from .rootfind import SolverFailure
from .scenario import ScenarioError

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3


def _load_single_junction(path):
    sc = scenario.load(path)
    if len(sc.junctions) != 1:
        raise ScenarioError(f"{path}: expected exactly one junction, found {len(sc.junctions)}")
    nj = sc.junctions[0]
    return nj, scenario.junction_states(sc, nj)


def cmd_solve(args) -> int:
    nj, states = _load_single_junction(args.scenario)
    sol = jn.solve(nj.spec, states)
    print(f"kind: {nj.spec.kind.value}")
    for rid, q, w in zip(nj.in_ids, sol.q_in, sol.w_in):
        print(f"in  {rid}: q={q:.6f} w={w:.6f}")
    for rid, q, w in zip(nj.out_ids, sol.q_out, sol.w_out):
        print(f"out {rid}: q={q:.6f} w_mix={w:.6f}")
    if sol.ratio is not None:
        print(f"ratio: {sol.ratio:.6f} (1 - ratio: {1 - sol.ratio:.6f})")
        print(f"case: {sol.case}")
    for rid, b in zip(nj.in_ids + nj.out_ids, sol.boundary_in + sol.boundary_out):
        print(f"boundary {rid}: rho={b.rho:.6f} v={b.v:.6f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = scenario.load(args.scenario)
    network = scenario.build_network(sc)
    result = sim.run(network, sc.sim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim.write_flux_csv(result, out / "fluxes.csv")
    sim.write_profile_csv(result, out / "profiles.csv")
    r_mass, r_mom = result.ledger.residuals()
    with open(out / "ledger.csv", "w") as fh:
        fh.write("quantity,initial,final,inflow,outflow,relative_residual\n")
        led = result.ledger
        fh.write(f"mass,{led.initial_mass!r},{led.final_mass!r},"
                 f"{led.mass_in!r},{led.mass_out!r},{r_mass!r}\n")
        fh.write(f"momentum,{led.initial_momentum!r},{led.final_momentum!r},"
                 f"{led.momentum_in!r},{led.momentum_out!r},{r_mom!r}\n")
    print(f"steps: {result.steps}  t_end: {result.times[-1]:.6f}  steady: {result.steady}")
    for label, q in zip(sim.end_labels(result.steady_fluxes), result.steady_fluxes.values()):
        print(f"junction flux {label}: {q:.6f}")
    return EXIT_OK


def cmd_capacity_drop(args) -> int:
    sc = scenario.load(args.scenario)
    if len(sc.junctions) != 1 or sc.junctions[0].spec.kind is not JunctionKind.MERGE:
        raise ScenarioError("scenario must contain exactly one merge junction")
    nj = sc.junctions[0]
    road1 = sc.roads[nj.in_ids[0]]
    road2 = sc.roads[nj.in_ids[1]]
    sweep = [float(v) for v in args.sweep.split(",") if v.strip() != ""]
    if not sweep:
        raise ScenarioError("empty sweep")
    # fundamental checks every sweep value here, before the first run
    rho2 = [fd.equilibrium_density(road2.params, q) for q in sweep]
    s1 = road1.initial_state
    desired1 = s1.rho * s1.v

    scenarios = []
    for rho0 in rho2:
        road2_k = dataclasses.replace(road2, rho0=rho0)
        scenarios.append(dataclasses.replace(sc, roads={**sc.roads, road2.road_id: road2_k}))
    if args.direct:
        fluxes = []
        for sc_k in scenarios:
            fl = jn.junction_fluxes(nj.spec, scenario.junction_states(sc_k, nj))
            fluxes.append((*fl.q_in, fl.q_out[0]))
    else:
        # the sweep points as one batch: member k is sweep point k
        networks = [scenario.build_network(sc_k) for sc_k in scenarios]
        try:
            results = sim.run_batch(networks, sc.sim)
        except SolverFailure as exc:
            exc.args = (f"{exc}, sweep value {sweep[exc.member]!r}",)
            raise
        fluxes = [[res.steady_fluxes[end] for end in nj.ends] for res in results]

    rows = []
    for q2_desired, (q1, q2, outflow) in zip(sweep, fluxes):
        total = q1 + q2
        r1 = q1 / total if total > 0 else float("nan")
        rows.append((desired1, q1, q2_desired, q2, outflow, r1, 1.0 - r1))

    header = ["desired1", "actual1", "desired2", "actual2", "outflow", "ratio1", "ratio2"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "capacity_drop.csv").write_text(csv_text)
    print(" desired1  actual1  desired2  actual2  outflow  ratio1  ratio2")
    for d1, a1, d2, a2, of, r1, r2 in rows:
        print(f" {d1:8.1f} {a1:8.1f}  {d2:8.1f} {a2:8.1f} {of:8.1f}   {r1:.3f}   {r2:.3f}")
    return EXIT_OK


def cmd_pareto_dump(args) -> int:
    nj, states = _load_single_junction(args.scenario)
    spec = nj.spec
    if spec.kind is not JunctionKind.MERGE:
        raise ScenarioError("pareto-dump requires a merge scenario")
    n = args.grid
    in1 = (spec.incoming[0], states[0])
    in2 = (spec.incoming[1], states[1])
    out3 = (spec.outgoing[0], states[2])
    ctx = oracle.MergeContext(in1, in2, out3)
    sample = oracle.sample_pareto(ctx, n=n)

    fl = jn.junction_fluxes(spec, states)
    markers = [
        ("solver", fl.q_in[0], fl.q_in[1]),
        ("priority_split", *jn.priority_split(in1, in2, out3, spec.priority)),
    ]
    stationary = jn.stationary_split(in1, in2, out3)
    if stationary is not None:
        markers.append(("stationary", *stationary))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    oracle.write_sample_csv(sample, out / "feasible.csv", extra_points=markers)
    print(f"wrote {out / 'feasible.csv'} (grid {n}x{n}, "
          f"resolution {sample.resolution[0]:.6g} x {sample.resolution[1]:.6g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arznet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a single-junction Riemann problem")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run the Godunov network simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("capacity-drop", help="sweep desired inflow of the second merge road")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sweep", required=True, help="comma-separated desired fluxes [veh/h]")
    p.add_argument("--out", default=None)
    p.add_argument("--direct", action="store_true", help="use the direct Riemann solver")
    p.set_defaults(func=cmd_capacity_drop)

    p = sub.add_parser("pareto-dump", help="dump the sampled feasible set of a merge")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=cmd_pareto_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
