"""What several test modules share: the on-ramp reference, a small merge scenario,
and random roads and states drawn from a numpy generator.

No hypothesis here: the modules that import this one run without it. Its
strategies are in ``shared_strategies``.
"""

import dataclasses

from arznet import fundamental as fd
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec

# the on-ramp reference: roads 1 and 2 (ROAD_IN) merge at priority 0.5 into road 3 (ROAD_OUT)
ROAD_IN = RoadParams(rho_max=180.0, v_ref=100.0, gamma=1.2)
ROAD_OUT = RoadParams(rho_max=90.0, v_ref=100.0, gamma=1.7)


def ramp_branches(q2_desired):
    """The on-ramp's branches: road 1 at density 30, road 2 at the free-flow equilibrium
    of flux ``q2_desired``, road 3 at density 10."""
    s1 = fd.equilibrium_state(ROAD_IN, 30.0)
    s2 = fd.equilibrium_state(ROAD_IN, fd.equilibrium_density(ROAD_IN, q2_desired))
    s3 = fd.equilibrium_state(ROAD_OUT, 10.0)
    return (ROAD_IN, s1), (ROAD_IN, s2), (ROAD_OUT, s3)


def ramp_network(q2_desired, cells=100):
    """The on-ramp as roads r1, r2 -> r3 of 1 km, each uniform in its branch's state."""
    roads = {rid: sim.road_from_state(rid, p, 1.0, cells, s)
             for rid, (p, s) in zip(("r1", "r2", "r3"), ramp_branches(q2_desired))}
    spec = JunctionSpec(JunctionKind.MERGE, (ROAD_IN, ROAD_IN), (ROAD_OUT,), priority=0.5)
    return sim.Network(roads, [sim.NetworkJunction(spec, ("r1", "r2"), ("r3",))])


def ramp_doc(settings):
    """The on-ramp as a scenario document of 100 cells a road, with ``settings`` as its
    ``sim`` object. Road 2 starts at density 30: a sweep sets its inflow."""
    roads = [{"id": rid, **dataclasses.asdict(p), "rho0": rho0, "length": 1.0, "cells": 100}
             for rid, p, rho0 in (("r1", ROAD_IN, 30.0), ("r2", ROAD_IN, 30.0),
                                  ("r3", ROAD_OUT, 10.0))]
    return {"roads": roads,
            "junctions": [{"kind": "merge", "in": ["r1", "r2"], "out": ["r3"], "priority": 0.5}],
            "sim": settings}


MERGE_DOC = {
    "roads": [
        {"id": "r1", "rho_max": 180.0, "v_ref": 100.0, "gamma": 1.2, "rho0": 30.0,
         "length": 1.0, "cells": 40},
        {"id": "r2", "rho_max": 180.0, "v_ref": 100.0, "gamma": 1.2, "q_desired": 2000.0,
         "length": 1.0, "cells": 40},
        {"id": "r3", "rho_max": 90.0, "v_ref": 100.0, "gamma": 1.7, "rho0": 10.0,
         "length": 1.0, "cells": 40},
    ],
    "junctions": [
        {"kind": "merge", "in": ["r1", "r2"], "out": ["r3"], "priority": 0.5},
    ],
    "sim": {"t_end": 0.05, "cfl": 0.5},
}


def rand_params(rng):
    return RoadParams(rng.uniform(20, 300), rng.uniform(40, 160), rng.uniform(0.5, 4.0))


def rand_state(rng, p):
    return TrafficState(rng.uniform(1e-3, 0.98 * p.rho_max), rng.uniform(0.5, p.v_ref))
