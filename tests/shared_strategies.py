"""Hypothesis strategies that several test modules draw from.

Importing this module skips the importing test module when hypothesis is
not installed.
"""

import pytest

from arznet import fundamental as fd
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# exponents where the power function takes special paths, and any in [0.5, 4]
gammas = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.5, 4.0))
# near 0 and 1 the priority split pins one road almost entirely
priorities = st.one_of(
    st.floats(1e-6, 0.05), st.floats(0.05, 0.95), st.floats(0.95, 1.0 - 1e-6),
)

# the ranges of the random instances of acceptance criterion 10
params = st.builds(
    RoadParams,
    rho_max=st.floats(20.0, 300.0),
    v_ref=st.floats(40.0, 160.0),
    gamma=st.floats(0.5, 4.0),
)
# the same ranges, with the exponent drawn from ``gammas``
gamma_params = st.builds(
    RoadParams,
    rho_max=st.floats(20.0, 300.0),
    v_ref=st.floats(40.0, 160.0),
    gamma=gammas,
)


@st.composite
def branch(draw):
    """A road and a state: interior, vacuum, standing, up to 1.2 rho_max or at its own sonic point."""
    p = draw(params)
    v = draw(st.floats(0.5, p.v_ref))
    extreme = draw(st.sampled_from([None, "vacuum", "standing", "dense", "sonic"]))
    if extreme == "vacuum":
        rho = 0.0
    elif extreme == "standing":
        rho, v = draw(st.floats(1e-3, 1.2 * p.rho_max)), 0.0
    elif extreme == "dense":
        rho = draw(st.floats(0.98 * p.rho_max, 1.2 * p.rho_max))
    elif extreme == "sonic":
        # rho = sigma(v + p(rho)) where gamma p(rho) = v
        rho = fd.pressure_inv(p, v / p.gamma) * draw(st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9]))
    else:
        rho = draw(st.floats(1e-3, 0.98 * p.rho_max))
    return p, TrafficState(rho, v)


@st.composite
def instance(draw):
    """(spec, states) of a random 1-to-1, diverge (one to three outgoing) or merge junction."""
    kind = draw(st.sampled_from(list(JunctionKind)))
    if kind is JunctionKind.ONE_TO_ONE:
        branches = [draw(branch()), draw(branch())]
        spec = JunctionSpec(kind, (branches[0][0],), (branches[1][0],))
    elif kind is JunctionKind.DIVERGE:
        m = draw(st.integers(1, 3))
        branches = [draw(branch()) for _ in range(m + 1)]
        weights = [draw(st.floats(0.05, 1.0)) for _ in range(m)]
        alphas = tuple(wt / sum(weights) for wt in weights[:-1])
        alphas += (1.0 - sum(alphas),)
        spec = JunctionSpec(kind, (branches[0][0],), tuple(p for p, _ in branches[1:]),
                            alphas=alphas)
    else:
        branches = [draw(branch()) for _ in range(3)]
        priority = draw(priorities)
        if draw(st.booleans()):
            # the mirrored construction: swap the incoming roads and the priority
            branches[:2] = branches[1::-1]
            priority = 1.0 - priority
        spec = JunctionSpec(kind, (branches[0][0], branches[1][0]), (branches[2][0],),
                            priority=priority)
    return spec, [s for _, s in branches]
