"""Scenario parsing: the simulator's own junctions and settings, and rejection at the edge.

``parse`` is where a scenario file enters the program: every value it reads
either lands in a ``RoadSpec``, a ``sim.NetworkJunction`` (with its validated
``JunctionSpec``) or the ``sim.SimConfig``, or raises ``ScenarioError``, which
the CLI turns into exit code 2.
"""

import copy
import dataclasses
import json
import math
import re

import pytest

from arznet import cli, scenario, sim
from arznet import junction as jn
from test_cli import MERGE_DOC

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DIVERGE_DOC = {
    "roads": [
        {"id": "r1", "rho_max": 180.0, "v_ref": 100.0, "gamma": 1.2, "rho0": 30.0},
        {"id": "r2", "rho_max": 90.0, "v_ref": 100.0, "gamma": 1.7, "rho0": 10.0},
        {"id": "r3", "rho_max": 90.0, "v_ref": 100.0, "gamma": 1.7, "rho0": 10.0},
    ],
    "junctions": [{"kind": "diverge", "in": ["r1"], "out": ["r2", "r3"], "alphas": [0.4, 0.6]}],
}

# (document, where, section, index, field): each field a scenario file may hold
FIELDS = (
    [(MERGE_DOC, "roads", 0, key)
     for key in ("id", "rho_max", "v_ref", "gamma", "length", "cells", "rho0")]
    + [(MERGE_DOC, "roads", 1, "q_desired")]
    + [(MERGE_DOC, "junctions", 0, key) for key in ("kind", "in", "out", "priority")]
    + [(DIVERGE_DOC, "junctions", 0, "alphas")]
    + [(MERGE_DOC, "sim", None, f.name) for f in dataclasses.fields(sim.SimConfig)]
)
# 1e999 stands for the JSON literal, which decodes to infinity; 10**400 is
# an integer beyond the float range
BAD = [None, "x", [1], {}, math.nan, math.inf, -math.inf, "1e999", 10**400, 2.5, True]
NUMERIC = {"rho_max", "v_ref", "gamma", "length", "cells", "rho0", "q_desired", "priority",
           *(f.name for f in dataclasses.fields(sim.SimConfig))}


def _with(doc, section, index, key, value):
    doc = copy.deepcopy(doc)
    target = doc[section] if index is None else doc[section][index]
    target[key] = value
    # the literal 1e999 itself, as a file would hold it
    return json.dumps(doc).replace('"1e999"', "1e999")


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("doc, section, index, key", FIELDS,
                         ids=[f"{s}.{k}" for _, s, _, k in FIELDS])
def test_malformed_value_is_a_scenario_error(doc, section, index, key, value, tmp_path, capsys):
    text = _with(doc, section, index, key, value)
    try:
        scenario.parse(json.loads(text))
    except scenario.ScenarioError as exc:
        if key in NUMERIC and value != 2.5:  # not a finite number: named before any range check
            where = section if index is None else f"{section}[{index}]"
            assert str(exc).startswith(f"{where}.{key}: must be a finite number"), exc
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main(["solve", "--scenario", str(path)]) in (0, 2)


class TestEdgeValues:
    def test_infinite_length_rejected(self):
        doc = json.loads(_with(MERGE_DOC, "roads", 0, "length", "1e999"))
        with pytest.raises(scenario.ScenarioError, match=r"roads\[0\]\.length"):
            scenario.parse(doc)

    @pytest.mark.parametrize("section, index, key", [("roads", 0, "cells"), ("sim", None, "output_stride")])
    def test_whole_numbers(self, section, index, key):
        doc = json.loads(_with(MERGE_DOC, section, index, key, 2.5))
        with pytest.raises(scenario.ScenarioError, match=f"{key}: must be a whole number"):
            scenario.parse(doc)
        sc = scenario.parse(json.loads(_with(MERGE_DOC, section, index, key, 100.0)))
        value = sc.roads["r1"].cells if key == "cells" else sc.sim.output_stride
        assert value == 100 and type(value) is int

    def test_zero_output_stride_rejected(self):
        with pytest.raises(scenario.ScenarioError, match="output_stride must be at least 1"):
            scenario.parse(json.loads(_with(MERGE_DOC, "sim", None, "output_stride", 0)))

    def test_tiny_priority_exits_two(self, tmp_path, capsys):
        # road 1 carries the larger attribute: the merge would run mirrored
        doc = {"roads": [{"id": rid, "rho_max": 180.0, "v_ref": v_ref, "gamma": 1.2, "rho0": rho0}
                         for rid, v_ref, rho0 in (("r1", 120.0, 30.0), ("r2", 100.0, 30.0),
                                                  ("r3", 100.0, 10.0))],
               "junctions": [{"kind": "merge", "in": ["r1", "r2"], "out": ["r3"], "priority": 1e-17}]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--scenario", str(path)]) == 2
        assert "2**-54" in capsys.readouterr().err


def test_road_id_that_is_another_roads_end_label_rejected():
    """Road b has a junction at each end, so its ends are labelled b[0] and b[-1]."""
    road = {"rho_max": 180.0, "v_ref": 100.0, "gamma": 1.2, "rho0": 30.0}
    doc = {"roads": [{"id": rid, **road} for rid in ("a", "b", "c", "b[-1]")],
           "junctions": [{"kind": "one_to_one", "in": ["a"], "out": ["b"]},
                         {"kind": "one_to_one", "in": ["b"], "out": ["c"]}]}
    with pytest.raises(scenario.ScenarioError,
                       match=re.escape("roads[3].id: 'b[-1]' is an end label of road 'b'")):
        scenario.parse(doc)
    doc["junctions"].pop()  # one junction end: road b keeps its id as its label
    assert list(scenario.parse(doc).roads) == ["a", "b", "c", "b[-1]"]


class TestUnknownKeys:
    """A key that its object does not know is named, not silently ignored."""

    @pytest.mark.parametrize("section, index, key", [
        ("sim", None, "t_ned"), ("sim", None, "max_steps"), ("roads", 0, "lenght"),
        ("junctions", 0, "priorty")])
    def test_unknown_key_is_named(self, section, index, key, tmp_path, capsys):
        text = _with(MERGE_DOC, section, index, key, 0.001)
        name = f"{section}.{key}" if index is None else f"{section}[{index}].{key}"
        with pytest.raises(scenario.ScenarioError, match=rf"^{re.escape(name)}: unknown key"):
            scenario.parse(json.loads(text))
        path = tmp_path / "typo.json"
        path.write_text(text)
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}: unknown key")
        assert not (tmp_path / "run").exists()

    def test_unknown_top_level_key(self):
        doc = dict(copy.deepcopy(MERGE_DOC), simulation={"t_end": 0.001})
        with pytest.raises(scenario.ScenarioError, match="^simulation: unknown key"):
            scenario.parse(doc)

    def test_sim_keys_are_the_sim_config_fields(self):
        with pytest.raises(scenario.ScenarioError) as err:
            scenario.parse(json.loads(_with(MERGE_DOC, "sim", None, "t_ned", 0.001)))
        names = [f.name for f in dataclasses.fields(sim.SimConfig)]
        assert str(err.value).endswith("expected one of " + ", ".join(names))


@pytest.mark.parametrize("doc, key, value", [(MERGE_DOC, "alphas", [0.3, 0.7]),
                                             (DIVERGE_DOC, "priority", 0.5)])
def test_field_of_the_other_kind_is_named(doc, key, value, tmp_path, capsys):
    """A merge's ``alphas`` or a diverge's ``priority`` stops at ``parse``: the solver would ignore it."""
    text = _with(doc, "junctions", 0, key, value)
    with pytest.raises(scenario.ScenarioError, match=rf"^junctions\[0\]: .*{key}"):
        scenario.parse(json.loads(text))
    path = tmp_path / "other.json"
    path.write_text(text)
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: junctions[0]: ") and key in err
    assert not (tmp_path / "run").exists()


class TestSimulatorObjects:
    def test_junctions_are_network_junctions(self):
        sc = scenario.parse(MERGE_DOC)
        (nj,) = sc.junctions
        assert nj == sim.NetworkJunction(
            jn.JunctionSpec(jn.JunctionKind.MERGE, (sc.roads["r1"].params, sc.roads["r2"].params),
                            (sc.roads["r3"].params,), priority=0.5),
            ("r1", "r2"), ("r3",))
        assert scenario.build_junction_spec(sc, nj) is nj.spec
        assert scenario.build_network(sc).junctions == sc.junctions

    def test_one_spec_per_junction_per_load(self, tmp_path, monkeypatch):
        doc = copy.deepcopy(DIVERGE_DOC)
        doc["roads"].append(dict(doc["roads"][0], id="r0"))
        doc["junctions"].append({"kind": "one_to_one", "in": ["r0"], "out": ["r1"]})
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        built = []
        check = jn.JunctionSpec.__post_init__
        monkeypatch.setattr(jn.JunctionSpec, "__post_init__", lambda self: built.append(check(self)))
        sc = scenario.load(path)
        assert len(built) == len(sc.junctions) == 2
        scenario.build_network(sc)
        assert len(built) == 2

    def test_settings_default_to_sim_config(self):
        doc = copy.deepcopy(MERGE_DOC)
        del doc["sim"]
        assert scenario.parse(doc).sim == sim.SimConfig()
        assert sim.SimConfig().t_end == 0.25
        assert set(scenario.dump(scenario.parse(doc))["sim"]) == {
            f.name for f in dataclasses.fields(sim.SimConfig)}


def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def documents(draw):
    """Valid scenario documents: a 1-to-1, a diverge with 2 or 3 alphas, or a merge."""
    kind, n_in, n_out = draw(st.sampled_from(
        [("one_to_one", 1, 1), ("diverge", 1, 2), ("diverge", 1, 3), ("merge", 2, 1)]))
    roads = []
    for k in range(n_in + n_out):
        rho_max, v_ref = draw(_finite(1.0, 400.0)), draw(_finite(1.0, 200.0))
        road = {"id": f"r{k}", "rho_max": rho_max, "v_ref": v_ref, "gamma": draw(_finite(0.5, 4.0))}
        if draw(st.booleans()):
            road["rho0"] = draw(_finite(0.0, rho_max))
        else:
            road["q_desired"] = draw(_finite(0.0, v_ref * rho_max / 4.0))
        if draw(st.booleans()):
            road["length"] = draw(_finite(0.0, 50.0, exclude_min=True))
        if draw(st.booleans()):
            road["cells"] = draw(st.integers(1, 10_000))
        roads.append(road)
    ids = [r["id"] for r in roads]
    junction = {"kind": kind, "in": ids[:n_in], "out": ids[n_in:]}
    if kind == "diverge":
        head = [draw(_finite(0.01, 0.98 / (n_out - 1))) for _ in range(n_out - 1)]
        junction["alphas"] = [*head, 1.0 - sum(head)]
    if kind == "merge":
        junction["priority"] = draw(_finite(2.0**-53, 1.0, exclude_max=True))
    settings = draw(st.fixed_dictionaries({}, optional={
        "t_end": _finite(0.0, 10.0),
        "cfl": _finite(0.0, 1.0, exclude_min=True),
        "output_stride": st.integers(1, 1000),
        "steady_tol": _finite(0.0, 1.0),
    }))
    return {"roads": roads, "junctions": [junction], "sim": settings}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(documents())
def test_dump_round_trips(doc):
    sc = scenario.parse(doc)
    assert scenario.parse(json.loads(json.dumps(scenario.dump(sc)))) == sc
