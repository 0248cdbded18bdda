import copy
import json
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from bass_sim.codec import decode, encode
from bass_sim.errors import RecordsFormatError, ScenarioFormatError, ValidationError
from bass_sim.metrics import load_records, save_records
from bass_sim.sim import SimConfig, run_simulation
from bass_sim.topology import generate_scenario, load_scenario


class Color(str, Enum):
    RED = "red"


@dataclass(frozen=True)
class Leaf:
    id: str
    weight: float


@dataclass(frozen=True)
class Tree:
    leaves: tuple[Leaf, ...]
    span: tuple[float, int]
    labels: Mapping[str, Color]
    note: str | None
    ok: bool


TREE = {
    "leaves": [{"id": "a", "weight": 1.5}, {"id": "b", "weight": 2}],
    "span": [0.5, 3],
    "labels": {"x": "red"},
    "note": None,
    "ok": True,
}


def test_decode_builds_every_annotation_and_encode_inverts_it():
    tree = decode(Tree, TREE, "tree", ValidationError)
    assert tree == Tree((Leaf("a", 1.5), Leaf("b", 2.0)), (0.5, 3), {"x": Color.RED}, None, True)
    assert type(tree.leaves[1].weight) is float  # a float field takes an int
    assert encode(tree) == dict(TREE, leaves=[TREE["leaves"][0], {"id": "b", "weight": 2.0}])


@pytest.mark.parametrize("path, value, message", [
    (["leaves", 1, "weight"], True, "tree.leaves['b'].weight: expected a number, got bool True"),
    (["leaves", 0, "weight"], 10**400, "tree.leaves['a'].weight: expected a number, got int 1" + "0" * 36 + "..."),
    (["span", 1], 3.0, "tree.span[1]: expected an integer, got float 3.0"),
    (["span"], [1.0], "tree.span: expected an array of 2 items, got list [1.0]"),
    (["labels", "x"], "blue", "tree.labels['x']: expected one of ['red'], got str 'blue'"),
    (["note"], 5, "tree.note: expected a string, got int 5"),
    (["leaves", 0], {"id": "a"}, "tree.leaves['a']: missing field(s) ['weight']"),
    (["ok"], "x" * 60, "tree.ok: expected a boolean, got str 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx..."),
], ids=["bool-as-float", "float-overflow", "float-as-int", "tuple-arity", "enum", "optional",
        "missing-field", "long-value"])
def test_mismatch_names_the_path(path, value, message):
    data = copy.deepcopy(TREE)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValidationError) as exc:
        decode(Tree, data, "tree", ValidationError)
    assert str(exc.value) == message


def _paths(node, prefix=()):
    """Every position in parsed JSON, as a tuple of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _scenario_file(path):
    path.write_text(json.dumps(encode(generate_scenario(3, 2, 2, seed=4))), encoding="utf-8")


def _records_file(path):
    scenario = generate_scenario(3, 2, 2, seed=4)
    save_records("bass_greedy", run_simulation(scenario, SimConfig(epochs=2, seed=4)), path)


@pytest.mark.parametrize("write, load, error", [
    (_scenario_file, load_scenario, ScenarioFormatError),
    (_records_file, load_records, RecordsFormatError),
], ids=["scenario", "records"])
def test_one_mutated_value_loads_or_raises_the_format_error(write, load, error, tmp_path):
    path = tmp_path / "file.json"
    write(path)
    valid = json.loads(path.read_text(encoding="utf-8"))
    positions = list(_paths(valid))[1:]

    @settings(max_examples=300, deadline=None)
    @given(position=st.sampled_from(positions), value=json_values)
    def check(position, value):
        data = copy.deepcopy(valid)
        node = data
        for key in position[:-1]:
            node = node[key]
        node[position[-1]] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        try:
            load(path)
        except error:
            pass

    check()
