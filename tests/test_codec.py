import copy
import gc
import json
import math
import tracemalloc
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from bass_sim.codec import decode, save_json
from bass_sim.errors import RecordsFormatError, ScenarioFormatError, ValidationError
from bass_sim.metrics import _RecordsFile, emit_report, load_records, save_records, summarize
from bass_sim.model import GainEntry, LinkKind
from bass_sim.scheduler import AllocationPlan, Assignment
from bass_sim.sim import SimConfig, run_simulation
from bass_sim.topology import generate_scenario, load_scenario

from oracles import encode


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


@pytest.mark.parametrize("cls, data, field, derived", [
    (GainEntry, {"client_id": "c1", "server_id": "s1", "b_via_mbps": 5.0, "b_baseline_mbps": 1.5},
     "gain_mbps", 3.5),
    (AllocationPlan, {"assignments": {"c2": {"server_id": "s1", "demand_mbps": 4.0,
                                             "gain_mbps": 0.25},
                                      "c1": {"server_id": "s2", "demand_mbps": 5.0,
                                             "gain_mbps": 1.5}}},
     "objective_mbps", 1.75),
], ids=["gain-entry", "allocation-plan"])
def test_a_derived_field_must_equal_what_the_class_derives(cls, data, field, derived):
    # Neither class is a file's; the rule is the codec's, for every dataclass.
    built = decode(cls, {**data, field: derived}, "x", ValidationError)
    assert getattr(built, field) == derived and encode(built) == {**data, field: derived}
    with pytest.raises(ValidationError) as exc:
        decode(cls, {**data, field: derived + 1.0}, "x", ValidationError)
    assert str(exc.value) == f"x.{field}: expected {derived!r} from the other fields, got {derived + 1.0!r}"
    with pytest.raises(ValidationError, match=rf"^x: missing field\(s\) \['{field}'\]$"):
        decode(cls, data, "x", ValidationError)


def test_a_derived_mismatch_is_named_in_declaration_order():
    @dataclass(frozen=True)
    class Doubled:
        value: float
        twice: float = field(init=False)
        squared: float = field(init=False)

        def __post_init__(self):
            object.__setattr__(self, "twice", 2 * self.value)
            object.__setattr__(self, "squared", self.value ** 2)

    data = {"squared": 10.0, "twice": 10.0, "value": 3.0}  # both off; file order is not the rule
    with pytest.raises(ValidationError, match=r"^d\.twice: expected 6\.0 from the other fields"):
        decode(Doubled, data, "d", ValidationError)


def test_a_derived_dataclass_mismatch_names_its_first_differing_field():
    @dataclass(frozen=True)
    class Held:
        server_id: str
        demand_mbps: float
        assignment: Assignment = field(init=False)

        def __post_init__(self):
            object.__setattr__(self, "assignment", Assignment(self.server_id, self.demand_mbps, 1.0))

    # Two fields differ; the first in declaration order is named, with both values in full.
    data = {"server_id": "s1", "demand_mbps": 4.0,
            "assignment": {"server_id": "s1", "demand_mbps": 9.0, "gain_mbps": 2.0}}
    with pytest.raises(ValidationError) as exc:
        decode(Held, data, "h", ValidationError)
    assert str(exc.value) == "h.assignment.demand_mbps: expected 4.0 from the other fields, got 9.0"


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
        # A new file each time: truncating one in place is slow on some file systems.
        path.unlink()
        path.write_text(json.dumps(data), encoding="utf-8")
        try:
            load(path)
        except error:
            pass

    check()


# Any text, non-ASCII and lone surrogates included, that Scenario.validate accepts as an id.
entity_ids = st.text(min_size=1, max_size=5).filter(lambda s: "/" not in s and "->" not in s)


@st.composite
def scenarios(draw):
    n, m, k = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    scenario = generate_scenario(n, m, k, seed=draw(st.integers(0, 2**32)))
    names = draw(st.lists(entity_ids, min_size=n + m + k, max_size=n + m + k, unique=True))
    origins = {o.id: replace(o, id=name) for o, name in zip(scenario.origins, names[n + m:])}
    return replace(
        scenario,
        clients=tuple(replace(c, id=name, origin_id=origins[c.origin_id].id)
                      for c, name in zip(scenario.clients, names)),
        agg_servers=tuple(replace(s, id=name) for s, name in zip(scenario.agg_servers, names[n:])),
        origins=tuple(origins.values()),
    )


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(), epochs=st.integers(0, 4), rate=st.sampled_from([0.0, 1.5]),
       policy=st.sampled_from(["bass_greedy", "random"]), label=st.text(max_size=4),
       seed=st.integers(0, 99))
def test_save_json_writes_the_bytes_of_one_json_dump(tmp_path_factory, scenario, epochs, rate,
                                                     policy, label, seed):
    records = run_simulation(scenario, SimConfig(epochs=epochs, policy=policy, seed=seed,
                                                 arrival_rate=rate))
    path = tmp_path_factory.mktemp("out") / "file.json"
    for value in (scenario, _RecordsFile(label, tuple(records)), summarize(label, records)):
        save_json(value, path)
        expected = json.dumps(encode(value), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


def test_records_writer_memory_does_not_grow_with_the_run(tmp_path):
    # save_records encodes one epoch at a time: a run ten times longer must
    # not need a traced peak anywhere near ten times higher. Both writes
    # start from a full collection, so the collector runs at the same points.
    scenario = generate_scenario(8, 3, 2, seed=5)
    peaks = []
    for epochs in (20, 200):
        records = run_simulation(scenario, SimConfig(epochs=epochs, seed=5))
        gc.collect()
        tracemalloc.start()
        try:
            save_records("bass_greedy", records, tmp_path / "records.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_summary_writer_memory_does_not_grow_with_the_run(tmp_path):
    # The CDFs and the objective series grow with the run; they are written
    # a piece at a time, never encoded whole.
    scenario = generate_scenario(8, 3, 2, seed=5)
    peaks = []
    for epochs in (200, 2000):
        config = SimConfig(epochs=epochs, seed=5, arrival_rate=1.0, session_epochs_mean=10.0,
                           remeasure_noise=True)
        report = summarize("bass_greedy", run_simulation(scenario, config))
        gc.collect()
        tracemalloc.start()
        try:
            emit_report(report, "json", tmp_path / "summary.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# Text json must escape: control characters, non-ASCII, lone surrogates.
texts = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\x00\x1f\x7f\"\\\u2028\ud800\udfff"),
    max_size=6,
)
scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**100), 2**100) | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]) | texts
    | st.sampled_from(LinkKind) | st.sampled_from(Color)
)
values = st.recursive(scalars, lambda inner: (
    st.lists(inner, max_size=4).map(tuple) | st.dictionaries(texts, inner, max_size=4)
    | st.builds(Leaf, id=inner, weight=inner)
    | st.builds(Tree, leaves=st.lists(st.builds(Leaf, texts, st.floats()), max_size=2).map(tuple),
                span=st.tuples(inner, inner), labels=st.dictionaries(texts, st.sampled_from(Color)),
                note=inner, ok=inner)
), max_leaves=20)


def test_save_json_writes_the_oracle_bytes_for_any_value(tmp_path):
    path = tmp_path / "file.json"

    @settings(max_examples=400, deadline=None)
    @given(value=values)
    def check(value):
        save_json(value, path)
        expected = json.dumps(encode(value), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    check()


@pytest.mark.parametrize("mapping", [{1: "a"}, {None: 1.0}, {("a",): 1}, {"a": 1, 2: 2}],
                         ids=["int", "none", "tuple", "mixed"])
def test_a_mapping_key_that_is_not_a_string_is_a_type_error(mapping, tmp_path):
    with pytest.raises(TypeError):
        save_json(Leaf("a", mapping), tmp_path / "file.json")
