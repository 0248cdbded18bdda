"""How the CLI writes its output files.

An existing regular output file is replaced by a new file, never truncated
and rewritten in place: the bytes are those written into an empty
directory, and a hard link to the old file keeps the old bytes. Symlinks,
directories and other non-regular targets are opened as they are. `run`
and `compare` write each epoch as it ends and keep no earlier one; a run
that fails once it has begun writing leaves none of its output files.
"""

import ast
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from bass_sim import cli, errors, sim
from bass_sim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "bass_sim"
RUN_FILES = ("records.json", "per_client.csv", "summary.json")


def _scenario(tmp_path, seed="5"):
    path = tmp_path / f"scenario_{seed}.json"
    assert main(["generate", "--clients", "12", "--servers", "4", "--origins", "3",
                 "--seed", seed, "--out", str(path)]) == 0
    return path


def _run(scenario, out, epochs):
    assert main(["run", "--scenario", str(scenario), "--epochs", str(epochs),
                 "--seed", "1", "--out", str(out)]) == 0


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_hard_linked_snapshot_keeps_the_first_runs_bytes(tmp_path):
    scenario, out = _scenario(tmp_path), tmp_path / "out"
    _run(scenario, out, 2)
    first = (out / "records.json").read_bytes()
    snap = tmp_path / "snap.json"
    os.link(out / "records.json", snap)
    _run(scenario, out, 3)
    assert (out / "records.json").read_bytes() != first
    assert snap.read_bytes() == first


def _write_twice(tmp_path, write, names):
    """Write with `write(d, old=True)` and then `write(d)` into one directory,
    and with `write(d)` alone into an empty one. Each file of the second
    write has the fresh bytes, and is a new file: hard links taken to the
    old ones still hold the old bytes."""
    fresh, reused, snaps = tmp_path / "fresh", tmp_path / "reused", tmp_path / "snaps"
    for d in (fresh, reused, snaps):
        d.mkdir()
    write(fresh)
    write(reused, old=True)
    old = {}
    for name in names:
        old[name] = (reused / name).read_bytes()
        assert old[name] != (fresh / name).read_bytes(), name
        os.link(reused / name, snaps / name)
    write(reused)
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        assert not (reused / name).samefile(snaps / name), name
        assert (snaps / name).read_bytes() == old[name], name


def test_run_over_older_outputs_writes_fresh_bytes_to_new_files(tmp_path):
    scenario = _scenario(tmp_path)
    _write_twice(tmp_path, lambda d, old=False: _run(scenario, d, 1 if old else 3), RUN_FILES)


def test_compare_over_older_outputs_writes_fresh_bytes_to_new_files(tmp_path):
    scenario = _scenario(tmp_path)

    def write(d, old=False):
        assert main(["compare", "--scenario", str(scenario), "--policies", "bass_greedy,random",
                     "--epochs", "1" if old else "3", "--seed", "1", "--out", str(d)]) == 0

    names = [f"{kind}_{policy}.json" for kind in ("records", "summary")
             for policy in ("bass_greedy", "random")]
    _write_twice(tmp_path, write, names)


def test_generate_over_an_older_scenario_writes_fresh_bytes_to_a_new_file(tmp_path):
    def write(d, old=False):
        assert main(["generate", "--clients", "12", "--servers", "4", "--origins", "3",
                     "--seed", "6" if old else "5", "--out", str(d / "scenario.json")]) == 0

    _write_twice(tmp_path, write, ["scenario.json"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_over_an_older_report_writes_fresh_bytes_to_a_new_file(fmt, tmp_path):
    scenario = _scenario(tmp_path)
    records = {}
    for epochs in (1, 3):
        _run(scenario, tmp_path / f"run{epochs}", epochs)
        records[epochs] = tmp_path / f"run{epochs}" / "records.json"

    def write(d, old=False):
        assert main(["report", "--records", str(records[1 if old else 3]), "--format", fmt,
                     "--out", str(d / f"summary.{fmt}")]) == 0

    _write_twice(tmp_path, write, [f"summary.{fmt}"])


def test_a_symlinked_output_stays_a_symlink_and_its_target_is_written(tmp_path):
    scenario = _scenario(tmp_path)
    _run(scenario, tmp_path / "fresh", 3)
    out, target = tmp_path / "out", tmp_path / "kept" / "summary.json"
    target.parent.mkdir()
    target.write_text("old\n", encoding="utf-8")
    out.mkdir()
    (out / "summary.json").symlink_to(target)
    _run(scenario, out, 3)
    assert (out / "summary.json").is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh" / "summary.json").read_bytes()


def test_report_onto_an_existing_directory_is_one_error_line(tmp_path, capsys):
    scenario = _scenario(tmp_path)
    _run(scenario, tmp_path / "run", 1)
    target = tmp_path / "taken"
    target.mkdir()
    (target / "keep.txt").write_text("kept\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--records", str(tmp_path / "run" / "records.json"),
                 "--out", str(target)]) == 1
    _assert_one_error_line(capsys)
    assert (target / "keep.txt").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("subcommand", [
    ["run"],
    ["compare", "--policies", "bass_greedy,random"],
])
def test_an_out_that_is_a_file_fails_before_simulating(subcommand, tmp_path, capsys, monkeypatch):
    scenario = _scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")

    def never(scenario, config):
        raise AssertionError("the simulation ran before the output directory was made")

    monkeypatch.setattr(cli, "run_epochs", never)
    capsys.readouterr()
    assert main([*subcommand, "--scenario", str(scenario), "--epochs", "2",
                 "--out", str(taken)]) == 1
    _assert_one_error_line(capsys)
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


# Written by the build that held every epoch until the run ended: a run of
# no epochs still writes `"epochs": []`, and `compare --out` the same files.
KEPT_DIGESTS = {
    "zero/per_client.csv": "49b501fb068e582d1f83d8313c93a4fa76542a53d57d7b1e39a77f2fa57e583f",
    "zero/records.json": "c4a3e8126cf3fc694dbb0a693fc281d0d8fd9d3262052c620f25f67b61552825",
    "zero/summary.json": "9896b39643da4d641f98fea23a30a514c2f18b0574fff97b2c6331cd60671111",
    "cmp/records_bass_greedy.json":
        "0dec79aebb60610e75b17d26938c63fcc574c0a971dfdbf8c9e48822feb5ba7c",
    "cmp/records_random.json": "df4fac9c92b6b0552b1b2759731ffde08f0a7e9084da68f91a40d481aab0bd57",
    "cmp/summary_bass_greedy.json":
        "83d8fbd353482637b2d844b82ca141252d0d9b36523e36b60aeddf21244f546f",
    "cmp/summary_random.json": "9b77b4ceb8f41b74b8911e2af28e6f6cd4a2bf24e71f66f7828a30ba2453b10d",
}


def test_zero_epochs_and_compare_out_keep_their_bytes(tmp_path):
    scenario = _scenario(tmp_path)
    assert main(["run", "--scenario", str(scenario), "--epochs", "0",
                 "--out", str(tmp_path / "zero")]) == 0
    assert main(["compare", "--scenario", str(scenario), "--policies", "bass_greedy,random",
                 "--epochs", "3", "--seed", "2", "--arrival-rate", "2", "--session-mean", "4",
                 "--remeasure-noise", "--out", str(tmp_path / "cmp")]) == 0
    written = {f"{d}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
               for d in ("zero", "cmp") for f in (tmp_path / d).iterdir()}
    assert written == KEPT_DIGESTS


@pytest.mark.parametrize("subcommand, runs", [
    (["run"], 1),
    (["compare", "--policies", "bass_greedy,random"], 2),
])
def test_no_record_outlives_the_epoch_after_it(subcommand, runs, tmp_path, monkeypatch):
    # When an epoch starts, every record but the last one made is gone:
    # the run holds at most the epoch being written and the one being made.
    original = sim.run_epoch
    made = []

    def run_epoch(state):
        assert [ref() for ref in made[:-1]] == [None] * len(made[:-1]), len(made)
        record = original(state)
        made.append(weakref.ref(record))
        return record

    monkeypatch.setattr(sim, "run_epoch", run_epoch)
    assert main([*subcommand, "--scenario", str(_scenario(tmp_path)), "--epochs", "12",
                 "--arrival-rate", "2", "--session-mean", "4", "--out", str(tmp_path / "out")]) == 0
    assert len(made) == 12 * runs
    assert [ref() for ref in made] == [None] * len(made)


@pytest.mark.parametrize("subcommand, names", [
    (["run", "--policy", "bass_exact"], RUN_FILES),
    (["compare", "--policies", "bass_greedy,bass_exact"],
     [f"{kind}_{policy}.json" for kind in ("records", "summary")
      for policy in ("bass_greedy", "bass_exact")]),
])
def test_a_run_that_fails_midway_leaves_none_of_its_outputs(subcommand, names, tmp_path, capsys,
                                                            monkeypatch):
    # Arrivals push the exact solver's batch past its cap of 12 clients after
    # the first epoch was solved and written. Outputs that an earlier run left
    # under the same names go too: none is left beside another run's files.
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--clients", "10", "--servers", "3", "--origins", "2", "--seed", "1",
                 "--out", str(scenario)]) == 0
    out = tmp_path / "out"
    assert main([*subcommand, "--scenario", str(scenario), "--epochs", "1",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    (out / "other.txt").write_text("kept\n", encoding="utf-8")
    original, solved = sim.run_epoch, []

    def run_epoch(state):
        solved.append(state.epoch)
        return original(state)

    monkeypatch.setattr(sim, "run_epoch", run_epoch)
    capsys.readouterr()
    assert main([*subcommand, "--scenario", str(scenario), "--epochs", "10",
                 "--arrival-rate", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "batch has 16 clients, above the exact-solver cap of 12" in err
    assert solved[-1] > 0  # the failing epoch is not the first
    assert [p.name for p in out.iterdir()] == ["other.txt"]


def _is_write_open(call: ast.Call) -> bool:
    """A builtin `open(file, mode)` or `Path.open(mode)` call whose mode can
    write: it contains w, a, x or +, or is not a literal at all."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def _writes(node, where, found):
    """Collect (file, innermost enclosing function, line) for each write."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = (where[0], node.name)
    if isinstance(node, ast.Call) and _is_write_open(node) or (
            isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes")):
        found.append((*where, node.lineno))
    for child in ast.iter_child_nodes(node):
        _writes(child, where, found)


def test_outputs_are_opened_only_by_the_codec_opener():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _writes(tree, (path.name, None), found)
    assert {tuple(where) for *where, _ in found} == {("codec.py", "open_output")}, found


def _json_writers(tree) -> list[int]:
    """Lines that name `json.dump`, `json.dumps` or `JSONEncoder`, as an
    attribute, a name or an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr == "JSONEncoder" or (
                node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "JSONEncoder":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder") and any(
                alias.name in ("dump", "dumps", "JSONEncoder") for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_json_is_written_only_by_the_codec_emitter():
    found = {path.name: _json_writers(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: lines for name, lines in found.items() if lines}


# The relay reserve is decided in one place: `SimConfig` holds it, `new_state`
# hands it to the ledger, and `AssignmentLedger` subtracts it once per run.
RESERVE_READERS = {("sim.py", "SimConfig"), ("sim.py", "new_state"),
                   ("scheduler.py", "AssignmentLedger")}


def _reserve_readers(tree, filename):
    """(file, top-level def or class, line) for each mention of `reserve_mbps`
    as a name, attribute, parameter, keyword or string."""
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "reserve_mbps"
                    or isinstance(node, ast.Attribute) and node.attr == "reserve_mbps"
                    or isinstance(node, (ast.arg, ast.keyword)) and node.arg == "reserve_mbps"
                    or isinstance(node, ast.Constant) and node.value == "reserve_mbps"):
                found.append((filename, where, getattr(node, "lineno", top.lineno)))
    return found


def test_only_the_config_and_the_ledger_read_the_reserve():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _reserve_readers(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found
    assert [f for f in found if f[:2] not in RESERVE_READERS] == []


# Inner layers trust the boundary: in the scheduler only the ledger's
# capacity checks and the exact solver's client cap raise a package error,
# as faults, not as checks of input that was checked where it entered.
SCHEDULER_RAISERS = {"AssignmentLedger", "solve_exact"}
BASS_ERRORS = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.BassError)}


def _error_raisers(tree):
    """(top-level def or class, line) for each `raise` of a package error."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name in BASS_ERRORS:
                    found.append((getattr(top, "name", None), node.lineno))
    return found


def test_only_the_ledger_and_the_exact_cap_raise_in_the_scheduler():
    found = _error_raisers(ast.parse((SRC / "scheduler.py").read_text(encoding="utf-8")))
    assert {where for where, _ in found} >= SCHEDULER_RAISERS
    assert [f for f in found if f[0] not in SCHEDULER_RAISERS] == []


# Records check themselves where they are made or read: in the simulation
# only the two record types raise (the config checks through `model`'s two
# rules), and the summary trusts them; it raises only for an unknown report
# format.
RECORD_RAISERS = {"sim.py": {"ClientEpochRecord", "EpochRecord"},
                  "metrics.py": {"emit_report"}}


@pytest.mark.parametrize("filename", sorted(RECORD_RAISERS))
def test_only_the_record_types_raise_in_the_simulation_and_summary(filename):
    found = _error_raisers(ast.parse((SRC / filename).read_text(encoding="utf-8")))
    assert {where for where, _ in found} == RECORD_RAISERS[filename], found


def _package_imports(tree) -> set[str]:
    """The package modules a module imports, relatively or as `bass_sim.*`,
    anywhere in it, a `TYPE_CHECKING` block included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bass_sim"):
            found.update([node.module] if "." in node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("bass_sim"))
    return {name.removeprefix("bass_sim.").split(".")[0] for name in found}


# The domain types stand beneath every layer that reads them.
def test_model_imports_no_package_module_but_errors():
    assert _package_imports(ast.parse((SRC / "model.py").read_text(encoding="utf-8"))) == {"errors"}


# hashlib maps OpenSSL's libcrypto, statistics loads decimal and fractions,
# and none of them is used: a run that imports any pays its memory for nothing.
UNUSED_MODULES = ("hashlib", "_hashlib", "logging", "statistics", "decimal", "fractions")
_RUN_AND_LIST_MODULES = """
import sys
from bass_sim.cli import main
scenario, out, names = sys.argv[1], sys.argv[2], sys.argv[3:]
assert main(["generate", "--clients", "12", "--servers", "4", "--origins", "3",
             "--seed", "5", "--out", scenario]) == 0
assert main(["run", "--scenario", scenario, "--epochs", "3", "--remeasure-noise",
             "--arrival-rate", "2", "--session-mean", "3", "--out", out]) == 0
print([name for name in names if name in sys.modules])
"""


def test_a_run_loads_neither_openssl_nor_logging(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, str(tmp_path / "s.json"),
         str(tmp_path / "out"), *UNUSED_MODULES],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
