"""How the CLI writes its output files.

An existing regular output file is replaced by a new file, never truncated
and rewritten in place: the bytes are those written into an empty
directory, and a hard link to the old file keeps the old bytes. Symlinks,
directories and other non-regular targets are opened as they are.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bass_sim import cli, errors
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

    monkeypatch.setattr(cli, "run_simulation", never)
    capsys.readouterr()
    assert main([*subcommand, "--scenario", str(scenario), "--epochs", "2",
                 "--out", str(taken)]) == 1
    _assert_one_error_line(capsys)
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


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
# only the config and the two record types raise, and the summary trusts
# them; it raises only for an unknown report format.
RECORD_RAISERS = {"sim.py": {"SimConfig", "ClientEpochRecord", "EpochRecord"},
                  "metrics.py": {"emit_report"}}


@pytest.mark.parametrize("filename", sorted(RECORD_RAISERS))
def test_only_the_record_types_raise_in_the_simulation_and_summary(filename):
    found = _error_raisers(ast.parse((SRC / filename).read_text(encoding="utf-8")))
    assert {where for where, _ in found} == RECORD_RAISERS[filename], found


# hashlib maps OpenSSL's libcrypto and logging is never used: a run that
# imports either pays their memory for nothing.
UNUSED_MODULES = ("hashlib", "_hashlib", "logging")
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
