"""The byte contract across interpreters, and a public twin for each private
name it leans on.

`seeding` hashes with `_blake2.blake2b`, `topology` draws Wi-Fi calibration
through `_statistics._normal_dist_inv_cdf` and `codec` writes strings with
`json.encoder.encode_basestring_ascii`. Each is compared here with the
public API it stands in for, so a Python release that changes one fails a
test instead of shifting output bytes. The package itself imports neither
`hashlib` nor `statistics` (see `UNUSED_MODULES` in test_output_files.py).
"""

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from json.encoder import py_encode_basestring_ascii
from pathlib import Path

import pytest

from bass_sim.codec import encode_basestring_ascii
from bass_sim.seeding import blake2b
from bass_sim.topology import _normal_dist_inv_cdf

from test_cli import PINNED_DIGESTS, PINNED_RUNS

SRC = Path(__file__).resolve().parents[1] / "src"


def test_blake2b_matches_hashlib():
    # RFC 7693, Appendix A: BLAKE2b-512 of "abc".
    assert blake2b(b"abc").hexdigest() == (
        "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
        "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")
    for data in (b"", b"abc", b"5\x1fclient\x1f7", bytes(range(256)) * 5):
        for size in (1, 8, 32, 64):
            assert (blake2b(data, digest_size=size).digest()
                    == hashlib.blake2b(data, digest_size=size).digest())
    # `SeededStream` hashes its prefix once, then copies and extends it per draw.
    prefix = blake2b(b"5\x1fpath-noise", digest_size=8)
    draw = prefix.copy()
    draw.update(b"\x1fc0001/c0001-wifi0->s0002@3")
    assert draw.digest() == hashlib.blake2b(
        b"5\x1fpath-noise\x1fc0001/c0001-wifi0->s0002@3", digest_size=8).digest()
    assert prefix.digest() == hashlib.blake2b(b"5\x1fpath-noise", digest_size=8).digest()


def test_normal_inverse_cdf_matches_normal_dist():
    # Both tails down to the smallest float, each side of the algorithm's
    # branch points (|p - 0.5| = 0.425, and p = exp(-25) in each tail), and
    # a uniform grid between.
    branches = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
    grid = [5e-324, 1e-300, 1e-100, 1e-20, 1e-12, 1e-6, 0.6,
            1.0 - 1e-12, math.nextafter(1.0, 0.0),
            *branches, *(math.nextafter(p, 0.0) for p in branches),
            *(math.nextafter(p, 1.0) for p in branches),
            *(i / 1000 for i in range(1, 1000))]
    for mu, sigma in ((0.0, 1.0), (2.5, 0.3)):
        dist = statistics.NormalDist(mu, sigma)
        for p in grid:
            assert _normal_dist_inv_cdf(p, mu, sigma) == dist.inv_cdf(p), (p, mu, sigma)


def test_encode_basestring_ascii_matches_json_dumps():
    texts = ["", "c0001", 'a "quoted" \\ path/', "\x00\x08\t\n\x1f\x7f",
             "caf\u00e9\u2028\u2029\uffff",
             "\U0001f600", "\U00010000\U0010ffff",  # beyond the BMP: surrogate pairs
             "\ud800", "\udfff", "x\ud83d", "\ude00y", "\udfff\ud800"]  # lone surrogates
    for text in texts:
        expected = json.dumps(text)
        assert encode_basestring_ascii(text) == expected == py_encode_basestring_ascii(text)
        assert json.loads(expected) == text


def _starts(exe):
    """Whether `exe` runs and is the version its name says."""
    try:
        done = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return done.returncode == 0 and done.stdout.strip() == repr((3, int(exe.split(".")[1])))


# Writes the digests of each pinned run, run under the interpreter it is
# given to. It imports no test module: another interpreter may have no pytest.
_PINNED_RUNS_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from bass_sim.cli import main
runs, root = json.loads(sys.argv[1]), Path(sys.argv[2])
digests = {}
for case, (generate_flags, run_flags) in runs.items():
    scenario, out = root / f"{case}.json", root / case
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--out", str(scenario), *generate_flags]) == 0
        assert main(["run", "--scenario", str(scenario), "--out", str(out), *run_flags]) == 0
    digests[case] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("records.json", "per_client.csv", "summary.json")}
print(sys.version.split()[0])
print(json.dumps(digests))
"""

# Every other CPython 3.10+ on PATH; test_cli checks the running one.
OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 30)
                 if minor != sys.version_info.minor and shutil.which(f"python3.{minor}")]


@pytest.mark.parametrize("exe", OTHER_PYTHONS)
def test_pinned_runs_match_under_another_python(exe, tmp_path, capsys):
    if not _starts(exe):
        pytest.skip(f"{exe} is on PATH but does not start")
    done = subprocess.run(
        [exe, "-c", _PINNED_RUNS_CHILD, json.dumps(PINNED_RUNS), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    version, digests = done.stdout.splitlines()[-2:]
    assert json.loads(digests) == PINNED_DIGESTS
    with capsys.disabled():
        print(f"\n{exe} ({version}): {len(PINNED_RUNS)} pinned runs match")
