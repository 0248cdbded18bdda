"""The command-line flags: `--help` text, flag-to-field mapping, bad values."""

import contextlib
import dataclasses
import io
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bass_sim import cli
from bass_sim.cli import main
from bass_sim.sim import MAX_ARRIVAL_RATE, SimConfig
from bass_sim.topology import NetModelParams, generate_scenario, load_scenario, save_scenario

from test_cli import _assert_one_error_line

# `--help` of each subcommand at 80 columns, recorded from the hand-written
# parser that the field-derived flags replaced: flag names, order, defaults
# and help text must not change.
HELP_TEXT = {
    "generate": """\
usage: bass-sim generate [-h] [--clients CLIENTS] [--servers SERVERS]
                         [--origins ORIGINS] [--seed SEED] --out OUT
                         [--server-capacity-mbps SERVER_CAPACITY_MBPS]
                         [--base-path-mbps BASE_PATH_MBPS]
                         [--distance-decay DISTANCE_DECAY]
                         [--noise-sigma NOISE_SIGMA] [--wifi-mu WIFI_MU]
                         [--wifi-sigma WIFI_SIGMA] [--cellular-range LOW HIGH]
                         [--direct-path-factor DIRECT_PATH_FACTOR]
                         [--wifi-links WIFI_LINKS]
                         [--cellular-links CELLULAR_LINKS]

options:
  -h, --help            show this help message and exit
  --clients CLIENTS
  --servers SERVERS
  --origins ORIGINS
  --seed SEED
  --out OUT
  --server-capacity-mbps SERVER_CAPACITY_MBPS

network model:
  --base-path-mbps BASE_PATH_MBPS
  --distance-decay DISTANCE_DECAY
                        bandwidth decay per 1000 km of path distance
  --noise-sigma NOISE_SIGMA
  --wifi-mu WIFI_MU
  --wifi-sigma WIFI_SIGMA
  --cellular-range LOW HIGH
  --direct-path-factor DIRECT_PATH_FACTOR
                        multiplier on client-to-origin paths (below 1.0
                        throttles direct uploads)
  --wifi-links WIFI_LINKS
  --cellular-links CELLULAR_LINKS
""",
    "run": """\
usage: bass-sim run [-h] --scenario SCENARIO
                    [--policy {bass_exact,bass_greedy,random}] --out OUT
                    [--epochs EPOCHS] [--seed SEED]
                    [--arrival-rate ARRIVAL_RATE]
                    [--session-mean SESSION_MEAN]
                    [--k-candidates K_CANDIDATES]
                    [--load-threshold LOAD_THRESHOLD]
                    [--reserve-mbps RESERVE_MBPS] [--remeasure-noise]
                    [--exact-cap EXACT_CAP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO
  --policy {bass_exact,bass_greedy,random}
  --out OUT             output directory
  --epochs EPOCHS
  --seed SEED
  --arrival-rate ARRIVAL_RATE
                        expected new clients per epoch
  --session-mean SESSION_MEAN
                        mean session length in epochs (default: clients never
                        leave)
  --k-candidates K_CANDIDATES
  --load-threshold LOAD_THRESHOLD
  --reserve-mbps RESERVE_MBPS
  --remeasure-noise     re-draw path noise every epoch
  --exact-cap EXACT_CAP
                        client cap for the exact solver
""",
    "compare": """\
usage: bass-sim compare [-h] --scenario SCENARIO [--policies POLICIES]
                        [--out OUT] [--epochs EPOCHS] [--seed SEED]
                        [--arrival-rate ARRIVAL_RATE]
                        [--session-mean SESSION_MEAN]
                        [--k-candidates K_CANDIDATES]
                        [--load-threshold LOAD_THRESHOLD]
                        [--reserve-mbps RESERVE_MBPS] [--remeasure-noise]
                        [--exact-cap EXACT_CAP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO
  --policies POLICIES   comma-separated policy names
  --out OUT             optional output directory
  --epochs EPOCHS
  --seed SEED
  --arrival-rate ARRIVAL_RATE
                        expected new clients per epoch
  --session-mean SESSION_MEAN
                        mean session length in epochs (default: clients never
                        leave)
  --k-candidates K_CANDIDATES
  --load-threshold LOAD_THRESHOLD
  --reserve-mbps RESERVE_MBPS
  --remeasure-noise     re-draw path noise every epoch
  --exact-cap EXACT_CAP
                        client cap for the exact solver
""",
    "report": """\
usage: bass-sim report [-h] --records RECORDS [--format {csv,json}] --out OUT

options:
  -h, --help           show this help message and exit
  --records RECORDS
  --format {csv,json}
  --out OUT
""",
}


@pytest.mark.parametrize("subcommand", sorted(HELP_TEXT))
def test_help_text_is_unchanged(subcommand, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[subcommand]


def _flag_fields(cls):
    return [f for f in dataclasses.fields(cls) if "flag" in f.metadata]


def _differs_from_defaults(value):
    return all(getattr(value, f.name) != f.default for f in dataclasses.fields(value))


def test_each_model_flag_reaches_its_field(tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["generate", "--clients", "3", "--servers", "2", "--origins", "2", "--out", str(out),
                 "--base-path-mbps", "30", "--distance-decay", "0.5", "--noise-sigma", "0.25",
                 "--wifi-mu", "0.1", "--wifi-sigma", "0.8", "--cellular-range", "1", "4",
                 "--direct-path-factor", "0.7", "--wifi-links", "1", "--cellular-links", "2"]) == 0
    expected = NetModelParams(
        base_path_mbps=30.0, distance_decay_per_1000km=0.5, noise_sigma=0.25,
        wifi_lognormal_mu=0.1, wifi_lognormal_sigma=0.8, cellular_uplink_mbps_range=(1.0, 4.0),
        direct_path_factor=0.7, wifi_links_per_client=1, cellular_links_per_client=2,
    )
    assert _differs_from_defaults(expected)
    assert load_scenario(out).net_params == expected


def test_each_sim_flag_reaches_its_field(tmp_path, monkeypatch):
    scenario = tmp_path / "scenario.json"
    save_scenario(generate_scenario(3, 2, 2, seed=1), scenario)
    configs = []
    monkeypatch.setattr(cli, "run_epochs", lambda _, config: configs.append(config) or [])
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                 "--policy", "random", "--epochs", "3", "--seed", "7", "--arrival-rate", "1.5",
                 "--session-mean", "4", "--k-candidates", "2", "--load-threshold", "0.3",
                 "--reserve-mbps", "10", "--remeasure-noise", "--exact-cap", "5"]) == 0
    expected = SimConfig(
        epochs=3, policy="random", seed=7, arrival_rate=1.5, session_epochs_mean=4.0,
        k_candidates=2, load_threshold=0.3, reserve_mbps=10.0, remeasure_noise=True, exact_cap=5,
    )
    assert _differs_from_defaults(expected)
    assert configs == [expected]


# One out-of-range value per flag field: (field, flag and value).
BAD_VALUES = [
    ("base_path_mbps", ["--base-path-mbps", "0"]),
    ("distance_decay_per_1000km", ["--distance-decay", "-1"]),
    ("noise_sigma", ["--noise-sigma", "nan"]),
    # exp(100 * z) overflows for some draws z: rejected before any is drawn.
    ("noise_sigma", ["--noise-sigma", "100"]),
    ("wifi_lognormal_mu", ["--wifi-mu", "inf"]),
    ("wifi_lognormal_sigma", ["--wifi-sigma", "-0.5"]),
    # exp(mu + 100 * z) overflows for some draws z: rejected before any is drawn.
    ("wifi_lognormal_sigma", ["--wifi-sigma", "100"]),
    ("cellular_uplink_mbps_range", ["--cellular-range", "5", "1"]),
    ("direct_path_factor", ["--direct-path-factor", "0"]),
    ("wifi_links_per_client", ["--wifi-links", "-1"]),
    ("cellular_links_per_client", ["--cellular-links", "-2"]),
    ("epochs", ["--epochs", "-1"]),
    ("seed", ["--seed", str(2**64)]),
    ("arrival_rate", ["--arrival-rate", "-1"]),
    ("arrival_rate", ["--arrival-rate", "1e300"]),  # above the cap: never simulated
    ("session_epochs_mean", ["--session-mean", "0.5"]),
    ("k_candidates", ["--k-candidates", "0"]),
    ("load_threshold", ["--load-threshold", "2"]),
    ("reserve_mbps", ["--reserve-mbps", "inf"]),
    ("exact_cap", ["--exact-cap", "0"]),
]


def test_every_valued_flag_field_has_a_bad_value_case():
    valued = {f.name for cls in (NetModelParams, SimConfig) for f in _flag_fields(cls)
              if typing.get_type_hints(cls)[f.name] is not bool}
    assert valued == {name for name, _ in BAD_VALUES}


@pytest.mark.parametrize("name, flag", BAD_VALUES, ids=[" ".join(flag) for _, flag in BAD_VALUES])
def test_out_of_range_flag_is_one_error_line(name, flag, tmp_path, capsys):
    if name in {f.name for f in dataclasses.fields(NetModelParams)}:
        out = tmp_path / "scenario.json"
        assert main(["generate", "--clients", "3", "--out", str(out), *flag]) == 1
        assert not out.exists()
    else:
        scenario = tmp_path / "scenario.json"
        save_scenario(generate_scenario(3, 2, 2, seed=1), scenario)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o"), *flag]) == 1
    _assert_one_error_line(capsys, name)


# One out-of-range value per `generate` shape flag: (what the error names,
# flag and value). `generate_scenario` and `Scenario.validate` check them.
BAD_SHAPE_VALUES = [
    ("n_clients", ["--clients", "0"]),
    ("m_servers", ["--servers", "0"]),
    ("k_origins", ["--origins", "0"]),
    ("seed", ["--seed", "-1"]),
    ("seed", ["--seed", str(2**64)]),
    ("server_capacity_mbps", ["--server-capacity-mbps", "0"]),
]


@pytest.mark.parametrize("name, flag", BAD_SHAPE_VALUES,
                         ids=["generate " + " ".join(flag) for _, flag in BAD_SHAPE_VALUES])
def test_out_of_range_shape_flag_is_one_error_line(name, flag, tmp_path, capsys):
    out = tmp_path / "scenario.json"
    assert main(["generate", "--clients", "3", "--out", str(out), *flag]) == 1
    assert not out.exists()
    _assert_one_error_line(capsys, name)


def test_negative_exponent_value_is_written_with_equals(tmp_path):
    # argparse reads a separate "-1e3" as an option, so the value follows "=".
    out = tmp_path / "scenario.json"
    assert main(["generate", "--clients", "3", "--out", str(out), "--wifi-mu=-1e3"]) == 0
    assert load_scenario(out).net_params.wifi_lognormal_mu == -1000.0


# Text for a flag value: valid, at a boundary, negative, nan, inf, not a
# number, or huge. Epochs stay at 4 or fewer and arrival rates at 5 or fewer
# unless above the cap, so that no example runs or allocates without bound.
_ODD = ["nan", "inf", "-inf", "abc", "", "0x10", "1e400", "-0.0"]
_TEXT = {
    float: st.one_of(st.floats(-2, 8).map(repr), st.sampled_from(_ODD + ["1e308", "-1e308"])),
    int: st.one_of(st.integers(-2, 8).map(str),
                   st.sampled_from(_ODD + [str(2**64 - 1), str(2**64), str(10**30), "1.5"])),
}
_TEXT_OF_FIELD = {
    "epochs": st.one_of(st.integers(-2, 4).map(str), st.sampled_from(_ODD)),
    "arrival_rate": st.one_of(
        st.floats(-2, 5).map(repr),
        st.sampled_from(_ODD + [repr(MAX_ARRIVAL_RATE + 0.5), "1e300"]),
    ),
}


def _fuzzed_flags(cls):
    """Argv for up to three flag fields of `cls`, each with drawn values."""
    hints = typing.get_type_hints(cls)
    fragments = []
    for f in _flag_fields(cls):
        flag, hint = f.metadata["flag"], hints[f.name]
        if hint is bool:
            fragments.append(st.just([flag]))
            continue
        parts = typing.get_args(hint) or (hint,)
        count = len(parts) if typing.get_origin(hint) is tuple else 1
        text = _TEXT_OF_FIELD.get(f.name, _TEXT[parts[0]])
        fragments.append(st.lists(text, min_size=count, max_size=count).map(
            lambda values, flag=flag: [flag, *values]))
    return st.lists(st.sampled_from(fragments), max_size=3, unique=True).flatmap(
        lambda chosen: st.tuples(*chosen)).map(lambda drawn: [arg for f in drawn for arg in f])


def _exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# bass_exact is left out: its search grows exponentially with the number of
# clients, and the drawn exact caps include huge ones.
@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(1, 3)),
    model_flags=_fuzzed_flags(NetModelParams),
    policy=st.sampled_from(["bass_greedy", "random"]),
    sim_flags=_fuzzed_flags(SimConfig),
)
# Multipliers of about 6e307, whose sum overflows a float.
@example(shape=(1, 1, 1), model_flags=["--direct-path-factor", "2.2250738585072014e-308"],
         policy="bass_greedy", sim_flags=[])
def test_fuzzed_flags_exit_cleanly(shape, model_flags, policy, sim_flags):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        clients, servers, origins = map(str, shape)
        code, err = _exit_code_and_stderr(
            ["generate", "--clients", clients, "--servers", servers, "--origins", origins,
             "--out", str(scenario), *model_flags])
        assert code in (0, 1, 2) and err.count("error:") <= 1 and "Traceback" not in err, err
        if code != 0:
            save_scenario(generate_scenario(3, 2, 2, seed=1), scenario)
        code, err = _exit_code_and_stderr(
            ["run", "--scenario", str(scenario), "--out", str(Path(tmp) / "out"),
             "--policy", policy, *sim_flags])
        assert code in (0, 1, 2) and err.count("error:") <= 1 and "Traceback" not in err, err
