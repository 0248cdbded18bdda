"""Command-line front end: generate scenarios, run simulations, compare policies.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error. All output
files and stdout tables are byte-reproducible under fixed flags; set the
BASS_SIM_LOG environment variable (DEBUG, INFO, ...) for log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import BassError
from .metrics import (
    emit_report,
    load_records,
    per_client_rows,
    save_records,
    summarize,
    write_rows_csv,
)
from .scheduler import DEFAULT_EXACT_CAP
from .sim import POLICY_NAMES, SimConfig, run_simulation
from .topology import (
    DEFAULT_K_CANDIDATES,
    DEFAULT_LOAD_THRESHOLD,
    DEFAULT_RESERVE_MBPS,
    DEFAULT_SERVER_CAPACITY_MBPS,
    NetModelParams,
    generate_scenario,
    load_scenario,
    save_scenario,
)

log = logging.getLogger(__name__)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = _nonneg_int(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _policy_list(text: str) -> list[str]:
    policies = [p.strip() for p in text.split(",") if p.strip()]
    if not policies or not set(policies) <= set(POLICY_NAMES):
        raise argparse.ArgumentTypeError(
            f"unknown policy in {text!r}; valid policies: {', '.join(POLICY_NAMES)}"
        )
    return policies


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    defaults = NetModelParams()
    group = parser.add_argument_group("network model")
    group.add_argument("--base-path-mbps", type=float, default=defaults.base_path_mbps)
    group.add_argument(
        "--distance-decay", type=float, default=defaults.distance_decay_per_1000km,
        help="bandwidth decay per 1000 km of path distance",
    )
    group.add_argument("--noise-sigma", type=float, default=defaults.noise_sigma)
    group.add_argument("--wifi-mu", type=float, default=defaults.wifi_lognormal_mu)
    group.add_argument("--wifi-sigma", type=float, default=defaults.wifi_lognormal_sigma)
    group.add_argument(
        "--cellular-range", type=float, nargs=2, metavar=("LOW", "HIGH"),
        default=list(defaults.cellular_uplink_mbps_range),
    )
    group.add_argument(
        "--direct-path-factor", type=float, default=defaults.direct_path_factor,
        help="multiplier on client-to-origin paths (below 1.0 throttles direct uploads)",
    )


def _params_from_args(args: argparse.Namespace) -> NetModelParams:
    return NetModelParams(
        base_path_mbps=args.base_path_mbps,
        distance_decay_per_1000km=args.distance_decay,
        noise_sigma=args.noise_sigma,
        wifi_lognormal_mu=args.wifi_mu,
        wifi_lognormal_sigma=args.wifi_sigma,
        cellular_uplink_mbps_range=tuple(args.cellular_range),
        direct_path_factor=args.direct_path_factor,
    )


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=_nonneg_int, default=10)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--arrival-rate", type=float, default=0.0,
                        help="expected new clients per epoch")
    parser.add_argument("--session-mean", type=float, default=None,
                        help="mean session length in epochs (default: clients never leave)")
    parser.add_argument("--k-candidates", type=_positive_int, default=DEFAULT_K_CANDIDATES)
    parser.add_argument("--load-threshold", type=float, default=DEFAULT_LOAD_THRESHOLD)
    parser.add_argument("--reserve-mbps", type=float, default=DEFAULT_RESERVE_MBPS)
    parser.add_argument("--remeasure-noise", action="store_true",
                        help="re-draw path noise every epoch")
    parser.add_argument("--exact-cap", type=_positive_int, default=DEFAULT_EXACT_CAP,
                        help="client cap for the exact solver")


def _config_from_args(args: argparse.Namespace, policy: str) -> SimConfig:
    return SimConfig(
        epochs=args.epochs,
        policy=policy,
        arrival_rate=args.arrival_rate,
        session_epochs_mean=args.session_mean,
        k_candidates=args.k_candidates,
        load_threshold=args.load_threshold,
        reserve_mbps=args.reserve_mbps,
        seed=args.seed,
        remeasure_noise=args.remeasure_noise,
        exact_cap=args.exact_cap,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    scenario = generate_scenario(
        args.clients,
        args.servers,
        args.origins,
        _params_from_args(args),
        args.seed,
        server_capacity_mbps=args.server_capacity_mbps,
        wifi_links_per_client=args.wifi_links,
        cellular_links_per_client=args.cellular_links,
    )
    save_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: {len(scenario.clients)} clients, "
        f"{len(scenario.agg_servers)} servers, {len(scenario.origins)} origins, "
        f"seed {scenario.seed}"
    )
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    config = _config_from_args(args, args.policy)
    records = run_simulation(scenario, config)
    report = summarize(args.policy, records)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_records(args.policy, records, out_dir / "records.json")
    write_rows_csv(per_client_rows(args.policy, records), out_dir / "per_client.csv")
    emit_report(report, "json", out_dir / "summary.json")

    print(
        f"policy={args.policy} epochs={report.epochs} client_epochs={report.client_epochs} "
        f"mean_gamma={_fmt(report.gamma_mean)} frac_gamma_one={_fmt(report.gamma_fraction_one)} "
        f"mean_multiplier={_fmt(report.multiplier_mean)}"
    )
    return 0


_CDF_GRID = [round(0.05 * i, 2) for i in range(21)]


def _gamma_values(records) -> list[float]:
    return [c.gamma for record in records for c in record.clients if c.gamma is not None]


def cmd_compare(args: argparse.Namespace) -> int:
    policies = args.policies
    scenario = load_scenario(args.scenario)
    results = {}
    for policy in policies:
        config = _config_from_args(args, policy)
        records = run_simulation(scenario, config)
        results[policy] = (records, summarize(policy, records))

    print("policy summaries:")
    for policy in policies:
        report = results[policy][1]
        print(
            f"  {policy}: mean_gamma={_fmt(report.gamma_mean)} "
            f"frac_gamma_one={_fmt(report.gamma_fraction_one)} "
            f"mean_multiplier={_fmt(report.multiplier_mean)} "
            f"mean_objective={_fmt(_mean_or_none(report.objective_series))}"
        )

    header = ["gamma<="] + policies
    with_delta = len(policies) >= 2
    if with_delta:
        header.append(f"delta({policies[-1]}-{policies[0]})")
    print("hit-rate CDF:")
    print("  " + "\t".join(header))
    gamma_values = {p: _gamma_values(results[p][0]) for p in policies}
    for g in _CDF_GRID:
        row = [f"{g:.2f}"]
        fractions = []
        for policy in policies:
            values = gamma_values[policy]
            frac = sum(1 for v in values if v <= g) / len(values) if values else 0.0
            fractions.append(frac)
            row.append(f"{frac:.4f}")
        if with_delta:
            row.append(f"{fractions[-1] - fractions[0]:+.4f}")
        print("  " + "\t".join(row))

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for policy in policies:
            records, report = results[policy]
            save_records(policy, records, out_dir / f"records_{policy}.json")
            emit_report(report, "json", out_dir / f"summary_{policy}.json")
    return 0


def _mean_or_none(series):
    return sum(series) / len(series) if series else None


def cmd_report(args: argparse.Namespace) -> int:
    policy, records = load_records(args.records)
    report = summarize(policy, records)
    emit_report(report, args.format, args.out)
    print(f"wrote {args.out} ({args.format}) for policy {policy}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bass-sim",
        description="Bandwidth aggregation scheduling simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic scenario file")
    p_gen.add_argument("--clients", type=_positive_int, default=60)
    p_gen.add_argument("--servers", type=_positive_int, default=8)
    p_gen.add_argument("--origins", type=_positive_int, default=10)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--server-capacity-mbps", type=float,
                       default=DEFAULT_SERVER_CAPACITY_MBPS)
    p_gen.add_argument("--wifi-links", type=_nonneg_int, default=2)
    p_gen.add_argument("--cellular-links", type=_nonneg_int, default=1)
    _add_model_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one policy on a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="bass_greedy")
    p_run.add_argument("--out", required=True, help="output directory")
    _add_sim_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several policies on the same scenario and seed")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--policies", type=_policy_list, default="bass_greedy,random",
                       help="comma-separated policy names")
    p_cmp.add_argument("--out", default=None, help="optional output directory")
    _add_sim_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="summarize a saved records.json")
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--format", choices=("csv", "json"), default="json")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("BASS_SIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
