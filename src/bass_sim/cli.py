"""Command-line front end: generate scenarios, run simulations, compare policies.

Exit codes: 0 success; 2 a usage error (an unknown flag, an unknown or
repeated policy, a value that does not parse); 1 any other failure, as one
`error:` line (a flag value out of range, a bad input file, an I/O error).
Model and sim flags are the fields of `NetModelParams` and `SimConfig` with
`flag` metadata; `generate_scenario` and `Scenario.validate` check
`generate`'s shape flags.
`run` and `compare` write each epoch's records as the epoch ends. A command
that fails once it has begun writing removes every output file it names
(`_removed_on_failure`) before its `error:` line.
argparse reads a negative value in exponent notation, such as `-1e3`, as an
option, so write it as `--wifi-mu=-1e3`. All output files and stdout
tables are byte-reproducible under fixed flags.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import sys
import typing
from pathlib import Path

from .codec import remove_output
from .errors import BassError
from .metrics import (
    SummaryFold,
    emit_report,
    load_records,
    mean,
    per_client_rows,
    save_records,
    summarize,
    write_rows_csv,
)
from .sim import POLICIES, SimConfig, run_epochs
from .topology import (
    DEFAULT_SERVER_CAPACITY_MBPS,
    NetModelParams,
    generate_scenario,
    load_scenario,
    save_scenario,
)


def _policy_list(text: str) -> list[str]:
    policies = [p.strip() for p in text.split(",") if p.strip()]
    if not policies or not set(policies) <= POLICIES.keys():
        raise argparse.ArgumentTypeError(
            f"unknown policy in {text!r}; valid policies: {', '.join(POLICIES)}"
        )
    if len(set(policies)) < len(policies):
        raise argparse.ArgumentTypeError(f"repeated policy in {text!r}")
    return policies


def _add_field_flags(parser, cls) -> None:
    """Add a flag for each field of `cls` whose metadata names one, parsed as
    its annotation says (`bool` is a switch). `cls` checks the range."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if "flag" not in f.metadata:
            continue
        hint, meta = hints[f.name], f.metadata
        parts = typing.get_args(hint) or (hint,)
        if hint is bool:
            how = {"action": "store_true"}
        elif typing.get_origin(hint) is tuple:
            how = {"type": parts[0], "nargs": len(parts), "metavar": meta["metavar"]}
        else:
            how = {"type": parts[0]}  # the X of `X | None` too
        parser.add_argument(meta["flag"], default=f.default, help=meta.get("help"), **how)


def _from_flags(cls, args: argparse.Namespace, **values):
    """Build `cls` from `values` and its flag fields' values (`--a-b` is parsed into `a_b`)."""
    return cls(**values, **{f.name: getattr(args, f.metadata["flag"][2:].replace("-", "_"))
                            for f in dataclasses.fields(cls) if "flag" in f.metadata})


def cmd_generate(args: argparse.Namespace) -> int:
    scenario = generate_scenario(
        args.clients,
        args.servers,
        args.origins,
        _from_flags(NetModelParams, args),
        args.seed,
        server_capacity_mbps=args.server_capacity_mbps,
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


@contextlib.contextmanager
def _removed_on_failure(paths):
    """Run the block; if it raises, remove each of `paths` that is a regular
    file, whether this command or an earlier one wrote it, and re-raise."""
    try:
        yield
    except BaseException:
        for path in paths:
            remove_output(path)
        raise


def _handed_on(records, *consumers):
    """Yield each record once every consumer has been handed it."""
    for record in records:
        for consume in consumers:
            consume(record)
        yield record


def _write_run(policy, epochs, records_path, summary_path, *consumers):
    """Write a policy's records as `epochs` yields them, each epoch handed
    also to `consumers` and to the summary's fold, then write the summary
    and return it."""
    fold = SummaryFold()
    save_records(policy, _handed_on(epochs, fold.add, *consumers), records_path)
    report = fold.report(policy)
    emit_report(report, "json", summary_path)
    return report


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    config = _from_flags(SimConfig, args, policy=args.policy)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the run: a bad --out fails at once
    records, summary, rows = (out_dir / name
                              for name in ("records.json", "summary.json", "per_client.csv"))
    with _removed_on_failure((records, summary, rows)), write_rows_csv(rows) as write_rows:
        report = _write_run(args.policy, run_epochs(scenario, config), records, summary,
                            lambda record: write_rows(per_client_rows(args.policy, (record,))))

    print(
        f"policy={args.policy} epochs={report.epochs} client_epochs={report.client_epochs} "
        f"mean_gamma={_fmt(report.gamma_mean)} frac_gamma_one={_fmt(report.gamma_fraction_one)} "
        f"mean_multiplier={_fmt(report.multiplier_mean)}"
    )
    return 0


_CDF_GRID = [round(0.05 * i, 2) for i in range(21)]


def _cdf_at(points, g: float) -> float:
    """The fraction of an empirical CDF's values at or below `g` (0 if none are)."""
    k = bisect.bisect_right([value for value, _ in points], g)
    return points[k - 1][1] if k else 0.0


def cmd_compare(args: argparse.Namespace) -> int:
    policies = args.policies
    scenario = load_scenario(args.scenario)
    configs = {policy: _from_flags(SimConfig, args, policy=policy) for policy in policies}
    reports = {}
    if args.out is None:
        for policy, config in configs.items():
            reports[policy] = summarize(policy, run_epochs(scenario, config))
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)  # once, before any run
        paths = {policy: (out_dir / f"records_{policy}.json", out_dir / f"summary_{policy}.json")
                 for policy in policies}
        with _removed_on_failure([path for pair in paths.values() for path in pair]):
            for policy, config in configs.items():
                reports[policy] = _write_run(policy, run_epochs(scenario, config), *paths[policy])

    print("policy summaries:")
    for policy in policies:
        report = reports[policy]
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
    for g in _CDF_GRID:
        row = [f"{g:.2f}"]
        fractions = []
        for policy in policies:
            frac = _cdf_at(reports[policy].gamma_cdf, g)
            fractions.append(frac)
            row.append(f"{frac:.4f}")
        if with_delta:
            row.append(f"{fractions[-1] - fractions[0]:+.4f}")
        print("  " + "\t".join(row))
    return 0


def _mean_or_none(series):
    return mean(series) if series else None


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
    p_gen.add_argument("--clients", type=int, default=60)
    p_gen.add_argument("--servers", type=int, default=8)
    p_gen.add_argument("--origins", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--server-capacity-mbps", type=float,
                       default=DEFAULT_SERVER_CAPACITY_MBPS)
    _add_field_flags(p_gen.add_argument_group("network model"), NetModelParams)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one policy on a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--policy", choices=POLICIES, default="bass_greedy")
    p_run.add_argument("--out", required=True, help="output directory")
    _add_field_flags(p_run, SimConfig)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several policies on the same scenario and seed")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--policies", type=_policy_list, default="bass_greedy,random",
                       help="comma-separated policy names")
    p_cmp.add_argument("--out", default=None, help="optional output directory")
    _add_field_flags(p_cmp, SimConfig)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="summarize a saved records.json")
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--format", choices=("csv", "json"), default="json")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
