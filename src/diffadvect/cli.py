"""Command-line experiment runner.

Subcommands:

* ``run``           -- execute one configuration, write its artifacts
* ``sweep``         -- strong / weak / balance / param experiment families
* ``compare``       -- speedup table from summary.json files (CSV to stdout)
* ``export-curves`` -- re-emit a run's geometry file

Exit codes: 0 success, 2 configuration error, 3 invariant violation,
4 round-cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .advect import CurveRecord, export_curves, read_curves
from .balance import SCHEDULERS
from .config import SETTINGS, RunConfig, apply_settings, config_items, setting_item
from .errors import ConfigError, DiffAdvectError, InvariantError, RoundLimitError
from .metrics import build_summary, write_lif_csv, write_rounds_csv, write_summary
from .runtime import RunResult, Simulator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_ROUND_CAP = 4

_STRONG_NODES = (2, 4, 8, 16)
_WEAK_LADDER = ((2, (8, 8, 8)), (4, (8, 8, 4)), (8, (8, 4, 4)), (16, (4, 4, 4)))
_PARAM_AXES = {
    "field": ("abc", "jets", "toroidal"),
    "aabb_scale": (0.25, 0.5, 1.0),
    "stride": ((8, 8, 8), (8, 8, 4), (8, 4, 4), (4, 4, 4)),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _join_dash_values(argv: list[str]) -> list[str]:
    """Each configuration-key flag followed by a value such as ``-1e-3`` as one ``--key=-1e-3`` token.

    argparse reads a separate token that starts with ``-`` as an option unless it
    is a plain negative decimal; no key's value starts with ``--``.
    """
    keys = {_flag(key) for key in SETTINGS}
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in keys and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _config_from_args(args) -> tuple[RunConfig, list[str]]:
    """The config of the file, then the ``--set`` items, then the flags, and every problem met."""
    items, problems = [], []
    if args.config:
        try:
            items = config_items(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"--config: cannot read {args.config}: {exc}")
    items += [setting_item("--set", item) for item in args.set or ()]
    items += [(_flag(key), key, getattr(args, key)) for key in SETTINGS if getattr(args, key) is not None]
    config, bad = apply_settings(RunConfig(), items)
    return config, problems + bad


def _output_problems(path: Path) -> list[str]:
    """A problem if ``path``, or the nearest of its parents that exists, is not a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    return [] if existing.is_dir() else [f"output: {existing} exists and is not a directory"]


def _require_no_problems(problems: list[str]) -> None:
    if problems:
        raise ConfigError("invalid configuration", errors=problems)


def execute_run(config: RunConfig, out_dir: Path | None = None) -> tuple[RunResult, dict]:
    """Run one configuration, ``Simulator(config).run()``, and write its artifacts if a directory is given.

    The simulator refuses an invalid config, listing every problem, before anything is allocated.
    """
    result = Simulator(config).run()
    summary = build_summary(config.to_dict(), config.config_hash(), result)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_rounds_csv(out_dir / "rounds.csv", result.records)
        write_lif_csv(out_dir / "lif.csv", result.table)
        write_summary(out_dir / "summary.json", summary)
        (out_dir / "config.txt").write_text(config.canonical_text(), encoding="utf-8")
        if config.export_curves:
            export_curves(out_dir / "curves.bin", result.store.records, config_hash=config.config_hash())
        else:  # an earlier run's curves would otherwise pass for this run's
            (out_dir / "curves.bin").unlink(missing_ok=True)
    return result, summary


def _cmd_run(args) -> int:
    config, problems = _config_from_args(args)
    out_dir = Path(config.output) if config.output else None
    _require_no_problems(problems + config.validate() + (_output_problems(out_dir) if out_dir else []))
    result, summary = execute_run(config, out_dir)
    print(
        f"scheduler={config.scheduler} nodes={result.node_count} seeds={result.seed_count} "
        f"rounds={result.rounds} measured_s={sum(summary['stage_totals_s'].values()):.3f} "
        f"lockstep_steps={summary['lockstep_integrate_steps']}"
        + (f" -> {out_dir}" if out_dir else "")
    )
    return EXIT_OK


def _speedup_rows(summaries: list[dict], scaled=("grid",)) -> list[str]:
    """CSV speedup table with one row per summary.

    Summaries whose configs differ only in node count, that is in the
    ``scaled`` keys, form one group whose baseline is its first summary with
    the fewest nodes; a member's speedup is the baseline's lockstep steps over
    its own, NaN at 0 steps. Groups are listed by scheduler, then in input
    order; rows within a group by node count, then in input order.
    """
    groups: dict[str, list[dict]] = {}
    for s in summaries:
        rest = {k: v for k, v in s["config"].items() if k not in scaled}
        groups.setdefault(json.dumps(rest, sort_keys=True), []).append(s)
    lines = ["scheduler,node_count,lockstep_integrate_steps,speedup"]
    for members in sorted(groups.values(), key=lambda g: g[0]["config"]["scheduler"]):
        members.sort(key=lambda s: s["node_count"])
        base = members[0]["lockstep_integrate_steps"]
        for s in members:
            steps = s["lockstep_integrate_steps"]
            ratio = base / steps if steps > 0 else float("nan")
            lines.append(f"{s['config']['scheduler']},{s['node_count']},{steps},{ratio:.6g}")
    return lines


def _cmd_compare(args) -> int:
    summaries, errors = [], []
    for path in args.summaries:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            errors.append(f"{path}: cannot read a summary: {exc}")
            continue
        problems = [f"missing {key}" for key in ("config", "node_count", "lockstep_integrate_steps")
                    if not isinstance(summary, dict) or key not in summary]
        if not problems:
            if not (isinstance(summary["config"], dict) and "scheduler" in summary["config"]):
                problems.append("config is not an object with a scheduler")
            problems += [f"{key} is not an integer" for key in ("node_count", "lockstep_integrate_steps")
                         if type(summary[key]) is not int]
        if problems:
            errors.append(f"{path}: not a run summary: {', '.join(problems)}")
        summaries.append(summary)
    if errors:
        raise ConfigError("unreadable summaries", errors=errors)
    for line in _speedup_rows(summaries):
        print(line)
    return EXIT_OK


def _sweep_members(kind: str, axis: str | None):
    """``(name, changes)`` of each member of a sweep, ``changes`` being RunConfig fields."""
    if kind == "strong":
        for nodes in _STRONG_NODES:
            for sched in SCHEDULERS:
                yield f"{sched}_n{nodes}", dict(nodes=nodes, grid=None, scheduler=sched)
    elif kind == "weak":
        for nodes, stride in _WEAK_LADDER:
            for sched in SCHEDULERS:
                yield f"{sched}_n{nodes}", dict(nodes=nodes, grid=None, scheduler=sched, stride=stride)
    elif kind == "balance":
        for sched in SCHEDULERS:
            yield sched, dict(scheduler=sched, aabb_scale=0.5)
    else:
        axis = axis or "aabb_scale"
        for value in _PARAM_AXES[axis]:
            tag = "x".join(map(str, value)) if isinstance(value, tuple) else value
            for sched in SCHEDULERS:
                yield f"{sched}_{axis}-{tag}", {axis: value, "scheduler": sched}


def _cmd_sweep(args) -> int:
    base, problems = _config_from_args(args)
    if args.axis is not None and args.kind != "param":
        problems.append(f"--axis: only --kind param takes an axis, not --kind {args.kind}")
    members = [(name, replace(base, **changes)) for name, changes in _sweep_members(args.kind, args.axis)]
    out_root = Path(base.output) if base.output else Path(f"sweep_{args.kind}")
    problems += [f"[{name}] {err}" for name, member in members for err in member.validate()]
    problems += _output_problems(out_root) or [
        err for name, _ in members for err in _output_problems(out_root / name)]
    _require_no_problems(problems)
    out_root.mkdir(parents=True, exist_ok=True)
    summaries = []
    for name, member in members:
        print(f"[sweep {args.kind}] {name} ...", flush=True)
        summaries.append(execute_run(member, out_root / name)[1])
    # A weak-scaling ladder varies the seed stride together with the node count.
    table = _speedup_rows(summaries, ("grid", "stride") if args.kind == "weak" else ("grid",))
    table_path = out_root / ("speedup.csv" if args.kind in ("strong", "weak") else "comparison.csv")
    table_path.write_text("\n".join(table) + "\n", encoding="utf-8")
    for line in table:
        print(line)
    return EXIT_OK


def _cmd_export_curves(args) -> int:
    src = Path(args.run) / "curves.bin"
    if not src.exists():
        raise ConfigError(f"no curves.bin under {args.run}; run with export_curves = true")
    try:
        header, curves = read_curves(src)
        export_curves(args.out, [CurveRecord.of(curves)], config_hash=header.get("config_hash"))
    except OSError as exc:
        raise ConfigError(f"{exc.filename}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{src}: not a curves file: {exc!r}") from exc
    print(f"wrote {args.out}: {len(curves)} curves")
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    keys = parser.add_argument_group("configuration keys", "one flag per key, in the file's value "
                                     "syntax; flags override --set, which overrides --config")
    for key in SETTINGS:
        keys.add_argument(_flag(key), dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffadvect")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment family")
    p_sweep.add_argument("--kind", required=True, choices=("strong", "weak", "balance", "param"))
    p_sweep.add_argument("--axis", choices=sorted(_PARAM_AXES), help="axis for --kind param")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="speedup table from summary.json files")
    p_cmp.add_argument("summaries", nargs="+")
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("export-curves", help="re-emit a run's geometry file")
    p_exp.add_argument("--run", required=True, help="run output directory")
    p_exp.add_argument("--out", required=True, help="destination file")
    p_exp.set_defaults(func=_cmd_export_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except RoundLimitError as exc:
        print(f"round cap exceeded: {exc}", file=sys.stderr)
        return EXIT_ROUND_CAP
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DiffAdvectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
