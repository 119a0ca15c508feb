"""Command-line front end for synthesis and the staged analysis.

Exit codes: 0 all requested stages succeeded, 1 a stage errored or was
skipped, 2 unusable input (bad file, bad config, bad arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from ._version import __version__
from .pipeline import AnalysisConfig, _round_floats, load_datasets, run_analysis, write_report
from .synth import SynthConfig, generate_dataset, write_truth_json
from .sweepio import write_sweep_csv

SECTION_OF = {
    "hall": ("hall",),
    "fit-wl": ("hall", "wl", "powerlaw"),
    "collapse": ("hall", "wl", "collapse"),
    "report": ("hall", "wl", "powerlaw", "collapse"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltamag",
        description="Magnetotransport analysis for delta-doped layers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("hall", "carrier density and derived sample parameters"),
        ("fit-wl", "weak-localization difference fits per temperature"),
        ("collapse", "interaction-channel scaling collapse"),
        ("report", "full analysis, written as JSON plus plot CSVs"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("files", nargs="+", metavar="sweeps.csv")
        p.add_argument("--config", metavar="JSON", help="analysis options file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument(
            "--fit-window",
            metavar="BMIN,BMAX",
            help="field window for the WL fit, tesla (default 0,2)",
        )
        p.add_argument("--kappa", type=float, metavar="F", help="r_s constant, nm^-1 (default 3.37)")

    p = sub.add_parser("synth", help="generate synthetic sweep files from a config")
    p.add_argument("files", nargs=1, metavar="config.json")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--seed", type=int, help="override the synthesis seed")

    return parser


def _load_config(args) -> AnalysisConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(base, dict):
            raise ValueError("analysis config must be a JSON object")
    if args.fit_window is not None:
        parts = args.fit_window.split(",")
        if len(parts) != 2:
            raise ValueError("--fit-window expects BMIN,BMAX")
        base["fit_window_T"] = [float(parts[0]), float(parts[1])]
    if args.kappa is not None:
        base["kappa_nm"] = args.kappa
    return AnalysisConfig.from_dict(base)


def _cmd_synth(args) -> int:
    cfg = SynthConfig.from_json(args.files[0])
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    records = generate_dataset(cfg)
    sweep_path = outdir / f"{cfg.sample_id}_sweeps.csv"
    truth_path = outdir / f"{cfg.sample_id}_truth.json"
    write_sweep_csv(sweep_path, records)
    write_truth_json(cfg, truth_path)
    print(sweep_path)
    print(truth_path)
    return 0


def _cmd_analyze(args) -> int:
    config = _load_config(args)
    datasets = load_datasets(args.files, config)
    sections = SECTION_OF[args.command]
    ok = True
    for ds in datasets:
        report = run_analysis(ds, sections)
        for name in sections:
            if report.stages[name].get("status") != "ok":
                ok = False
        if args.command == "report":
            path = write_report(report, Path(args.out or "."))
            print(path)
        else:
            view = {"sample": report.sample}
            view.update({name: report.stages[name] for name in sections})
            text = json.dumps(_round_floats(view), sort_keys=True, indent=2)
            print(text)
            if args.out:
                outdir = Path(args.out)
                outdir.mkdir(parents=True, exist_ok=True)
                section_path = outdir / f"{report.sample}_{args.command}.json"
                section_path.write_text(text + "\n", encoding="utf-8")
    return 0 if ok else 1


_parser = functools.cache(build_parser)  # built once per process, on first use


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_analyze(args)
    except (OSError, ValueError) as exc:
        print(f"deltamag: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
