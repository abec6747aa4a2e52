"""The ``sda`` command line.

    sda sim run --scenario FILE --out DIR    simulate a scenario file
    sda chain verify PATH                    replay a chain.log

Installed, it is the ``sda`` console script; from a checkout, run it as
``python -m sdachain.cli``. A domain failure (any ``SdaError``), an
unreadable file or a bad value in one exits 1 with the message on stderr;
usage errors keep argparse's exit code 2.
"""
from __future__ import annotations

import argparse
import sys

from .errors import SdaError
from .ledger import verify_chain_file


def _sim_run(args) -> int:
    # imported here, so that chain verify does not load the simulator
    from .netsim import load_scenario, run_scenario
    report = run_scenario(load_scenario(args.scenario), args.out)
    print(f"height {report.height} state_root {report.state_root}")
    return 0


def _chain_verify(args) -> int:
    bad = verify_chain_file(args.path)
    if bad is None:
        print(f"{args.path}: ok")
        return 0
    print(f"{args.path}: first bad height {bad}")
    return 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sda", description="Staked space-domain-awareness chain.")
    groups = parser.add_subparsers(dest="group", required=True)

    sim = groups.add_parser("sim", help="run the simulator")
    sim_cmds = sim.add_subparsers(dest="command", required=True)
    run = sim_cmds.add_parser(
        "run", help="simulate a scenario file; write chain.log, report.json "
        "and the CSV timelines to the output directory")
    run.add_argument("--scenario", required=True,
                     help="scenario JSON file (docs/scenario.md)")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_sim_run)

    chain = groups.add_parser("chain", help="check a persisted chain")
    chain_cmds = chain.add_subparsers(dest="command", required=True)
    verify = chain_cmds.add_parser(
        "verify", help="replay a chain.log from its genesis snapshot; exit "
        "1 and print the first bad height if any block fails")
    verify.add_argument("path", help="chain.log file")
    verify.set_defaults(func=_chain_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SdaError, OSError, ValueError) as e:
        print(f"sda: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
