"""Set-up time of one workload, measured in a fresh interpreter.

Times the import of every `cdsl_lab` module, building the config, and
`protocol.run_cdsl` up to its first training step: generating every
domain, building the network and drawing the first batch. The run is cut
off at the first call to `objective.build_context`.

    python3 perfbench/setup_probe.py --workload rot5 --seed 2022

Prints one JSON line: `setup_s`, and `import_s`, the seconds each module's
import adds when the modules are imported in the order below.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time

import workloads

# Dependency order. synthdata comes before randmix so that randmix's share
# is what scipy.signal adds on top of the scipy that scipy.ndimage loads.
IMPORT_ORDER = ("diffcore", "nets", "labeler", "memory", "objective",
                "synthdata", "randmix", "protocol", "cli")


class FirstStep(Exception):
    """Raised in place of the first training step to end the run there."""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    workloads.add_source_path()

    start = last = time.perf_counter()
    import_s = {}
    for name in IMPORT_ORDER:
        try:
            importlib.import_module(f"cdsl_lab.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"cdsl_lab.{name}":
                raise
            continue
        now = time.perf_counter()
        import_s[name] = now - last
        last = now
    from cdsl_lab import objective, protocol

    cfg, seq = workloads.build(args.workload, args.seed)

    def first_step(*_, **__):
        raise FirstStep

    objective.build_context = first_step
    try:
        protocol.run_cdsl(cfg, seq)
    except FirstStep:
        setup_s = time.perf_counter() - start
    else:
        raise SystemExit("setup probe: the run ended without a training step")
    print(json.dumps({"setup_s": setup_s, "import_s": import_s}))


if __name__ == "__main__":
    main()
