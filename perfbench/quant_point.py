"""One ``repro-ssle check --quant`` point, with a workload seed.

    python3 perfbench/quant_point.py angluin-modk --n 3 --topology directed-ring \\
        --symmetry force --seed 2023

``check`` has no ``--seed`` flag.  This script makes the call that
``check --quant`` makes, :func:`repro.check.quant.quant_spec` with the
command's defaults, and passes the seed as ``ExperimentConfig(seed=...)``.
It prints the report as one JSON document and, like the command, exits 1
when a gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.api.config import ExperimentConfig
from repro.check.graph import DEFAULT_MAX_CONFIGS
from repro.check.model import DEFAULT_MAX_N
from repro.check.quant import quant_spec, summarize_quant
from repro.experiments.reporting import jsonable


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("protocol")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--topology", default=None)
    parser.add_argument("--symmetry", choices=("auto", "off", "force"), default="auto")
    parser.add_argument("--seed", type=int, default=ExperimentConfig().seed)
    parser.add_argument("--max-configs", type=int, default=DEFAULT_MAX_CONFIGS,
                        help="node budget; 1 stops after building the encoder")
    args = parser.parse_args(argv)
    report = quant_spec(args.protocol, max_n=DEFAULT_MAX_N, topology=args.topology,
                        n=args.n, max_configs=args.max_configs,
                        config=ExperimentConfig(seed=args.seed),
                        symmetry=args.symmetry)
    summary = summarize_quant([report])
    print(json.dumps(jsonable({"report": report, "summary": summary}), sort_keys=True))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
