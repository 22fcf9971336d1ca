"""Run one hypstruct CLI command in-process with span wrappers installed.

    python3 benchmark/traced_cli.py STATS_JSON <command> --config ... --out ...

Imports the package from the interpreter's path, wraps the functions listed
in ``spans.LAYERS``, calls ``hypstruct.cli.main(argv)`` and writes the span
and count totals to STATS_JSON.  Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import hypstruct.cli as cli
from hypstruct import autodiff as ad

from spans import Tracer


def main(argv):
    stats_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    clamps_before = ad.total_atanh_clamps()
    code = cli.main(cli_argv)
    tracer.counts["autodiff.atanh_clamps"] = ad.total_atanh_clamps() - clamps_before
    stats_path.write_text(json.dumps({"exit": code, "spans": tracer.spans,
                                      "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
