"""Run one rainlidar CLI command in-process with every public function traced.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID COMMAND [ARGS...]

Imports the package, wraps every public function of every ``rainlidar``
module at every binding, calls ``rainlidar.cli.main([COMMAND, ARGS...])``,
restores the bindings, writes the spans to SPANS_JSON and exits with the
command's exit code. ``rainlidar`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import os
import sys

import spantrace


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Per-span tags for the layer metrics that need more than a duration.
TAGGERS = {
    # point count: splits the Gram-form branch (>= 64 points) from the rest
    "features.mst_length": lambda a, k: len(_first_arg(a, k, "points")),
    # frame id: distinct scans per command, for the scan reuse ratio
    "features.scan_features": lambda a, k: int(_first_arg(a, k, "scan").frame_id),
    # bytes of the scan file read
    "io.read_scans": lambda a, k: os.path.getsize(_first_arg(a, k, "path")),
}


def main(argv) -> int:
    spans_path, run_id, *cli_args = argv
    import rainlidar.cli

    with spantrace.Tracer(run_id, TAGGERS) as tracer:
        tracer.install("rainlidar")
        code = rainlidar.cli.main(cli_args)
    names = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "run_id": run_id,
        "names": names,
        "spans": [[sid, index[name], start, end, parent, tag]
                  for sid, name, start, end, parent, tag in tracer.spans],
    }
    with open(spans_path, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
