"""One transfusion CLI command in this process, with timestamps.

Usage (run.py builds this line):

    python3 perfbench/child.py --src SRC --record FILE --marker MODULE.FUNC
        [--probe] [--trace SPANS_FILE --run-id ID] -- CLI ARGS...

The command's stdout and exit code are the CLI's own. Timestamps are
CLOCK_MONOTONIC readings, which the parent process can compare with its
own, and go to the record file as JSON:

- ``main_start`` / ``main_end``: around ``transfusion.cli.main``;
- ``first_unit``: entry of the first call to the marker function, a public
  library function that the command calls once per unit of work and never
  during set-up. With ``--probe`` the command stops there: the run
  measures set-up only and prints nothing.
- ``speed``: (start, duration) of each run of the calibration kernel,
  which a SpeedSampler (see calibrate.py) runs from the start of this
  script to after ``cli.main`` returns. The parent rescales its timings
  with them. Untraced commands only.

With ``--trace`` the whole library is traced instead (see tracer.py), the
spans are written to SPANS_FILE and the per-layer metrics to the record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from calibrate import SpeedSampler, clock
from tracer import ROOT_SPAN, Tracer, coverage, rebind


class FirstUnit(BaseException):
    """Raised by the marker in probe mode. A BaseException, so the CLI's
    error handling (which catches ValueError and friends) lets it through."""


def install_marker(record: dict, marker: str, probe: bool) -> None:
    mod_name, func_name = marker.rsplit(".", 1)
    mod = importlib.import_module(f"transfusion.{mod_name}")
    original = getattr(mod, func_name)

    def marked(*args, **kwargs):
        if "first_unit" not in record:
            record["first_unit"] = clock()
            if probe:
                raise FirstUnit
        return original(*args, **kwargs)

    rebind("transfusion", {id(original): marked})


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--marker", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--trace")
    p.add_argument("--run-id", default="run")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = p.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    sampler = None
    if not opts.trace:
        sampler = SpeedSampler()
        sampler.start()
    src = os.path.realpath(opts.src)
    sys.path.insert(0, src)
    import transfusion.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"child: transfusion imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    record: dict = {}
    tracer = None
    entry = cli.main
    if opts.trace:
        tracer = Tracer(opts.run_id)
        tracer.install()
        entry = tracer.wrap(ROOT_SPAN, cli.main)
    else:
        install_marker(record, opts.marker, opts.probe)

    record["main_start"] = clock()
    try:
        rc = entry(cli_args)
    except FirstUnit:
        rc = 0
    record["main_end"] = clock()
    sys.stdout.flush()
    if sampler is not None:
        sampler.stop()
        record["speed"] = sampler.samples

    if tracer is not None:
        root_ns = tracer.root_duration_ns()
        layers = tracer.layer_metrics()
        layers["trace.coverage"] = {"value": coverage(layers, root_ns), "unit": "ratio"}
        record["layers"] = layers
        tracer.write_spans(opts.trace)

    with open(opts.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
