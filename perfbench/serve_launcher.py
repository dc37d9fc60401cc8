"""Traced ``repro serve``: install the layer wrappers, then run the shipped CLI.

    python3 perfbench/serve_launcher.py --summary-out S.json --spans-out P.json \
        serve --store DIR --port 0

Besides the layer wrappers, every callable handed to a thread-pool executor
is wrapped as ``serve.worker.batch``: the server runs each batch of jobs on
its single executor thread, so those spans are the worker's busy time.
On exit the span summary and every span are written out.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from layers import LayerProbe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary-out", required=True)
    parser.add_argument("--spans-out", required=True)
    args, cli_argv = parser.parse_known_args()

    probe = LayerProbe()
    probe.install()
    submit = ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *fn_args, **fn_kwargs):
        return submit(self, probe.tracer.wrap("serve.worker.batch", fn), *fn_args, **fn_kwargs)

    ThreadPoolExecutor.submit = traced_submit

    from repro.cli import main as cli_main

    status = cli_main(cli_argv)
    with open(args.summary_out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "summary": probe.tracer.summary(),
                "snapshot_bytes": probe.snapshot_bytes,
            },
            handle,
        )
    probe.tracer.dump(args.spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
