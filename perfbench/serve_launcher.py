#!/usr/bin/env python3
"""Start ``repro.serve`` with the benchmark's server-side wrappers.

    python3 perfbench/serve_launcher.py --trace-out FILE -- --registry DIR --model NAME ...

Everything after ``--`` goes to :func:`repro.serve.__main__.main`
unchanged.  The wrappers are installed before the server starts and
restored after it drains (SIGTERM); the aggregates, the raw spans and
the per-request handle times are then written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import use_source_tree  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    args = parser.parse_args(argv[:split])
    use_source_tree()

    from perfbench import layers
    from perfbench.tracing import SpanRecorder, install
    from repro.serve.__main__ import main as serve_main

    recorder = SpanRecorder()
    state = layers.ServeTrace()
    with install(recorder, layers.serve_patches(recorder, state)):
        code = serve_main(argv[split + 1 :])
    document = recorder.snapshot()
    document.update(asdict(state))
    document.pop("submitted")
    document["spans"] = recorder.raw_spans()
    args.trace_out.write_text(json.dumps(document), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
