"""The benchmark's ``repro.serve`` server process.

Runs a :class:`~repro.serve.server.PredictionServer` with the default
:class:`~repro.serve.server.ServeConfig` on an ephemeral port, prints
``ready <port>`` once it accepts connections, and serves until SIGTERM.
On drain it writes the server's statistics as JSON to ``--out``; with
``--trace DIR`` it wraps its serve and core layers and writes what they
recorded to ``DIR/<pid>.json``.

    python3 perfbench/serve_entry.py --out stats.json [--trace DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


async def serve(out: Path, trace_dir: Optional[Path]) -> int:
    from repro.serve.server import PredictionServer, ServeConfig

    tracer = None
    if trace_dir is not None:
        import layers
        from layertrace import Tracer

        tracer = Tracer()
        layers.install_serve(tracer)
    server = PredictionServer(ServeConfig())
    runner = asyncio.create_task(server.run())
    while server.port is None and not runner.done():
        await asyncio.sleep(0.001)
    if server.port is None:
        await runner  # re-raises whatever stopped the server starting
        return 1
    print(f"ready {server.port}", flush=True)
    clean = await runner
    if tracer is not None:
        tracer.dump(trace_dir)
    report = {"clean": clean, "stats": server.stats.as_dict()}
    out.write_text(json.dumps(report), encoding="utf-8")
    return 0 if clean else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()
    return asyncio.run(serve(args.out, args.trace))


if __name__ == "__main__":
    sys.exit(main())
