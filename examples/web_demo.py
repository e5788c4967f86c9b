#!/usr/bin/env python
"""Serve the MapRat web front-end locally (the demo of §3).

Starts the dependency-free asyncio HTTP server over a synthetic dataset,
pre-computes the explanations of the most popular movies (the §2.3 latency
techniques) and then serves:

* ``/``            — landing page with a search box,
* ``/explain?q=…`` — the Figure-2 explanation report,
* ``/explore?q=…`` — the Figure-3 exploration report,
* ``/api/…``       — the JSON API.

Usage::

    python examples/web_demo.py [port] [scale]

``scale`` is one of tiny/small/medium (default small; the ``MAPRAT_SCALE``
environment variable overrides it).  Stop with Ctrl-C.  With ``MAPRAT_SMOKE``
set, the server starts on an ephemeral port, answers one request per surface
(landing page, JSON summary, geo summary) and stops — the mode the examples
smoke test uses.
"""

import json
import os
import sys
from urllib.request import urlopen

from repro import MiningConfig, PipelineConfig, generate_dataset
from repro.server.asyncapi import run_server


def main() -> None:
    smoke = bool(os.environ.get("MAPRAT_SMOKE"))
    port = int(sys.argv[1]) if len(sys.argv) > 1 and not smoke else 0 if smoke else 8912
    scale = (
        sys.argv[2]
        if len(sys.argv) > 2
        else os.environ.get("MAPRAT_SCALE", "small")
    )

    print(f"Generating the {scale} synthetic dataset ...")
    dataset = generate_dataset(scale)
    config = PipelineConfig(mining=MiningConfig(max_groups=3, min_coverage=0.25))

    print("Starting the server and pre-computing popular movies (§2.3) ...")
    server = run_server(dataset, config, port=port, warm_up=10)
    print(f"MapRat is serving at {server.url}")
    if smoke:
        for path in ("/", "/api/summary", "/api/geo_summary"):
            with urlopen(server.url + path) as response:
                body = response.read()
                print(f"  GET {path} -> {response.status} ({len(body)} bytes)")
            if path == "/api/geo_summary":
                summary = json.loads(body)
                print(f"  geo_summary covers {len(summary['regions'])} states")
        server.stop()
        print("smoke run complete")
        return
    print(f"  try {server.url}/explain?q=title%3A%22Toy%20Story%22")
    print("  press Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
        print("stopped")


if __name__ == "__main__":
    main()
