#!/usr/bin/env python3
"""End-to-end tour of the experiment service from a client's seat.

Starts an in-process service (so the example is self-contained — point
``--url`` at a running ``repro-ssle serve`` to skip that), then walks the
whole job lifecycle through :class:`repro.service.client.ServiceClient`:

1. submit a fischer-jiang sweep and watch its per-point progress,
2. fetch the result (the exact ``repro-ssle run --format json`` payload),
3. resubmit the identical request and observe ZERO executed trials — the
   warm service served everything from the results store,
4. submit a second job and cancel it mid-flight: the completed points
   survive, the rest are skipped.

Run:  python examples/service_client.py [--url http://host:port]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.fabric import JsonHttpServer
from repro.service import ExperimentServer, JobManager, ServiceClient, WarmPool
from repro.store import ResultsStore

PAYLOAD = {
    "protocol": "fischer-jiang",
    "sizes": [8, 16],
    "trials": 4,
    "max_steps": 600_000,
    "seed": 7,
}


def show_progress(status: dict) -> None:
    progress = status["progress"]
    print(f"  state={status['state']}  points "
          f"{progress['points_completed']}/{progress['points_total']}  "
          f"trials served={progress['trials_served']} "
          f"executed={progress['trials_executed']}")


def main(base_url: str | None = None) -> int:
    if base_url is not None:
        return tour(ServiceClient(base_url))
    # An in-process service on an ephemeral port, its store in a temporary
    # directory; the server answers from its own threads.
    with tempfile.TemporaryDirectory(prefix="repro-service-") as root:
        manager = JobManager(backend=WarmPool(workers=0),
                             store=ResultsStore(root))
        server = JsonHttpServer(ExperimentServer(manager)).start()
        try:
            return tour(ServiceClient(server.url))
        finally:
            server.close()
            manager.close()


def tour(client: ServiceClient) -> int:
    info = client.info()
    print(f"service: {info['service']} "
          f"(pool: {info['pool_workers']} worker(s))")

    print("\nsubmitting:", PAYLOAD)
    job = client.submit(PAYLOAD)
    print(f"accepted as {job['id']}")
    final = client.wait(job["id"], timeout=300)
    show_progress(final)
    result = client.result(job["id"])
    for entry in result["results"]:
        print(f"  n={entry['population_size']}: mean_steps="
              f"{entry['mean_steps']:.1f} all_converged="
              f"{entry['all_converged']}")

    print("\nresubmitting the identical request...")
    repeat = client.submit(PAYLOAD)
    show_progress(client.wait(repeat["id"], timeout=300))
    served = client.result(repeat["id"])["store"]
    print(f"  store: served={served['served']} executed={served['executed']}"
          "  <- nothing touched the pool")

    print("\nsubmitting a bigger sweep and cancelling it immediately...")
    doomed = client.submit({**PAYLOAD, "sizes": [8, 16, 24, 32, 48]})
    client.cancel(doomed["id"])
    cancelled = client.wait(doomed["id"], timeout=300)
    show_progress(cancelled)
    skipped = sum(1 for point in cancelled["progress"]["points"]
                  if point["skipped"])
    print(f"  state={cancelled['state']}: completed points kept, "
          f"{skipped} point(s) skipped")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="an already-running service (default: start "
                             "one in-process)")
    sys.exit(main(parser.parse_args().url))
