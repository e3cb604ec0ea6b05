"""Run a compile-service session from the command line.

Builds the HMP2-ranked UCCSD ansatz of a molecule, submits it to a
:class:`~repro.service.CompileService` backed by a persistent on-disk cache,
and prints the service snapshot (tier hit rates, latency percentiles, cache
counters) as JSON.  Run it twice with the same ``--cache-dir`` to watch the
second session serve from disk::

    PYTHONPATH=src python tools/serve.py --molecule H2 --n-terms 3 \
        --backends advanced,jw --repeat 2 --cache-dir .compile-cache

Every (molecule, n_terms, backend) job is submitted ``--repeat`` times;
repeats within one session exercise the dedup/memory tiers, repeats across
sessions exercise the disk tier.

Submission honors the service's backpressure contract: when the queue is
full, :class:`~repro.service.ServiceOverloadedError` carries the service's
own ``retry_after_s`` estimate, and this client sleeps exactly that long
before retrying (``--max-queue`` shrinks the queue if you want to watch it
happen; ``--deadline`` arms a per-job deadline).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import (  # noqa: E402
    CompileRequest,
    CompilerConfig,
    PersistentCompileCache,
)
from repro.chemistry import (  # noqa: E402
    build_molecular_hamiltonian,
    make_molecule,
    run_rhf,
)
from repro.service import CompileService, ServiceOverloadedError  # noqa: E402
from repro.vqe import hmp2_ranked_terms  # noqa: E402


async def submit_with_backoff(service, request, backend, deadline_s=None,
                              max_retries=32):
    """Submit one job, backing off by the service's own ``retry_after_s`` hint.

    The hint is queue depth × recent median compute time spread over the
    workers, so the client sleeps proportionally to the actual overload
    instead of a fixed or guessed interval.
    """
    for _ in range(max_retries):
        try:
            return await service.submit(request, backend=backend,
                                        deadline_s=deadline_s)
        except ServiceOverloadedError as exc:
            delay = exc.retry_after_s if exc.retry_after_s is not None else 0.05
            await asyncio.sleep(delay)
    raise ServiceOverloadedError(
        f"queue still full after {max_retries} backoff retries"
    )


def build_requests(molecule: str, n_terms: int, seed: int):
    """One request per ansatz size 1..n_terms, like a client sweep would send."""
    hamiltonian = build_molecular_hamiltonian(run_rhf(make_molecule(molecule)))
    ranked = hmp2_ranked_terms(hamiltonian)
    config = CompilerConfig(
        gamma_steps=10, sorting_population=8, sorting_generations=10, seed=seed
    )
    return [
        CompileRequest(
            terms=tuple(ranked[: min(size, len(ranked))]),
            n_qubits=hamiltonian.n_spin_orbitals,
            config=config,
        )
        for size in range(1, n_terms + 1)
    ]


async def serve(args) -> dict:
    requests = build_requests(args.molecule, args.n_terms, args.seed)
    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    fallback = [name.strip() for name in args.fallback.split(",") if name.strip()]
    disk = PersistentCompileCache(args.cache_dir)
    async with CompileService(
        disk_cache=disk,
        n_workers=args.workers,
        max_queue=args.max_queue,
        fallback=tuple(fallback),
    ) as service:
        job_ids = []
        for _ in range(args.repeat):
            for request in requests:
                for backend in backends:
                    job_ids.append(
                        await submit_with_backoff(
                            service, request, backend, deadline_s=args.deadline
                        )
                    )
        results = [await service.result(job_id) for job_id in job_ids]
        snapshot = service.snapshot()
    snapshot["jobs"] = [
        {"backend": result.backend, "cnot_count": result.cnot_count}
        for result in results
    ]
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="serve", description=__doc__.splitlines()[0])
    parser.add_argument("--molecule", default="H2")
    parser.add_argument("--n-terms", type=int, default=3)
    parser.add_argument("--backends", default="advanced")
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=".compile-cache")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="queue bound; a full queue triggers retry_after_s backoff")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-job deadline in seconds (default: none)")
    parser.add_argument("--fallback", default="",
                        help="comma-separated backend fallback chain tried, in "
                             "the same worker round trip, when a job's backend "
                             "fails (e.g. 'gt,jw'; default: none)")
    args = parser.parse_args(argv)

    snapshot = asyncio.run(serve(args))
    json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
