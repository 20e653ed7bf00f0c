"""Latency/throughput benchmark for the ``repro serve`` query plane.

Packs the session's study into a columnar shard, maps it zero-copy, and
drives the asyncio server with closed-loop clients at concurrency 1/16/64.
Each level is measured twice against a *fresh* server process state:

* **cold** — the shard was just mmapped and the service's body memo is
  empty, so the pass pays page faults plus one vectorized-kernel run per
  distinct query;
* **warm** — the same server immediately afterwards, where every request
  is a memo lookup streamed into the socket.

Per-request wall times give p50/p99; the pass's span gives requests/sec.
Results land in ``results/BENCH_serve.json`` so the serving plane's perf
trajectory is tracked across PRs alongside ``BENCH_pipeline.json``.
Request count per level scales with ``REPRO_BENCH_SERVE_REQUESTS``
(default 300).
"""

import asyncio
import json
import os
import time

from repro.store import (
    ColumnarStudy,
    StudyServer,
    StudyService,
    load_shard,
    write_shard,
)

REQUESTS_PER_LEVEL = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "300"))
CONCURRENCY_LEVELS = (1, 16, 64)

#: A mixed read workload: every query family, two window variants.
TARGETS = [
    "/v1/skill",
    "/v1/lifecycle",
    "/v1/vendors",
    "/v1/kev",
    "/v1/describe",
    "/v1/windows?later=A&earlier=D",
    "/v1/windows?later=X&earlier=F",
]


async def _worker(host, port, targets, latencies):
    """One keep-alive connection issuing its share of the workload."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for target in targets:
            started = time.perf_counter()
            writer.write(
                f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            if length:
                await reader.readexactly(length)
            latencies.append(time.perf_counter() - started)
            assert status == 200, f"{target}: HTTP {status}"
    finally:
        writer.close()


async def _drive(host, port, *, concurrency, total):
    """Run ``total`` requests over ``concurrency`` connections.

    Returns (per-request latencies, elapsed wall seconds).
    """
    latencies = []
    shares = [
        [TARGETS[i % len(TARGETS)] for i in range(worker, total, concurrency)]
        for worker in range(concurrency)
    ]
    started = time.perf_counter()
    await asyncio.gather(
        *[_worker(host, port, share, latencies) for share in shares if share]
    )
    return latencies, time.perf_counter() - started


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _stats(latencies, elapsed):
    ordered = sorted(latencies)
    return {
        "requests": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
        "requests_per_sec": round(len(ordered) / elapsed, 1)
        if elapsed > 0 else None,
    }


async def _bench_level(shard_path, concurrency):
    """Cold and warm passes at one concurrency, each on a fresh mmap."""
    study = load_shard(shard_path)
    server = StudyServer(StudyService(study))
    host, port = await server.start()
    try:
        cold = _stats(
            *await _drive(
                host, port, concurrency=concurrency, total=REQUESTS_PER_LEVEL
            )
        )
        warm = _stats(
            *await _drive(
                host, port, concurrency=concurrency, total=REQUESTS_PER_LEVEL
            )
        )
    finally:
        await server.close()
    return {"concurrency": concurrency, "cold": cold, "warm": warm}


def test_serve_latency_throughput(study_full, results_dir, tmp_path):
    packed = ColumnarStudy.from_study(study_full)
    shard_path = write_shard(packed, tmp_path / "shard.frame")

    levels = [
        asyncio.run(_bench_level(shard_path, concurrency))
        for concurrency in CONCURRENCY_LEVELS
    ]

    report = {
        "etag": packed.etag,
        "shard_bytes": shard_path.stat().st_size,
        "counts": packed.meta["counts"],
        "targets": TARGETS,
        "requests_per_level": REQUESTS_PER_LEVEL,
        "levels": levels,
    }
    (results_dir / "BENCH_serve.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(f"\n[serve] shard {shard_path.stat().st_size / 1024:.0f} KiB")
    for level in levels:
        print(
            f"[serve] c={level['concurrency']:>2}  "
            f"cold p50={level['cold']['p50_ms']}ms "
            f"p99={level['cold']['p99_ms']}ms "
            f"{level['cold']['requests_per_sec']} req/s  |  "
            f"warm p50={level['warm']['p50_ms']}ms "
            f"p99={level['warm']['p99_ms']}ms "
            f"{level['warm']['requests_per_sec']} req/s"
        )

    # The serving plane must answer from the shard, not by re-deriving:
    # warm medians should sit in the sub-millisecond-to-a-few-ms band even
    # on a loaded host, and never be slower than the cold pass's p99.
    for level in levels:
        assert level["warm"]["p50_ms"] <= max(
            level["cold"]["p99_ms"], level["warm"]["p99_ms"]
        )
