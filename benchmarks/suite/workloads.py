"""The suite's inputs: which regions each workload plans, and the service
clients' request scripts.

Every region comes from :func:`repro.region.catalog.make_region` with the
golden catalog seed, 8 fibers per DC and a failure tolerance of 2. The
workload seed does not pick the maps: a different catalog seed changes the
cost of one 5-DC plan up to sevenfold (0.05-0.36 s), which would swamp any
change a benchmark comparison is meant to detect. The seed instead orders
the grid passes and writes the service clients' scripts: request order,
the DCs that are resized and by how much, and the bypass price factors.

The request scripts are pure data (no ``repro`` import), so tests can
check them without planning anything.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

#: Root of the checkout the suite runs in.
ROOT = Path(__file__).resolve().parents[2]

CATALOG_SEED = 2020
DC_FIBERS = 8
FAILURE_TOLERANCE = 2

#: (map index, DC count) cells each plan workload plans once per pass.
PLAN_CELLS = {
    # The golden-pin region: cut-through dominates, capacity is small.
    "golden5": ((0, 5),),
    # The 10-DC cells of the Fig 12 mini grid: enumeration and capacity
    # carry more weight, over four different maps.
    "grid10": ((0, 10), (1, 10), (2, 10), (3, 10)),
    # The ladder's scale point: one 20 s plan with a 44 MB encoding.
    "scale15": ((2, 15),),
}

#: Base regions owned by each service client (client 0, client 1).
SERVICE_CELLS = (
    ((0, 5), (1, 5), (2, 5), (3, 5)),
    ((0, 6), (1, 6), (2, 6), (3, 6)),
)

#: What a client sends for each base region after its cold first touch,
#: round by round: R a new resize delta, B a new bypass delta, . a repeat.
#: Fixed, so every prefix of a script has the same mix whatever the seed.
ROUNDS = "R..B..R...B..R..B..R...B..B.."
RESIZES = ROUNDS.count("R")
BYPASSES = ROUNDS.count("B")
REPEATS = ROUNDS.count(".")

#: Rounds sent per second of a run's ``--seconds``: 12 rounds after the
#: cold touches for 15 s, about 15 s of requests on a 2-core AMD EPYC VM.
#: A count rather than a deadline, so every run serves the same requests
#: and its daemon ends up holding the same plans, whatever its speed.
ROUNDS_PER_SECOND = 0.8

#: New fiber counts a resized DC may get (never the base 8, so every
#: resize is a new key) and the range of bypass price factors.
RESIZE_FIBERS = (6, 7, 9, 10)
BYPASS_FACTORS = (1.05, 1.25)


def cell_name(cell: tuple[int, int]) -> str:
    """A region's name in results: ``m<map>-n<DCs>``."""
    return f"m{cell[0]}-n{cell[1]}"


def make_regions(cells):
    """The catalog region of every cell (imports ``repro``)."""
    from repro.region.catalog import make_region

    return [
        make_region(
            map_index=map_index,
            n_dcs=n_dcs,
            dc_fibers=DC_FIBERS,
            failure_tolerance=FAILURE_TOLERANCE,
            seed=CATALOG_SEED,
        ).spec
        for map_index, n_dcs in cells
    ]


def plan_order(workload: str, seed: int) -> list[tuple[int, int]]:
    """The cells of a plan workload in the seed's pass order."""
    cells = list(PLAN_CELLS[workload])
    random.Random(f"{workload}-{seed}").shuffle(cells)
    return cells


@dataclass(frozen=True)
class Request:
    """One submit + result exchange of a service client.

    ``target`` 0 is the base region; ``1..RESIZES`` are its resize deltas
    and the next ``BYPASSES`` its bypass deltas. ``expect`` is the
    outcome the daemon must report: ``cold`` for a first touch of a base
    region, ``patched`` for a first touch of a delta, ``store`` for a
    repeat of anything the client has already received.
    """

    region: int
    target: int
    expect: str


@dataclass(frozen=True)
class RegionEdits:
    """The deltas of one base region.

    ``resizes`` holds (index into the sorted DC names, new fiber count);
    ``bypass_factors`` the price factors of the bypass ducts.
    """

    resizes: tuple[tuple[int, int], ...]
    bypass_factors: tuple[float, ...]


@dataclass(frozen=True)
class ClientScript:
    """Everything one service client sends, in order."""

    edits: tuple[RegionEdits, ...]
    requests: tuple[Request, ...]


def service_rounds(seconds: float) -> int:
    """How many entries of :data:`ROUNDS` a run of ``seconds`` sends."""
    return min(len(ROUNDS), max(1, round(seconds * ROUNDS_PER_SECOND)))


def client_script(
    seed: int, client: int, rounds: int = len(ROUNDS)
) -> ClientScript:
    """The seeded script of ``client``.

    The base regions are touched first (cold), in a seeded order. Then,
    per entry of the first ``rounds`` of :data:`ROUNDS`, every region
    gets one request, in a seeded order: its next delta (patched) or a repeat of a seeded target
    the client has already received (store). A client is closed-loop, so
    no request repeats one still in flight and every outcome is fixed by
    the script alone.
    """
    rng = random.Random(f"service-{seed}-{client}")
    cells = SERVICE_CELLS[client]
    edits = tuple(
        RegionEdits(
            resizes=tuple(
                (dc, rng.choice(RESIZE_FIBERS))
                for dc in rng.sample(range(n_dcs), RESIZES)
            ),
            bypass_factors=tuple(
                rng.uniform(*BYPASS_FACTORS) for _ in range(BYPASSES)
            ),
        )
        for _map_index, n_dcs in cells
    )
    regions = list(range(len(cells)))
    rng.shuffle(regions)
    requests = [Request(region, 0, "cold") for region in regions]
    touched = [[0] for _ in cells]
    next_target = [{"R": 1, "B": 1 + RESIZES} for _ in cells]
    for kind in ROUNDS[:rounds]:
        rng.shuffle(regions)
        for region in regions:
            if kind == ".":
                target = rng.choice(touched[region])
                requests.append(Request(region, target, "store"))
                continue
            target = next_target[region][kind]
            next_target[region][kind] += 1
            touched[region].append(target)
            requests.append(Request(region, target, "patched"))
    return ClientScript(edits=edits, requests=tuple(requests))


def bypass_delta(plan, factor: float):
    """A duct between non-adjacent nodes, priced ``factor``x its worst-case
    alternative route over every enumerated scenario, so every strict
    bypass check passes and the patched topology is provably unchanged.

    The construction of ``benchmarks/bench_service.py``.
    """
    import networkx as nx

    from repro.region.delta import RegionDelta

    fmap = plan.region.fiber_map
    scenarios = list(plan.topology.scenario_paths)
    existing = set(fmap.ducts)
    for u in fmap.nodes:
        for v in fmap.nodes:
            if v <= u or (min(u, v), max(u, v)) in existing:
                continue
            worst = 0.0
            for scenario in scenarios:
                graph = fmap.subgraph_without(scenario)
                try:
                    dist = nx.dijkstra_path_length(
                        graph, u, v, weight="length_km"
                    )
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    worst = None
                    break
                worst = max(worst, dist)
            if worst is not None and worst > 0:
                return RegionDelta.duct_added(u, v, length_km=factor * worst)
    raise ValueError("no bypassable node pair in the region")


@contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    parent = ROOT / ".suite-work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it
