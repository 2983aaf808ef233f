"""Randomized end-to-end equivalence: random query trees, three engines.

The strongest property in the suite: for randomly generated (but valid)
query trees over randomly generated catalogs, the DIRECT machine, the
ring machine, and the MIT-model data-flow machine must all produce
exactly the oracle's rows.  Trees are generated with a seeded RNG (not
hypothesis) because each case is expensive; 25 seeds x 3 engines gives
broad shape coverage deterministically.
"""

import random

import pytest

from repro.dataflow.machine import DataflowMachine
from repro.direct import machine as direct_machine
from repro.direct import scheduler
from repro.direct.cache import DiskCache
from repro.direct.instructions import JoinInstruction, Task
from repro.direct.machine import DirectMachine
from repro.relational.catalog import Catalog
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.check.identity import QUICK_CONFIGS
from repro.experiments import serving
from repro.query import execute
from repro.query.builder import NodeBuilder, scan

SCHEMA = Schema.build(("k", DataType.INT), ("g", DataType.INT))

PAGE_BYTES = 128


def random_catalog(rng: random.Random) -> Catalog:
    catalog = Catalog()
    for name in ("t1", "t2", "t3"):
        rows = rng.randint(0, 120)
        groups = rng.randint(1, 12)
        catalog.register(
            Relation.from_rows(
                name,
                SCHEMA,
                [(i, rng.randrange(groups)) for i in range(rows)],
                page_bytes=PAGE_BYTES,
            )
        )
    return catalog


def random_operand(rng: random.Random, catalog: Catalog) -> NodeBuilder:
    name = rng.choice(catalog.names)
    builder = scan(name)
    if rng.random() < 0.7:
        cut = rng.randint(0, 130)
        builder = builder.restrict(attr("k") < cut)
    return builder


def random_tree(rng: random.Random, catalog: Catalog, name: str = "rand"):
    builder = random_operand(rng, catalog)
    joins = rng.randint(0, 2)
    for _ in range(joins):
        builder = builder.equijoin(random_operand(rng, catalog), "g", "g")
    roll = rng.random()
    if roll < 0.25:
        builder = builder.restrict(attr("k") < rng.randint(0, 130))
    elif roll < 0.45:
        keep = ["k", "g"] if rng.random() < 0.5 else ["g"]
        builder = builder.project(keep, eliminate_duplicates=rng.random() < 0.7)
    elif roll < 0.55 and joins == 0:
        builder = builder.union(random_operand(rng, catalog))
    from repro.query.tree import ScanNode

    if isinstance(builder.node, ScanNode):
        # Machines execute operators, not bare scans; guarantee at least one.
        builder = builder.restrict(attr("k") >= 0)
    tree = builder.tree(name)
    tree.validate(catalog)
    return tree


SEEDS = list(range(25))


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_machine_random_tree(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    state = rng.getstate()
    oracle = execute(random_tree(rng, catalog), catalog)
    rng.setstate(state)
    tree = random_tree(rng, catalog)
    machine = DirectMachine(
        catalog,
        processors=rng.randint(1, 5),
        granularity=rng.choice([scheduler.PAGE, scheduler.RELATION, scheduler.TUPLE]),
        page_bytes=PAGE_BYTES,
        cache_bytes=16 * PAGE_BYTES,
    )
    machine.submit(tree)
    report = machine.run()
    assert report.results[tree.name].same_rows_as(oracle), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_machine_random_tree(seed):
    rng = random.Random(1000 + seed)
    catalog = random_catalog(rng)
    state = rng.getstate()
    oracle = execute(random_tree(rng, catalog), catalog)
    rng.setstate(state)
    tree = random_tree(rng, catalog)
    machine = RingMachineFactory(rng, catalog)
    machine.submit(tree)
    report = machine.run()
    assert report.results[tree.name].same_rows_as(oracle), seed


def RingMachineFactory(rng, catalog):
    from repro.ring.machine import RingMachine

    return RingMachine(
        catalog,
        processors=rng.randint(1, 5),
        controllers=8,
        page_bytes=PAGE_BYTES,
        cache_bytes=24 * PAGE_BYTES,
        ic_memory_pages=rng.choice([2, 8, 32]),
        direct_ip_routing=rng.random() < 0.4,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dataflow_machine_random_tree(seed):
    rng = random.Random(2000 + seed)
    catalog = random_catalog(rng)
    state = rng.getstate()
    oracle = execute(random_tree(rng, catalog), catalog)
    rng.setstate(state)
    tree = random_tree(rng, catalog)
    machine = DataflowMachine(
        catalog,
        processors=rng.randint(1, 5),
        granularity=rng.choice(["relation", "page", "tuple"]),
        page_bytes=PAGE_BYTES,
    )
    machine.submit(tree)
    report = machine.run()
    assert report.results[tree.name].same_rows_as(oracle), seed


# ---------------------------------------------------------------------------
# Event-driven readiness: the touched-cell pump launches exactly what the
# full memory-section scan it replaced did, and DIRECT's live-instruction
# list picks exactly what the list of every compiled instruction did.


class FullScanDataflowMachine(DataflowMachine):
    """The data-flow machine with its old pump: visit every cell in order."""

    def _pump(self) -> None:
        for program in self._programs:
            for cell in program.cells:
                if cell.done:
                    continue
                for unit in cell.ready_firings(self.granularity):
                    self._launch(unit)
                self._check_cell_completion(cell)


def record_launches(machine):
    """Log ``(sim.now, cell position, unit.pages)`` for every launch."""
    log = []
    launch = machine._launch

    def recording(unit):
        log.append((machine.sim.now, unit.cell.position, unit.pages))
        launch(unit)

    machine._launch = recording
    return log


def assert_same_run(case, pump_run, scan_run):
    (pump_log, pump), (scan_log, scan) = pump_run, scan_run
    assert pump_log, case
    assert pump_log == scan_log, case
    assert pump.events_processed == scan.events_processed, case
    assert pump.elapsed_ms == scan.elapsed_ms, case
    assert pump.firings == scan.firings, case
    assert pump.arbitration_bytes == scan.arbitration_bytes, case
    assert pump.query_times == scan.query_times, case
    assert sorted(pump.results) == sorted(scan.results), case
    for name, relation in pump.results.items():
        assert list(relation.rows()) == list(scan.results[name].rows()), (case, name)


def run_batch(machine_class, catalog, trees, processors, granularity):
    machine = machine_class(
        catalog, processors=processors, granularity=granularity, page_bytes=PAGE_BYTES
    )
    log = record_launches(machine)
    for tree in trees:
        machine.submit(tree)
    return log, machine.run()


def three_random_trees(seed):
    rng = random.Random(3000 + seed)
    catalog = random_catalog(rng)
    trees = [random_tree(rng, catalog, f"rand{i}") for i in range(3)]
    return catalog, trees, rng.randint(1, 5)


@pytest.mark.parametrize("granularity", ["page", "tuple", "relation"])
@pytest.mark.parametrize("seed", SEEDS)
def test_touched_pump_matches_full_scan(seed, granularity):
    catalog, trees, processors = three_random_trees(seed)
    assert_same_run(
        seed,
        run_batch(DataflowMachine, catalog, trees, processors, granularity),
        run_batch(FullScanDataflowMachine, catalog, trees, processors, granularity),
    )


@pytest.mark.parametrize("granularity", ["page", "tuple", "relation"])
def test_touched_pump_matches_full_scan_on_empty_intermediate(granularity):
    # A restrict that fires but emits nothing: its consumers get no page,
    # only the slot completion, which alone must wake them.
    catalog = random_catalog(random.Random(7))
    emptied = scan("t1").restrict(attr("k") < 0)
    trees = [
        emptied.project(["g"]).tree("empty_project"),
        scan("t2").equijoin(emptied, "g", "g").tree("empty_inner"),
    ]
    assert_same_run(
        granularity,
        run_batch(DataflowMachine, catalog, trees, 2, granularity),
        run_batch(FullScanDataflowMachine, catalog, trees, 2, granularity),
    )


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_touched_pump_matches_full_scan_when_serving(seed):
    # Mid-run submissions: one from a scheduled arrival, one from the
    # completion hook, which fires inside a pump pass.
    catalog, trees, processors = three_random_trees(seed)

    def service(machine_class):
        machine = machine_class(
            catalog, processors=processors, granularity="page", page_bytes=PAGE_BYTES
        )
        log = record_launches(machine)
        machine.submit(trees[0])
        machine.sim.schedule(0.5, lambda: machine.submit(trees[1]), label="arrive")

        def submit_third(_name, _at, _rows):
            machine.on_query_complete = None
            machine.submit(trees[2])

        machine.on_query_complete = submit_third
        return log, machine.run_service()

    assert_same_run(seed, service(DataflowMachine), service(FullScanDataflowMachine))


@pytest.fixture
def checked_picks(monkeypatch):
    """Check every DIRECT pick against one over every compiled instruction."""
    compiled = []
    compile_node = DirectMachine._compile_node

    def compiling(self, node, tree):
        compiled.append(compile_node(self, node, tree))
        return compiled[-1]

    pick = direct_machine.pick_instruction
    picks = []

    def checking(instructions, metrics=None):
        live = pick(instructions, metrics=metrics)
        assert live is pick(compiled)
        picks.append(live)
        return live

    monkeypatch.setattr(DirectMachine, "_compile_node", compiling)
    monkeypatch.setattr(direct_machine, "pick_instruction", checking)
    return picks


def test_live_instruction_picks_match_full_list_when_serving(checked_picks):
    _module, kwargs = QUICK_CONFIGS["serving"]
    serving.run(**dict(kwargs, machines=("direct",)))
    assert sum(p is not None for p in checked_picks) > 1000


@pytest.mark.parametrize("seed", SEEDS)
def test_live_instruction_picks_match_full_list_random_tree(seed, checked_picks):
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    tree = random_tree(rng, catalog)
    machine = DirectMachine(
        catalog,
        processors=rng.randint(1, 5),
        granularity=rng.choice([scheduler.PAGE, scheduler.RELATION, scheduler.TUPLE]),
        page_bytes=PAGE_BYTES,
        cache_bytes=16 * PAGE_BYTES,
    )
    machine.submit(tree)
    machine.run()
    assert any(p is not None for p in checked_picks), seed


# ---------------------------------------------------------------------------
# DIRECT kernels: each join task's unseen-inner map chooses exactly the
# inner page the old walk of the whole inner page list chose, and the
# cache's victim heap evicts exactly the frame the old scan of every frame
# evicted.


def old_next_unseen_inner(instr, joined, cache):
    """The inner choice as the walk over every inner page made it."""
    fallback = None
    resident = None
    for ref in instr.operands[1].pages:
        if ref.key in joined:
            continue
        if cache is None:
            return ref
        if cache.has_inflight(ref):
            return ref
        if resident is None and cache.is_resident(ref):
            resident = ref
        if fallback is None:
            fallback = ref
    return resident if resident is not None else fallback


def old_pick_victim(cache):
    """The eviction victim as the scan over every frame found it."""
    best = None
    best_rank = None
    for key, frame in cache._frames.items():
        if frame.pins > 0:
            continue
        rank = (frame.protected, frame.last_use)
        if best_rank is None or rank < best_rank:
            best, best_rank = key, rank
    return best


@pytest.fixture
def checked_inner_choices(monkeypatch):
    """Check every inner choice against the old walk; log in-flight picks.

    Joined pages are tracked here, from ``mark_inner_joined`` calls, not
    read back from the task's own map.
    """
    joined = {}  # id(task) -> (task, keys): the task is held, so ids stay unique
    mark = Task.mark_inner_joined
    choose = JoinInstruction.next_unseen_inner
    choices = []

    def marking(task, key):
        joined.setdefault(id(task), (task, set()))[1].add(key)
        mark(task, key)

    def checking(self, task, cache=None):
        keys = joined.get(id(task), (task, set()))[1]
        expected = old_next_unseen_inner(self, keys, cache)
        inflight = expected is not None and cache is not None and cache.has_inflight(expected)
        got = choose(self, task, cache)
        assert got is expected
        choices.append((got, inflight))
        return got

    monkeypatch.setattr(Task, "mark_inner_joined", marking)
    monkeypatch.setattr(JoinInstruction, "next_unseen_inner", checking)
    return choices


@pytest.fixture
def checked_victims(monkeypatch):
    """Check every eviction victim against the old scan over every frame."""
    pick = DiskCache._pick_victim
    victims = []

    def checking(self):
        expected = old_pick_victim(self)
        got = pick(self)
        assert got == expected
        victims.append(got)
        return got

    monkeypatch.setattr(DiskCache, "_pick_victim", checking)
    return victims


def assert_choices_exercised(case, choices, victims):
    assert any(inflight for _, inflight in choices), case
    assert any(victim is not None for victim in victims), case


def join_batch(seed):
    """A catalog larger than DIRECT's smallest cache, and joins over it."""
    rng = random.Random(4000 + seed)
    catalog = Catalog()
    for name in ("t1", "t2", "t3"):
        groups = rng.randint(10, 40)
        catalog.register(
            Relation.from_rows(
                name,
                SCHEMA,
                [(i, rng.randrange(groups)) for i in range(rng.randint(150, 300))],
                page_bytes=PAGE_BYTES,
            )
        )
    outer, inner = rng.sample(catalog.names, 2)
    trees = [
        scan(outer).equijoin(scan(inner), "g", "g").tree("join"),
        random_operand(rng, catalog)
        .equijoin(random_operand(rng, catalog), "g", "g")
        .tree("rand_join"),
        random_tree(rng, catalog, "rand"),
    ]
    return catalog, trees, rng.randint(2, 4)


@pytest.mark.parametrize("granularity", ["page", "tuple", "relation"])
@pytest.mark.parametrize("seed", SEEDS)
def test_inner_choices_and_victims_match_full_scans(
    seed, granularity, checked_inner_choices, checked_victims
):
    catalog, trees, processors = join_batch(seed)
    machine = DirectMachine(
        catalog,
        processors=processors,
        granularity=scheduler.granularity(granularity),
        page_bytes=PAGE_BYTES,
        cache_bytes=0,  # the floor: 3 frames per processor plus 8
    )
    for tree in trees:
        machine.submit(tree)
    machine.run()
    assert_choices_exercised((seed, granularity), checked_inner_choices, checked_victims)


def test_inner_choices_and_victims_match_full_scans_when_serving(
    checked_inner_choices, checked_victims, monkeypatch
):
    init = DirectMachine.__init__

    def smallest_cache(self, *args, **kwargs):
        init(self, *args, **dict(kwargs, cache_bytes=0))

    monkeypatch.setattr(DirectMachine, "__init__", smallest_cache)
    _module, kwargs = QUICK_CONFIGS["serving"]
    serving.run(**dict(kwargs, machines=("direct",)))
    assert_choices_exercised("serving", checked_inner_choices, checked_victims)
