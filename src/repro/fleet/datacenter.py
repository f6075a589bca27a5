"""Multi-tenant datacenter fleet scenario (paper §IV-D at scale).

N protected tenants serve open-loop request traffic over M simulated
cores.  Each tenant owns its private close-to-the-core state (DRC,
TLBs, L1s, branch unit) while all tenants on the node contend in one
genuinely shared L2 + DRAM
(:class:`~repro.arch.sharedmem.SharedMemorySystem`) — RDR-table
refills go through the shared L2 exactly as the paper's design says,
and one tenant's working set evicts another's lines.

The scheduler is a deterministic multi-core generalization of
:class:`~repro.arch.context.TimeSharedCPU`: tenants are statically
assigned to cores round-robin (tenant ``i`` on core ``i % cores``),
each core runs work-conserving round-robin over its runnable tenants
(a tenant is runnable when it has arrived-but-unserved work), and the
global interleaving always steps the core with the smallest
``(clock, index)`` — so the simulation is bit-deterministic in the
:class:`FleetSpec` alone, which is what lets :func:`sweep_fleet` be
bit-identical sequential vs pooled.

Dispatching a *different* tenant on a core charges the context-switch
cost and flushes the incoming tenant's DRC and TLBs (its RDR-table
context was swapped in); re-dispatching the same tenant does not.
Request completions are interpolated inside a quantum by instruction
progress, so per-tenant latency percentiles (p50/p95/p99) are
cycle-resolution, not quantum-resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..arch.config import MachineConfig
from ..arch.cpu import CycleCPU
from ..arch.sharedmem import SharedMemorySystem
from ..ilr.flow import make_flow
from ..ilr.randomizer import RandomizerConfig, randomize
from ..security.race import SERVICE_WORKLOAD, build_service_image
from ..workloads import build_image
from .traffic import ArrivalSpec, arrival_times

__all__ = [
    "FleetSpec",
    "TenantResult",
    "FleetResult",
    "run_fleet",
    "sweep_fleet",
]

MODES = ("baseline", "naive_ilr", "vcfr")


@dataclass(frozen=True)
class FleetSpec:
    """One point of the fleet grid; fully determines the simulation."""

    workload: str = SERVICE_WORKLOAD
    scale: float = 0.3
    mode: str = "vcfr"
    seed: int = 42
    tenants: int = 4
    cores: int = 2
    #: scheduling quantum, in instructions.
    quantum_instructions: int = 2_000
    #: fixed kernel cost charged when a core switches tenants.
    switch_cycles: int = 200
    #: service demand: instructions consumed per request.
    request_instructions: int = 600
    #: per-tenant arrival trace shape (seeded per tenant).
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: per-tenant instruction safety budget; a tenant that exhausts it
    #: stops serving (remaining requests count as unserved).
    max_instructions: int = 400_000

    def label(self) -> str:
        return "%s/%s/%dt%dc/%s" % (
            self.workload, self.mode, self.tenants, self.cores,
            self.arrival.kind,
        )


@dataclass
class TenantResult:
    """Flat, JSON-able per-tenant outcome (bit-identity surface)."""

    tenant: str
    index: int
    core: int
    requests: int
    served: int
    unserved: int
    p50_latency: int
    p95_latency: int
    p99_latency: int
    max_latency: int
    mean_latency: float
    instructions: int
    cycles: int
    ipc: float
    quanta: int
    switches: int
    switch_cycles_total: int
    max_queue_depth: int
    il1_miss_rate: float
    drc_miss_rate: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class FleetResult:
    """Flat, JSON-able outcome of one fleet point."""

    # spec echo
    workload: str
    mode: str
    seed: int
    tenants: int
    cores: int
    quantum_instructions: int
    switch_cycles: int
    request_instructions: int
    arrival_kind: str
    arrival_requests: int
    arrival_mean_gap: int
    max_instructions: int
    # totals
    instructions: int
    cycles: int
    makespan: int
    requests: int
    served: int
    unserved: int
    switches: int
    switch_cycles_total: int
    ipc: float
    #: Jain's fairness index over per-tenant IPC (1.0 = perfectly fair).
    ipc_fairness: float
    # fleet-wide latency (all served requests pooled)
    p50_latency: int
    p95_latency: int
    p99_latency: int
    max_latency: int
    # shared-level contention
    l2_accesses: int
    l2_misses: int
    l2_miss_rate: float
    dram_accesses: int
    # per-part breakdowns
    tenant_results: List[TenantResult] = field(default_factory=list)
    core_stats: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["tenant_results"] = [t.as_dict() for t in self.tenant_results]
        out["core_stats"] = [dict(c) for c in self.core_stats]
        return out

    def by_tenant(self, name: str) -> TenantResult:
        for tenant in self.tenant_results:
            if tenant.tenant == name:
                return tenant
        raise KeyError(name)

    def tenant_points(self) -> List[dict]:
        """One flat row per tenant: spec echo + tenant metrics.

        This is the event/store surface (``tenant_point`` events and
        ``fleet_points`` rows).
        """
        echo = {
            "workload": self.workload,
            "mode": self.mode,
            "seed": self.seed,
            "tenants": self.tenants,
            "cores": self.cores,
            "quantum_instructions": self.quantum_instructions,
            "switch_cycles": self.switch_cycles,
            "request_instructions": self.request_instructions,
            "arrival_kind": self.arrival_kind,
            "arrival_requests": self.arrival_requests,
            "arrival_mean_gap": self.arrival_mean_gap,
            "ipc_fairness": self.ipc_fairness,
            "l2_miss_rate": self.l2_miss_rate,
        }
        points = []
        for tenant in self.tenant_results:
            row = dict(echo)
            row.update(tenant.as_dict())
            points.append(row)
        return points


class _Tenant:
    """Scheduler-side state for one tenant."""

    __slots__ = (
        "name", "index", "core", "cpu", "arrivals", "next_arrival",
        "queue", "pending_work", "latencies", "served", "dead",
        "budget_left", "quanta", "switches", "switch_cycles_total",
        "max_queue_depth",
    )

    def __init__(self, name, index, core, cpu, arrivals, budget):
        self.name = name
        self.index = index
        self.core = core
        self.cpu = cpu
        self.arrivals = arrivals
        self.next_arrival = 0
        #: FIFO of [arrival_cycle, remaining_instructions].
        self.queue = []
        self.pending_work = 0
        self.latencies = []
        self.served = 0
        self.dead = False
        self.budget_left = budget
        self.quanta = 0
        self.switches = 0
        self.switch_cycles_total = 0
        self.max_queue_depth = 0

    def admit(self, clock: int, request_instructions: int) -> None:
        arrivals = self.arrivals
        n = len(arrivals)
        i = self.next_arrival
        while i < n and arrivals[i] <= clock:
            self.queue.append([arrivals[i], 0])
            self.pending_work += request_instructions
            i += 1
        if i != self.next_arrival:
            self.next_arrival = i
            if len(self.queue) > self.max_queue_depth:
                self.max_queue_depth = len(self.queue)

    def runnable(self) -> bool:
        return not self.dead and bool(self.queue)

    def exhausted(self) -> bool:
        """No present or future work (or gave up)."""
        if self.dead:
            return True
        return not self.queue and self.next_arrival >= len(self.arrivals)


class _Core:
    """One simulated core: a clock and its resident tenants."""

    __slots__ = ("index", "clock", "tenants", "rr", "current",
                 "busy_cycles", "idle_cycles", "switches", "finished")

    def __init__(self, index):
        self.index = index
        self.clock = 0
        self.tenants = []
        self.rr = 0
        self.current = None
        self.busy_cycles = 0
        self.idle_cycles = 0
        self.switches = 0
        self.finished = False


def _derived_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7919 + 29) % (1 << 62)


def _build_fleet_image(spec: FleetSpec):
    if spec.workload == SERVICE_WORKLOAD:
        return build_service_image()
    return build_image(spec.workload, spec.scale)


def _image_for(mode: str, program):
    if mode == "baseline":
        return program.original
    if mode == "naive_ilr":
        return program.naive_image
    if mode == "vcfr":
        return program.vcfr_image
    raise ValueError("unknown mode: %r" % (mode,))


def _percentile(sorted_values: List[int], pct: float) -> int:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not sorted_values:
        return 0
    n = len(sorted_values)
    rank = max(1, -(-int(pct * n) // 100))  # ceil(pct/100 * n), >= 1
    return sorted_values[min(rank, n) - 1]


def _jain_fairness(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares)


def _switch_in(tenant: _Tenant, switch_cycles: int) -> None:
    """Charge the incoming tenant for the core handover.

    Mirrors :meth:`TimeSharedCPU._on_switch_in`: the DRC held the
    outgoing tenant's RDR translations and the TLBs its address space;
    both flush.  L1/L2 contents survive (physically tagged), which with
    the shared L2 is exactly the cross-tenant contention under study.
    """
    cpu = tenant.cpu
    cpu.cycle += switch_cycles
    cpu.drc.flush()
    cpu.itlb.flush()
    cpu.dtlb.flush()
    cpu._last_fetch_line = -1
    cpu._last_fetch_page = -1
    tenant.switches += 1
    tenant.switch_cycles_total += switch_cycles


def _step(core: _Core, spec: FleetSpec) -> None:
    """Advance one core by one scheduling decision."""
    for tenant in core.tenants:
        tenant.admit(core.clock, spec.request_instructions)

    # Work-conserving round-robin over runnable residents.
    n = len(core.tenants)
    chosen = None
    for offset in range(n):
        tenant = core.tenants[(core.rr + offset) % n]
        if tenant.runnable():
            chosen = tenant
            core.rr = (core.rr + offset + 1) % n
            break

    if chosen is None:
        # Idle: jump to the next arrival on this core, or finish.
        upcoming = [
            t.arrivals[t.next_arrival]
            for t in core.tenants
            if not t.dead and t.next_arrival < len(t.arrivals)
        ]
        if not upcoming:
            core.finished = True
            return
        target = min(upcoming)
        core.idle_cycles += target - core.clock
        core.clock = target
        return

    if core.current is not chosen:
        _switch_in(chosen, spec.switch_cycles)
        core.clock += spec.switch_cycles
        core.switches += 1
        core.current = chosen

    cpu = chosen.cpu
    slice_size = min(
        spec.quantum_instructions, chosen.pending_work, chosen.budget_left
    )
    cycle0 = cpu.cycle
    icount0 = cpu.state.icount
    finished = cpu.run_slice(slice_size)
    executed = cpu.state.icount - icount0
    delta_cycles = cpu.cycle - cycle0
    chosen.budget_left -= executed
    chosen.quanta += 1
    core.busy_cycles += delta_cycles

    # Attribute completions inside the quantum by instruction progress.
    base_clock = core.clock
    available = executed
    consumed = 0
    while chosen.queue and available > 0:
        request = chosen.queue[0]
        take = min(spec.request_instructions - request[1], available)
        request[1] += take
        available -= take
        consumed += take
        if request[1] >= spec.request_instructions:
            completion = base_clock + delta_cycles * consumed // executed
            chosen.latencies.append(completion - request[0])
            chosen.served += 1
            chosen.queue.pop(0)
    chosen.pending_work -= consumed
    core.clock += delta_cycles

    if finished or chosen.budget_left <= 0 or executed == 0:
        chosen.dead = True


def run_fleet(spec: FleetSpec, config: Optional[MachineConfig] = None) -> FleetResult:
    """Run one fleet point; deterministic in ``spec`` alone."""
    if spec.tenants < 1 or spec.cores < 1:
        raise ValueError("need at least one tenant and one core")
    if spec.request_instructions < 1:
        raise ValueError("request_instructions must be positive")

    image = _build_fleet_image(spec)
    shared = SharedMemorySystem(config)

    tenants: List[_Tenant] = []
    for index in range(spec.tenants):
        program = randomize(
            image, RandomizerConfig(seed=spec.seed + 101 * index)
        )
        flow = make_flow(spec.mode, program)
        cpu = CycleCPU(
            _image_for(spec.mode, program),
            flow,
            config,
            memory=shared.port(index),
        )
        arrivals = arrival_times(
            spec.arrival, _derived_seed(spec.seed, index)
        )
        tenant = _Tenant(
            name="t%d" % index,
            index=index,
            core=index % spec.cores,
            cpu=cpu,
            arrivals=arrivals,
            budget=spec.max_instructions,
        )
        tenants.append(tenant)

    # Prime every CPU before any executes: the first run_slice resets
    # stats objects, and with a shared L2 + DRAM a late first slice
    # would wipe counters other tenants already accumulated.
    for tenant in tenants:
        tenant.cpu.run_slice(0)
    shared.reset_stats()

    cores = [_Core(i) for i in range(spec.cores)]
    for tenant in tenants:
        cores[tenant.core].tenants.append(tenant)
    for core in cores:
        if not core.tenants:
            core.finished = True

    while True:
        active = [c for c in cores if not c.finished]
        if not active:
            break
        core = min(active, key=lambda c: (c.clock, c.index))
        _step(core, spec)
        if all(t.exhausted() for t in core.tenants):
            core.finished = True

    tenant_results = []
    all_latencies: List[int] = []
    for tenant in tenants:
        latencies = sorted(tenant.latencies)
        all_latencies.extend(latencies)
        cpu = tenant.cpu
        il1 = cpu.il1.stats
        drc = cpu.drc.stats
        instructions = cpu.state.icount
        cycles = cpu.cycle
        tenant_results.append(TenantResult(
            tenant=tenant.name,
            index=tenant.index,
            core=tenant.core,
            requests=len(tenant.arrivals),
            served=tenant.served,
            unserved=len(tenant.arrivals) - tenant.served,
            p50_latency=_percentile(latencies, 50),
            p95_latency=_percentile(latencies, 95),
            p99_latency=_percentile(latencies, 99),
            max_latency=latencies[-1] if latencies else 0,
            mean_latency=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            instructions=instructions,
            cycles=cycles,
            ipc=(instructions / cycles) if cycles else 0.0,
            quanta=tenant.quanta,
            switches=tenant.switches,
            switch_cycles_total=tenant.switch_cycles_total,
            max_queue_depth=tenant.max_queue_depth,
            il1_miss_rate=(
                il1.misses / il1.accesses if il1.accesses else 0.0
            ),
            drc_miss_rate=(
                drc.misses / drc.lookups if drc.lookups else 0.0
            ),
        ))

    all_latencies.sort()
    instructions = sum(t.instructions for t in tenant_results)
    cycles = sum(t.cycles for t in tenant_results)
    l2 = shared.l2.stats
    return FleetResult(
        workload=spec.workload,
        mode=spec.mode,
        seed=spec.seed,
        tenants=spec.tenants,
        cores=spec.cores,
        quantum_instructions=spec.quantum_instructions,
        switch_cycles=spec.switch_cycles,
        request_instructions=spec.request_instructions,
        arrival_kind=spec.arrival.kind,
        arrival_requests=spec.arrival.requests,
        arrival_mean_gap=spec.arrival.mean_gap,
        max_instructions=spec.max_instructions,
        instructions=instructions,
        cycles=cycles,
        makespan=max(core.clock for core in cores),
        requests=sum(t.requests for t in tenant_results),
        served=sum(t.served for t in tenant_results),
        unserved=sum(t.unserved for t in tenant_results),
        switches=sum(t.switches for t in tenant_results),
        switch_cycles_total=sum(
            t.switch_cycles_total for t in tenant_results
        ),
        ipc=(instructions / cycles) if cycles else 0.0,
        ipc_fairness=_jain_fairness([t.ipc for t in tenant_results]),
        p50_latency=_percentile(all_latencies, 50),
        p95_latency=_percentile(all_latencies, 95),
        p99_latency=_percentile(all_latencies, 99),
        max_latency=all_latencies[-1] if all_latencies else 0,
        l2_accesses=l2.accesses,
        l2_misses=l2.misses,
        l2_miss_rate=(l2.misses / l2.accesses if l2.accesses else 0.0),
        dram_accesses=shared.dram.stats.accesses,
        tenant_results=tenant_results,
        core_stats=[
            {
                "core": core.index,
                "clock": core.clock,
                "busy_cycles": core.busy_cycles,
                "idle_cycles": core.idle_cycles,
                "switches": core.switches,
                "tenants": len(core.tenants),
            }
            for core in cores
        ],
    )


def _fleet_point(spec: FleetSpec,
                 config: Optional[MachineConfig]) -> FleetResult:
    return run_fleet(spec, config=config)


def sweep_fleet(specs: Iterable[FleetSpec], workers: int = 0, events=None,
                store=None,
                config: Optional[MachineConfig] = None) -> List[FleetResult]:
    """Run a grid of fleet points, optionally across a process pool.

    Every point runs on the machine model ``config`` (None = default).

    Results come back in input order and are bit-identical between the
    sequential and pooled paths (workers compute, the parent records:
    all event emission and store writes happen here, after collection).
    """
    specs = list(specs)
    if events is not None:
        events.emit("fleet_start", points=len(specs))
    if workers and workers >= 2 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fleet_point, specs,
                                    [config] * len(specs), chunksize=1))
    else:
        results = [run_fleet(spec, config=config) for spec in specs]
    for result in results:
        for point in result.tenant_points():
            if events is not None:
                events.emit("tenant_point", **point)
            if store is not None:
                store.record_fleet_point(point)
    if events is not None:
        events.emit("fleet_end", points=len(results))
    return results
