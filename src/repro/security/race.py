"""The attack/defense race: rotation service vs JIT-ROP adversary.

One race = one or many VCFR tenants time-sharing a core
(:class:`~repro.arch.context.TimeSharedCPU`), a
:class:`~repro.security.rotation.RotationService` rotating them on
policy, and a :class:`~repro.security.adversary.JITROPAdversary` per
tenant harvesting table mappings from simulated disclosures between
rotations.  The output is the paper-missing measurement: how long the
attacker's harvest stays *usable* (the gadget-availability window)
against what the defense paid for it (rotation cycles and flushed
simulator structures).

Everything is seed-deterministic: :func:`sweep_race` produces
bit-identical :class:`RaceResult` rows whether the points run
sequentially or across a process pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..arch.config import MachineConfig
from ..arch.context import TimeSharedCPU
from ..ilr.flow import make_flow
from ..ilr.randomizer import RandomizerConfig, randomize
from ..isa import assemble
from ..workloads import build_image
from .adversary import AdversarySpec, JITROPAdversary
from .rotation import RotationPolicy, RotationService, RotationStats

__all__ = [
    "RaceSpec",
    "RaceResult",
    "run_race",
    "sweep_race",
    "build_service_image",
    "SERVICE_WORKLOAD",
]

#: Synthetic long-running network service: the vulnerable-service
#: gadget material (so a shell payload is expressible) behind a
#: request-serving loop that never exhausts its own budget — the
#: race workload where payload assembly, not just gadget counting,
#: is the attacker's goal.
SERVICE_WORKLOAD = "service"

_SERVICE_SOURCE = """
; Long-running request server with the classic library-ish gadget
; material (syscall wrapper + register-restore epilogues).
.code 0x400000
main:
    movi ebp, 0
.serve:
    call handle_request
    movi eax, 5
    movi ebx, 0x600D600D     ; request handled
    int 0x80
    add ebp, 1
    cmp ebp, 100000000
    jl .serve
    movi eax, 1
    movi ebx, 0
    int 0x80

; Copies input_len bytes of request input into a 32-byte stack buffer.
handle_request:
    push ebp
    mov ebp, esp
    sub esp, 32
    movi esi, input_len
    mov ecx, [esi+0]
    movi esi, input_buf
    mov edi, esp
    movi edx, 0
.copy:
    cmp edx, ecx
    jge .done
    mov eax, [esi+0]
    mov [edi+0], eax
    add esi, 4
    add edi, 4
    add edx, 4
    jmp .copy
.done:
    mov esp, ebp
    pop ebp
    ret

do_syscall:
    int 0x80
    ret
restore_eax:
    pop eax
    ret
restore_regs:
    pop eax
    pop ebx
    ret

.data 0x8000000
input_len:
    .word 16
input_buf:
    .space 64
"""


@dataclass(frozen=True)
class RaceSpec:
    """One point of the rotation-policy x disclosure-rate grid."""

    workload: str = SERVICE_WORKLOAD
    scale: float = 0.3
    seed: int = 42
    tenants: int = 1
    policy: RotationPolicy = field(default_factory=RotationPolicy)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    #: scheduling quantum = the race's sampling window.
    window_instructions: int = 2_000
    #: per-tenant instruction budget.
    max_instructions: int = 60_000

    def label(self) -> str:
        return "%s/%s/disc%.2f" % (
            self.workload, self.policy.label(), self.adversary.disclosure_rate,
        )


@dataclass
class RaceResult:
    """Flat, JSON-able outcome of one race (bit-identity surface)."""

    # spec echo
    workload: str
    seed: int
    tenants: int
    policy: str
    disclosure_rate: float
    probe_rate: float
    adversary_enabled: bool
    window_instructions: int
    max_instructions: int
    # execution
    instructions: int
    cycles: int
    ipc: float
    total_windows: int
    # defense cost
    rotations: int
    rotation_cycles: int
    drc_flushes: int
    block_invalidations: int
    trace_invalidations: int
    max_stale_overlap: float
    # attacker progress
    payload_possible: bool
    disclosures: int
    mappings_leaked: int
    probes_sent: int
    probe_crashes: int
    harvests_invalidated: int
    gadgets_lost_to_rotation: int
    # the headline: gadget-availability window
    exposed_windows: int
    exposed_instructions: int
    exposure_fraction: float
    max_exposure_streak: int
    first_goal_icount: Optional[int]

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _TenantRace:
    """Per-tenant attacker-side bookkeeping for one race."""

    __slots__ = ("adversary", "windows", "exposed_windows",
                 "exposed_instructions", "streak", "max_streak",
                 "first_goal_icount")

    def __init__(self, adversary: JITROPAdversary):
        self.adversary = adversary
        self.windows = 0
        self.exposed_windows = 0
        self.exposed_instructions = 0
        self.streak = 0
        self.max_streak = 0
        self.first_goal_icount: Optional[int] = None


def build_service_image():
    """Assemble the synthetic long-running request-server workload.

    Shared with :mod:`repro.fleet`, whose tenants serve traffic off the
    same image the race harness probes.
    """
    return assemble(_SERVICE_SOURCE)


def _build_race_image(spec: RaceSpec):
    if spec.workload == SERVICE_WORKLOAD:
        return build_service_image()
    return build_image(spec.workload, spec.scale)


def run_race(spec: RaceSpec, events=None, tracer=None,
             config: Optional[MachineConfig] = None) -> RaceResult:
    """Run one race point; deterministic in ``spec`` alone."""
    image = _build_race_image(spec)
    programs = []
    flows = []
    for idx in range(spec.tenants):
        program = randomize(
            image, RandomizerConfig(seed=spec.seed + 101 * idx)
        )
        programs.append(program)
        flows.append(make_flow("vcfr", program))

    service = RotationService(spec.policy, events=events, tracer=tracer)
    tenants = {}
    for idx, program in enumerate(programs):
        name = "t%d" % idx
        rng = random.Random(
            (spec.seed * 1_000_003 + idx * 7919 + 17) % (1 << 62)
        )
        tenants[name] = _TenantRace(
            JITROPAdversary(program, spec.adversary, rng)
        )

    def on_quantum(name, cpu, executed, finished):
        race = tenants[name]
        adversary = race.adversary
        crashes = adversary.observe(service.current_program(name))
        if crashes:
            service.note_probe_crashes(name, crashes)
        race.windows += 1
        if adversary.goal_met():
            race.exposed_windows += 1
            race.exposed_instructions += executed
            race.streak += executed
            race.max_streak = max(race.max_streak, race.streak)
            if race.first_goal_icount is None:
                race.first_goal_icount = cpu.state.icount
        else:
            race.streak = 0
        if service.poll(name):
            # The rotation retired the tables the harvest was built on:
            # the availability window closes here.
            adversary.invalidate()
            race.streak = 0

    shared = TimeSharedCPU(
        [
            ("t%d" % idx, program.vcfr_image, flows[idx])
            for idx, program in enumerate(programs)
        ],
        config=config,
        quantum_instructions=spec.window_instructions,
        on_quantum=on_quantum,
        self_switch=False,
    )
    for (name, cpu), program in zip(shared.cpus, programs):
        service.register(name, cpu, program)
    shared.run(max_instructions_per_process=spec.max_instructions)

    instructions = sum(cpu.state.icount for _name, cpu in shared.cpus)
    # cpu.cycle already includes the per-switch charge from
    # TimeSharedCPU._on_switch_in; do not add switch_stats on top.
    cycles = sum(cpu.cycle for _name, cpu in shared.cpus)

    rotation = RotationStats()
    for name in tenants:
        stats = service.stats(name)
        rotation.rotations += stats.rotations
        rotation.rotation_cycles += stats.rotation_cycles
        rotation.drc_flushes += stats.drc_flushes
        rotation.block_invalidations += stats.block_invalidations
        rotation.trace_invalidations += stats.trace_invalidations
        rotation.max_stale_overlap = max(
            rotation.max_stale_overlap, stats.max_stale_overlap
        )

    total_windows = sum(race.windows for race in tenants.values())
    exposed_windows = sum(race.exposed_windows for race in tenants.values())
    exposed_instructions = sum(
        race.exposed_instructions for race in tenants.values()
    )
    firsts = [
        race.first_goal_icount
        for race in tenants.values()
        if race.first_goal_icount is not None
    ]
    report_totals = {}
    for key in ("disclosures", "mappings_leaked", "probes_sent",
                "probe_crashes", "harvests_invalidated",
                "gadgets_lost_to_rotation"):
        report_totals[key] = sum(
            getattr(race.adversary.report, key) for race in tenants.values()
        )

    return RaceResult(
        workload=spec.workload,
        seed=spec.seed,
        tenants=spec.tenants,
        policy=spec.policy.label(),
        disclosure_rate=spec.adversary.disclosure_rate,
        probe_rate=spec.adversary.probe_rate,
        adversary_enabled=spec.adversary.enabled,
        window_instructions=spec.window_instructions,
        max_instructions=spec.max_instructions,
        instructions=instructions,
        cycles=cycles,
        ipc=(instructions / cycles) if cycles else 0.0,
        total_windows=total_windows,
        rotations=rotation.rotations,
        rotation_cycles=rotation.rotation_cycles,
        drc_flushes=rotation.drc_flushes,
        block_invalidations=rotation.block_invalidations,
        trace_invalidations=rotation.trace_invalidations,
        max_stale_overlap=rotation.max_stale_overlap,
        payload_possible=any(
            race.adversary.payload_possible for race in tenants.values()
        ),
        disclosures=report_totals["disclosures"],
        mappings_leaked=report_totals["mappings_leaked"],
        probes_sent=report_totals["probes_sent"],
        probe_crashes=report_totals["probe_crashes"],
        harvests_invalidated=report_totals["harvests_invalidated"],
        gadgets_lost_to_rotation=report_totals["gadgets_lost_to_rotation"],
        exposed_windows=exposed_windows,
        exposed_instructions=exposed_instructions,
        exposure_fraction=(
            exposed_instructions / instructions if instructions else 0.0
        ),
        max_exposure_streak=max(
            (race.max_streak for race in tenants.values()), default=0
        ),
        first_goal_icount=min(firsts) if firsts else None,
    )


def _race_point(spec: RaceSpec,
                config: Optional[MachineConfig]) -> RaceResult:
    return run_race(spec, config=config)


def sweep_race(specs: Iterable[RaceSpec], workers: int = 0, events=None,
               store=None,
               config: Optional[MachineConfig] = None) -> List[RaceResult]:
    """Run a grid of race points, optionally across a process pool.

    Every point runs on the machine model ``config`` (None = default).

    Results come back in input order and are bit-identical between the
    sequential and pooled paths (workers compute, the parent records:
    all event emission and store writes happen here, after collection).
    """
    specs = list(specs)
    if events is not None:
        events.emit("race_start", points=len(specs))
    if workers and workers >= 2 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_race_point, specs,
                                    [config] * len(specs), chunksize=1))
    else:
        results = [run_race(spec, config=config) for spec in specs]
    for result in results:
        if events is not None:
            events.emit("race_point", **result.as_dict())
        if store is not None:
            store.record_race_point(result.as_dict())
    if events is not None:
        events.emit("race_end", points=len(results))
    return results
