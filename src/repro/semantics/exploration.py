"""Exhaustive behavior-set computation for both machines.

The paper defines a program's behaviors as its set of observable event
traces ``B ::= ε | done | abort | out(v)::B`` and all of its theorems are
(in)equalities between such sets — refinement ``P ⊆ P'`` is trace-set
inclusion, Thm. 4.1 is trace-set equality.  For finite-state programs the
sets are computable exactly:

1. **Graph construction** — BFS over reachable machine states (memoized on
   the hashable states), recording edges labeled silent / ``out(v)`` and
   marking terminal (all-done) states.
2. **Trace fixpoint** — the trace set of each state is the least solution
   of ``T(s) ⊇ {ε} ∪ {done | s terminal} ∪ {t | s →τ s', t ∈ T(s')} ∪
   {v::t | s →out(v) s', t ∈ T(s')}``, computed by a worklist iteration.
   Traces are capped at ``config.max_outputs`` output events, which makes
   the fixpoint finite even for programs with productive cycles.

Every trace set is prefix-closed by construction (``ε`` seeds every state),
matching "traces generated by the execution": every finite prefix of every
execution is observable.

**Resource governance.**  When ``config.budget`` carries a
:class:`repro.robust.budget.Budget`, both phases meter against it with
cooperative cancellation: the BFS checks the budget between state
expansions (each expansion is atomic, so an interrupted build always
leaves a consistent, resumable frontier), and the fixpoint checks it
between worklist iterations.  A tripped budget never raises out of
:meth:`Explorer.behaviors` — the partial :class:`BehaviorSet` is returned
with ``exhaustive=False`` and ``stop_reason`` naming the resource.  The
module-level :func:`behaviors`/:func:`np_behaviors` re-raise as
:class:`ExplorationBoundExceeded` (carrying the partial set) only when
``raise_on_bound=True``.  :meth:`Explorer.snapshot` /
:meth:`Explorer.resume` round-trip an interrupted build through
:mod:`repro.robust.checkpoint`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lang.syntax import Program
from repro.robust.budget import BudgetExhausted, BudgetMeter
from repro.robust.checkpoint import (
    CheckpointError,
    ExplorationCheckpoint,
    program_digest,
    save_checkpoint,
)
from repro.semantics.certification import CertificationStats
# Imported with the module, not inside ``build``: where no bytecode cache
# is written, compiling dpor there stacks the compiler's transient on the
# live heap of the first exploration and raises the peak RSS.
from repro.semantics.dpor import dpor_build
from repro.semantics.events import EVENT_DONE, OutputEvent, Trace
from repro.semantics.machine import initial_machine_state, machine_steps
from repro.semantics.nonpreemptive import initial_np_state, np_machine_steps
from repro.semantics import version
from repro.semantics.thread import SemanticsConfig

#: The share of what is left of a pinned deadline that
#: :meth:`Explorer.behaviors` holds back from its build for the trace
#: salvage of a truncated graph, so the salvage fits inside the same clock:
#: an allowance of a quarter of the build's time.  Over 138 truncated
#: builds of the benchmark inputs (dpor, cut at 25/50/75% of their full
#: build) the salvage took 2.6% of its build in the median and 14% at
#: most.  A salvage cut short only loses traces: the result stays a
#: bounded under-approximation.
SALVAGE_RESERVE = 0.2


@dataclass(frozen=True)
class BehaviorSet:
    """The observable behaviors of a program.

    ``traces`` is prefix-closed; complete executions end with the
    ``"done"`` marker.  ``exhaustive`` is True iff no exploration bound was
    hit — only then do refinement verdicts carry their full meaning.
    ``stop_reason`` names what cut a non-exhaustive exploration short:
    ``"states"`` (cap), ``"deadline"``, ``"memory"``, ``"certification"``
    (the certification search budget), or ``"sampled"`` for sets built by
    the degradation ladder's sampling rung.  ``dropped_edges`` counts the
    successor edges the ``max_states`` cap discarded — it quantifies *how
    badly* a ``stop_reason="states"`` truncation cut the graph, not just
    that it did.
    """

    traces: FrozenSet[Trace]
    exhaustive: bool
    state_count: int
    stop_reason: Optional[str] = None
    dropped_edges: int = 0

    def terminal_traces(self) -> FrozenSet[Trace]:
        """Only the complete (``done``-ending) traces."""
        return frozenset(t for t in self.traces if t and t[-1] == EVENT_DONE)

    def outputs(self) -> FrozenSet[Tuple[int, ...]]:
        """Output sequences of complete executions, markers stripped."""
        return frozenset(
            tuple(int(v) for v in t[:-1]) for t in self.terminal_traces()
        )

    def refines(self, source: "BehaviorSet") -> bool:
        """Event-trace refinement ``self ⊆ source``."""
        return self.traces <= source.traces

    def __le__(self, source: "BehaviorSet") -> bool:
        return self.refines(source)

    def __str__(self) -> str:
        if self.exhaustive:
            kind = "exhaustive"
        else:
            kind = "TRUNCATED" + (f":{self.stop_reason}" if self.stop_reason else "")
            if self.dropped_edges:
                kind += f", {self.dropped_edges} edges dropped"
        return f"BehaviorSet({len(self.traces)} traces, {self.state_count} states, {kind})"


class ExplorationBoundExceeded(BudgetExhausted):
    """Raised by ``behaviors(raise_on_bound=True)`` when a bound is hit.

    ``partial`` carries the truncated :class:`BehaviorSet` so even
    raising callers keep the partial work.
    """


@dataclass
class Explorer:
    """Exhaustive explorer for either machine.

    ``nonpreemptive`` selects the Fig. 10 machine.  The explorer owns the
    certification cache shared by every machine step it expands, and keeps
    the reachable-state graph available for clients that inspect states
    directly (the race scans iterate ``states``).
    """

    program: Program
    config: SemanticsConfig = field(default_factory=SemanticsConfig)
    nonpreemptive: bool = False

    def __post_init__(self) -> None:
        self.cert_cache: Dict = {}
        self.cert_stats = CertificationStats()
        # DPOR bookkeeping (repro.semantics.dpor): live DFS state while
        # a reduced build is in progress (checkpointable),
        # stats for `explore --stats`, and a resume payload installed by
        # Explorer.resume.
        self.dpor_stats = None
        self._dpor_state = None
        self._dpor_resume = None
        #: Why a requested ``por="dpor"`` was not (fully) applied — None
        #: when DPOR runs, else a structured reason ("nonpreemptive",
        #: "gap-leaving-writes") surfaced by ``explore --stats`` and the
        #: serve daemon's downgrade counters.
        self.por_downgrade: Optional[str] = None
        self._use_dpor = self.config.por == "dpor"
        if self._use_dpor and self.nonpreemptive:
            # The non-preemptive machine has its own interleaving
            # discipline (the switch bit); DPOR models the preemptive
            # machine's switches.
            self._use_dpor = False
            self.por_downgrade = "nonpreemptive"
        if self._use_dpor and self.config.gap_leaving_writes:
            # Gap-leaving placements interact with cross-location timestamp
            # renormalization, which breaks state-level commutation of
            # otherwise-independent steps.  Downgrade to the plain BFS
            # (promise and reservation configs run under DPOR proper —
            # their dependence is certification-scoped, see
            # repro.semantics.dpor).
            self._use_dpor = False
            self.por_downgrade = "gap-leaving-writes"
        # The static certification pre-check (repro.static.certcheck): one
        # linear-time fulfill map per program, consulted before every
        # certification search.  Pointless without promises; imported
        # lazily to keep the semantics core import-independent of the
        # static-analysis layer.
        self.cert_precheck = None
        if self.config.certification_precheck and self.config.promise_budget > 0:
            from repro.static.certcheck import build_fulfill_map

            self.cert_precheck = build_fulfill_map(self.program)
        self.states: List = []
        self._index: Dict = {}
        self.edges: List[List[Tuple[Optional[int], int]]] = []
        self.terminal: List[bool] = []
        self.exhaustive = True
        self.stop_reason: Optional[str] = None
        self.dropped_edges = 0
        self._frontier: Deque[int] = deque()
        self._started = False
        self._built = False

    # -- machine plumbing ----------------------------------------------------

    def _initial(self):
        if self.nonpreemptive:
            return initial_np_state(self.program, self.config)
        return initial_machine_state(self.program, self.config)

    def _steps(self, state):
        if self.nonpreemptive:
            return np_machine_steps(
                self.program,
                state,
                self.config,
                self.cert_cache,
                self.cert_stats,
                self.cert_precheck,
            )
        return machine_steps(
            self.program,
            state,
            self.config,
            self.cert_cache,
            self.cert_stats,
            self.cert_precheck,
        )

    # -- graph construction ----------------------------------------------------

    def build(
        self,
        meter: Optional[BudgetMeter] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: int = 100_000,
    ) -> "Explorer":
        """BFS the reachable state graph (idempotent).

        A budget trip (from ``meter`` or ``config.budget``) stops the BFS
        *between* state expansions: the partial graph stays consistent,
        ``exhaustive`` flips to False with ``stop_reason`` set, and the
        unexpanded frontier is preserved for :meth:`snapshot`/resume.
        ``checkpoint_path`` additionally persists a checkpoint every
        ``checkpoint_interval`` newly interned states and once more on a
        budget trip.
        """
        if self._built:
            return self
        if not self._started:
            initial = self._initial()
            self._index[initial] = 0
            self.states.append(initial)
            self.edges.append([])
            self.terminal.append(initial.all_done)
            self._frontier.append(0)
            self._started = True
        own_meter = meter is None and self.config.budget is not None
        if own_meter:
            meter = self.config.budget.start()
        if self._use_dpor:
            try:
                dpor_build(self, meter, checkpoint_path, checkpoint_interval)
            finally:
                if own_meter and meter is not None:
                    meter.close()
            if self.cert_stats.budget_exhausted:
                self.exhaustive = False
                self.stop_reason = self.stop_reason or "certification"
            if checkpoint_path and self._dpor_state is not None:
                save_checkpoint(self.snapshot(), checkpoint_path)
            # Built even after a trip, as the BFS below: the live DFS
            # state stays in ``_dpor_state`` for snapshot(), and
            # continuing it is Explorer.resume's job.
            self._built = True
            return self
        next_checkpoint = len(self.states) + checkpoint_interval
        try:
            while self._frontier:
                if meter is not None:
                    try:
                        meter.tick(
                            len(self.states),
                            sample=self.states[-1] if self.states else None,
                        )
                    except BudgetExhausted as exc:
                        self.exhaustive = False
                        self.stop_reason = exc.reason
                        break
                idx = self._frontier.popleft()
                state = self.states[idx]
                for event, succ in self._steps(state):
                    succ_idx = self._index.get(succ)
                    if succ_idx is None:
                        if len(self.states) >= self.config.max_states:
                            self.exhaustive = False
                            self.stop_reason = self.stop_reason or "states"
                            self.dropped_edges += 1
                            continue
                        succ_idx = len(self.states)
                        self._index[succ] = succ_idx
                        self.states.append(succ)
                        self.edges.append([])
                        self.terminal.append(succ.all_done)
                        self._frontier.append(succ_idx)
                    label = int(event.value) if isinstance(event, OutputEvent) else None
                    self.edges[idx].append((label, succ_idx))
                if checkpoint_path and len(self.states) >= next_checkpoint:
                    save_checkpoint(self.snapshot(), checkpoint_path)
                    next_checkpoint = len(self.states) + checkpoint_interval
        finally:
            if own_meter and meter is not None:
                meter.close()
        if self.cert_stats.budget_exhausted:
            self.exhaustive = False
            self.stop_reason = self.stop_reason or "certification"
        if checkpoint_path and self._frontier:
            save_checkpoint(self.snapshot(), checkpoint_path)
        self._built = True
        return self

    # -- checkpoint / resume ---------------------------------------------------

    def snapshot(self) -> ExplorationCheckpoint:
        """Capture the current (possibly partial) build for later resume."""
        if not self._started:
            initial = self._initial()
            self._index[initial] = 0
            self.states.append(initial)
            self.edges.append([])
            self.terminal.append(initial.all_done)
            self._frontier.append(0)
            self._started = True
        return ExplorationCheckpoint(
            program_digest=program_digest(self.program, self.nonpreemptive),
            nonpreemptive=self.nonpreemptive,
            states=tuple(self.states),
            edges=tuple(tuple(edge) for edge in self.edges),
            terminal=tuple(self.terminal),
            frontier=tuple(self._frontier),
            exhaustive=self.exhaustive,
            stop_reason=self.stop_reason,
            dropped=bool(self.dropped_edges),
            dropped_edges=self.dropped_edges,
            dpor=self._dpor_state,
            semantics_version=version.SEMANTICS_VERSION,
        )

    @classmethod
    def resume(
        cls,
        checkpoint: ExplorationCheckpoint,
        program: Program,
        config: Optional[SemanticsConfig] = None,
    ) -> "Explorer":
        """Reconstruct an explorer from ``checkpoint`` for ``program``.

        The checkpoint must have been taken from the same program text and
        machine flavor (verified by digest), by code of the same
        semantics version; otherwise
        :class:`~repro.robust.checkpoint.CheckpointError` is raised.  The
        returned explorer continues from the saved frontier on its next
        :meth:`build` call, under the (possibly new) ``config`` budget.
        """
        expected = program_digest(program, checkpoint.nonpreemptive)
        if checkpoint.program_digest != expected:
            raise CheckpointError(
                "checkpoint was taken from a different program/machine "
                f"(digest {checkpoint.program_digest[:12]}… != {expected[:12]}…)"
            )
        current = version.SEMANTICS_VERSION
        if checkpoint.semantics_version != current:
            raise CheckpointError(
                "checkpoint was taken under semantics version "
                f"{checkpoint.semantics_version or '<unrecorded>'!r}, not {current!r}"
            )
        explorer = cls(
            program, config or SemanticsConfig(), nonpreemptive=checkpoint.nonpreemptive
        )
        explorer.states = list(checkpoint.states)
        explorer._index = {state: i for i, state in enumerate(checkpoint.states)}
        explorer.edges = [list(edge) for edge in checkpoint.edges]
        explorer.terminal = list(checkpoint.terminal)
        explorer._frontier = deque(checkpoint.frontier)
        explorer._started = True
        # DPOR checkpoints additionally carry the DFS stack, the visited
        # states and the stats.
        explorer._dpor_resume = checkpoint.dpor
        # A resumed build gets a fresh chance to finish: the saved
        # truncation verdict is forgotten unless the max_states cap
        # permanently dropped successors (those are unrecoverable).
        if checkpoint.dropped:
            explorer.exhaustive = False
            explorer.stop_reason = "states"
            explorer.dropped_edges = max(1, checkpoint.dropped_edges)
        return explorer

    # -- trace fixpoint ----------------------------------------------------------

    def behaviors(self) -> BehaviorSet:
        """Compute the behavior set of the initial state.

        Budget-aware: the fixpoint meters against ``config.budget`` and,
        if the budget trips mid-iteration, returns the traces accumulated
        so far with ``exhaustive=False`` (an under-approximation — the
        worklist only ever *adds* traces).  Salvaging the traces of a
        tripped build's partial graph is the point of cooperative
        cancellation, so the fixpoint does not inherit the build's spent
        meter.  A pinned budget is one clock: the build holds back
        :data:`SALVAGE_RESERVE` of what is left of it, and the salvage
        meters against the rest.  An unpinned budget gives a tripped
        build's salvage a fresh meter with its own allowance, so the
        salvage costs at most one more deadline, never unbounded.

        The worklist starts in depth-first postorder, successors before
        predecessors: a state's traces are complete before they flow to
        its predecessors, so an acyclic graph (every graph of the
        benchmark inputs) is swept once, each state visited once.
        """
        budget = self.config.budget
        pinned = budget is not None and budget.started_at is not None
        meter = budget.share(1 - SALVAGE_RESERVE).start() if budget else None
        try:
            try:
                self.build(meter=meter)
            except BudgetExhausted as exc:  # defensive: build() contains trips
                self.exhaustive = False
                self.stop_reason = exc.reason
            if meter is not None and (pinned or meter.exhausted_reason is not None):
                meter.close()
                meter = budget.start()
            n = len(self.states)
            empty: Trace = ()
            traces: List[Set[Trace]] = [set() for _ in range(n)]
            for idx in range(n):
                traces[idx].add(empty)
                if self.terminal[idx]:
                    traces[idx].add((EVENT_DONE,))

            preds: List[List[Tuple[Optional[int], int]]] = [[] for _ in range(n)]
            for idx in range(n):
                for label, succ in self.edges[idx]:
                    preds[succ].append((label, idx))

            max_out = self.config.max_outputs
            exhausted = None
            # Every state queued, successors first: popped from the end.
            work = _postorder(self.edges)
            work.reverse()
            queued = bytearray(b"\x01") * n
            while work:
                if meter is not None:
                    try:
                        # The fixpoint adds no states: no state-cap check.
                        meter.tick()
                    except BudgetExhausted as exc:
                        exhausted = exc.reason
                        break
                succ = work.pop()
                queued[succ] = 0
                succ_traces = traces[succ]
                for label, pred in preds[succ]:
                    added = False
                    target = traces[pred]
                    if label is None:
                        for t in succ_traces:
                            if t not in target:
                                target.add(t)
                                added = True
                    else:
                        # A labeled self-loop (a DPOR print-then-jump-back
                        # macro-step) makes ``target`` the set being
                        # iterated: snapshot it; the worklist re-queues the
                        # node until the ≤ max_out prefixes converge.
                        source = (
                            tuple(succ_traces) if target is succ_traces
                            else succ_traces
                        )
                        for t in source:
                            if _out_len(t) >= max_out:
                                continue
                            extended = (label,) + t
                            if extended not in target:
                                target.add(extended)
                                added = True
                    if added and not queued[pred]:
                        queued[pred] = 1
                        work.append(pred)
            exhaustive = self.exhaustive and exhausted is None
            reason = self.stop_reason if exhausted is None else exhausted
            return BehaviorSet(
                frozenset(traces[0]), exhaustive, n, reason, self.dropped_edges
            )
        finally:
            if meter is not None:
                meter.close()


def _postorder(edges: List[List[Tuple[Optional[int], int]]]) -> List[int]:
    """The states reachable from state 0 in depth-first postorder: each
    after every successor the search first reached through it."""
    order: List[int] = []
    seen = bytearray(len(edges))
    seen[0] = 1
    stack = [(0, iter(edges[0]))]
    while stack:
        node, succs = stack[-1]
        for _, succ in succs:
            if not seen[succ]:
                seen[succ] = 1
                stack.append((succ, iter(edges[succ])))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def _out_len(trace: Trace) -> int:
    """Number of output events in a trace (markers excluded)."""
    return sum(1 for item in trace if not isinstance(item, str))


class ExplorationSession:
    """The explorations behind one verdict, shared between its checks.

    A verdict may ask several questions of the same programs: race scans
    (ww and, on another machine, ww-NPRF) and behavior sets (a refinement
    or equivalence check).  The session answers them
    from one :class:`Explorer` per distinct (program, machine) pair, built
    under ``config`` — a DPOR graph included, since the race scans read
    any interleaving graph (:mod:`repro.semantics.dpor`, "Race scans"):

    * equal programs — an optimizer that changed nothing — are explored
      once, so an unchanged target reuses the source's behaviors;
    * a program scanned for races is not explored again for refinement.

    Ask for graphs before behaviors: a behavior set computed first is
    kept without its graph.  A truncated graph answers both questions as
    it is (``exhaustive`` False) rather than being explored a second time
    under the same config.  ``explorations`` counts the graphs built.
    """

    def __init__(self, config: Optional[SemanticsConfig] = None) -> None:
        self.config = config or SemanticsConfig()
        self.explorations = 0
        self._graphs: Dict[Tuple[Program, bool], Explorer] = {}
        self._behaviors: Dict[Tuple[Program, bool], BehaviorSet] = {}

    def graph(self, program: Program, nonpreemptive: bool = False) -> Explorer:
        """The built state graph of ``program`` under ``config``."""
        key = (program, nonpreemptive)
        explorer = self._graphs.get(key)
        if explorer is None:
            explorer = Explorer(program, self.config, nonpreemptive=nonpreemptive).build()
            self.explorations += 1
            self._graphs[key] = explorer
        return explorer

    def behaviors(self, program: Program, nonpreemptive: bool = False) -> BehaviorSet:
        """The behavior set of ``program``, from its graph when one was
        built, else from one exploration under ``config``."""
        key = (program, nonpreemptive)
        result = self._behaviors.get(key)
        if result is None:
            graph = self._graphs.get(key)
            if graph is None:
                graph = Explorer(program, self.config, nonpreemptive=nonpreemptive)
                self.explorations += 1
            result = self._behaviors[key] = graph.behaviors()
        return result


def _explore(
    program: Program,
    config: Optional[SemanticsConfig],
    nonpreemptive: bool,
    raise_on_bound: bool,
    machine: str,
) -> BehaviorSet:
    explorer = Explorer(
        program, config or SemanticsConfig(), nonpreemptive=nonpreemptive
    )
    result = explorer.behaviors()
    if raise_on_bound and not result.exhaustive:
        raise ExplorationBoundExceeded(
            result.stop_reason or "states",
            partial=result,
            detail=f"{machine} exploration truncated at {result.state_count} "
            f"states ({result.stop_reason or 'states'})",
        )
    return result


def behaviors(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    raise_on_bound: bool = False,
) -> BehaviorSet:
    """Behavior set of ``program`` under the interleaving machine (Fig. 9).

    A hit bound (state cap or ``config.budget``) returns the partial
    :class:`BehaviorSet` with ``exhaustive=False`` — callers that do not
    opt in never see an exception mid-pipeline.  Pass
    ``raise_on_bound=True`` to raise :class:`ExplorationBoundExceeded`
    instead; the exception's ``partial`` attribute still carries the
    truncated set.
    """
    return _explore(program, config, False, raise_on_bound, "interleaving")


def np_behaviors(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    raise_on_bound: bool = False,
) -> BehaviorSet:
    """Behavior set under the non-preemptive machine (Fig. 10)."""
    return _explore(program, config, True, raise_on_bound, "non-preemptive")
