"""Whole-model execution: the uniform-timestep loop, trace recording,
halting, and branching (many-worlds style) execution.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    CausalModel,
    apply_law,
    halts,
    select_law,
    step,
)
from .errors import (
    BranchSignal,
    ContinuousRandomError,
    EvalError,
    MultipleApplicableError,
    NoApplicableLawError,
    SinkError,
)
from .jsontext import _float, _string, dumps_indented
from .rng import RngStream, WordBlocks, categorical_indices, derive_seeds
from .state import SystemState, state_to_json

# --- configuration and traces ---------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    dt: float
    max_steps: int
    seed: int = 0
    mode: str = "strict"
    record_every: int = 1
    # (label, function of a state) pairs, as compile_observable gives, or
    # the Observables of compile_observables
    observables: tuple = ()
    # state -> the tuple of the observables' values
    observe: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        observe = getattr(self.observables, "row", None)
        if observe is None:
            functions = [f for _, f in self.observables]
            observe = lambda s: tuple([f(s) for f in functions])  # noqa: E731
        object.__setattr__(self, "observe", observe)


@dataclass(frozen=True)
class Termination:
    kind: str  # halted | max-steps | no-applicable-law | multiple-applicable |
               # eval-error | depth-bound | pruned
    message: str = ""
    witness: SystemState | None = None
    laws: tuple = ()

    @property
    def is_error(self) -> bool:
        return self.kind not in ("halted", "max-steps")


@dataclass(frozen=True)
class TraceRow:
    step: int
    time: float
    values: tuple                  # observable values (raw python scalars)
    snapshot: SystemState | None = None


@dataclass(frozen=True)
class Trace:
    model_name: str
    config: RunConfig
    rows: tuple
    termination: Termination
    final_state: SystemState

    @property
    def observable_names(self):
        return tuple(label for label, _ in self.config.observables)


# the errors that end a run with a termination record instead of raising
_STEP_ERRORS = (NoApplicableLawError, MultipleApplicableError, EvalError)


def _termination(exc) -> Termination:
    """The termination record of a step that raised one of _STEP_ERRORS."""
    if isinstance(exc, NoApplicableLawError):
        return Termination("no-applicable-law", str(exc), witness=exc.witness)
    if isinstance(exc, MultipleApplicableError):
        return Termination("multiple-applicable", str(exc),
                           witness=exc.witness, laws=tuple(exc.law_names))
    return Termination("eval-error", str(exc))


def run(model: CausalModel, init: SystemState, cfg: RunConfig) -> Trace:
    """Drive the model from ``init`` until it halts, exhausts max_steps,
    or an engine error occurs. Failures land in the termination record,
    never as exceptions.

    This is the one-trial case of ``run_ensemble``'s loop, seeded with
    ``cfg.seed`` itself. Row times are computed as init.time + stepIndex *
    dt (not accumulated), and rows are recorded exactly at record_every
    strides.
    """
    rows: list = []
    termination, final = Ensemble(model, init, cfg, 1)._trial(
        RngStream(cfg.seed), rows)
    return Trace(model.name, cfg, tuple(rows), termination, final)


# --- outcome enumeration -----------------------------------------------------------


class ReplaySource:
    """The random source of branching and of the ensemble trie: replays
    the categorical outcomes in ``prefix``, then draws from ``stream``.
    With no stream it takes each draw's first outcome of positive
    probability and refuses continuous draws (ContinuousRandomError).

    Each new categorical draw is recorded in ``draws`` as (probs, labels,
    outcome) until the first continuous draw, which sets ``live``. A step
    asking for more than ``room`` new draws raises BranchSignal.
    """

    def __init__(self, prefix, stream=None, room=None):
        self.prefix = prefix
        self.stream = stream
        self.room = room
        self.pos = 0
        self.draws: list = []
        self.live = False

    def categorical(self, probs, labels=None) -> int:
        if self.pos < len(self.prefix):
            k = self.prefix[self.pos]
            self.pos += 1
            return k
        if self.room is not None and len(self.draws) >= self.room:
            raise BranchSignal()
        if self.stream is None:
            k = next(i for i, p in enumerate(probs) if p > 0.0)
        else:
            k = self.stream.categorical(probs)
        if not self.live:
            self.draws.append((probs, labels, k))
        return k

    def uniform01(self) -> float:
        return self._continuous().uniform01()

    def normal(self, mean, sigma) -> float:
        return self._continuous().normal(mean, sigma)

    def _continuous(self) -> RngStream:
        if self.stream is None:
            raise ContinuousRandomError()
        self.live = True
        return self.stream


# --- branching execution -----------------------------------------------------------


@dataclass
class WorldNode:
    weight: float
    outcome: str | None = None          # edge label of the draw that made it
    snapshot: SystemState | None = None
    children: list = field(default_factory=list)
    termination: Termination | None = None
    pruned: bool = False


@dataclass(frozen=True)
class WorldTree:
    root: WorldNode
    pruned_mass: float

    def leaves(self):
        """The unpruned nodes with a termination, each before the nodes
        below it, walked with an explicit stack (a tree may be deeper than
        the recursion limit)."""
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.pruned:
                continue
            if node.termination is not None:
                out.append(node)
            stack.extend(reversed(node.children))
        return out

    def leaf_weight_total(self) -> float:
        return sum(l.weight for l in self.leaves())


@dataclass
class _Lineage:
    state: SystemState
    weight: float
    draws: int       # categorical draws consumed so far
    steps: int
    node: WorldNode
    serial: int      # creation order, used for deterministic pruning


def branch_run(model: CausalModel, init: SystemState, cfg: RunConfig,
               depth_bound: int, width_bound: int) -> WorldTree:
    """Execute like ``run`` but fork one weighted child per outcome at
    every categorical random draw.

    A step runs once down the first outcome of each new draw; the other
    outcomes are queued with a replay prefix, so a k-way fork costs k
    executions. A lineage stops branching once it has consumed
    depth_bound draws (leaf kind "depth-bound"). After each synchronous
    round of steps the frontier is pruned to width_bound lineages,
    dropping the lowest weights deterministically; pruned stubs stay in
    the tree and their total mass is reported. Continuous draws are not
    branchable and raise ContinuousRandomError.
    """
    if depth_bound < 1:
        raise ValueError("depth_bound must be >= 1")
    if width_bound < 1:
        raise ValueError("width_bound must be >= 1")
    root = WorldNode(weight=1.0, snapshot=init)
    serial = 1
    active = [_Lineage(init, 1.0, 0, 0, root, 0)]
    pruned_mass = 0.0

    def settle(lin: _Lineage, term: Termination):
        lin.node.termination = term
        lin.node.snapshot = lin.state

    while active:
        survivors: list = []
        # work items: (lineage, prefix); a non-empty prefix means the
        # lineage takes a queued outcome of the current step
        work = deque((lin, []) for lin in active)
        while work:
            lin, prefix = work.popleft()
            if not prefix:
                try:
                    if halts(model, lin.state):
                        settle(lin, Termination("halted"))
                        continue
                    if lin.steps >= cfg.max_steps:
                        settle(lin, Termination("max-steps"))
                        continue
                except EvalError as exc:
                    settle(lin, _termination(exc))
                    continue
            source = ReplaySource(
                prefix, room=depth_bound - lin.draws - len(prefix))
            end = None
            try:
                post = step(model, lin.state, cfg.dt, source, cfg.mode,
                            init.time + (lin.steps + 1) * cfg.dt)
            except BranchSignal:
                end = Termination("depth-bound",
                                  f"branching depth {depth_bound} reached")
            except _STEP_ERRORS as exc:
                end = _termination(exc)
            # fork each new draw: this execution went on with its first
            # outcome; queue the others, deepest draw first
            path = list(prefix)
            for probs, labels, k in source.draws:
                parent, queued = lin, []
                for j, p in enumerate(probs):
                    if p <= 0.0:
                        continue
                    weight = parent.weight * float(p)
                    node = WorldNode(weight=weight, outcome=str(
                        j if labels is None else labels[j]))
                    parent.node.children.append(node)
                    child = _Lineage(parent.state, weight, parent.draws,
                                     parent.steps, node, serial)
                    serial += 1
                    if j == k:
                        lin = child
                    else:
                        queued.append((child, path + [j]))
                path.append(k)
                work.extendleft(reversed(queued))
            if end is not None:
                settle(lin, end)
                continue
            lin.state = lin.node.snapshot = post
            lin.steps += 1
            lin.draws += len(path)
            survivors.append(lin)
        if len(survivors) > width_bound:
            order = sorted(survivors, key=lambda l: (-l.weight, l.serial))
            for lin in order[width_bound:]:
                lin.node.pruned = True
                lin.node.termination = Termination("pruned")
                lin.node.snapshot = lin.state
                pruned_mass += lin.weight
            survivors = sorted(order[:width_bound], key=lambda l: l.serial)
        active = survivors
    return WorldTree(root, pruned_mass)


# --- ensemble execution -------------------------------------------------------------

# Trials routed through the memo and the tries together; a batch's results
# are kept until it is yielded, so memory is O(_BATCH) past the memo.
_BATCH = 4096
# Smaller groups at a trie node that draws finish trial by trial: the
# node's array operations cost more than that many walks on a trial's own
# stream.
_MIN_GROUP = 8
# the least and the greatest value of RngStream.uniform01
_U_BOUNDS = np.array([0.0, 1.0 - 2.0**-53])


class _Draw:
    """Outcome-trie node: what a law application does after one prefix of
    categorical outcomes. ``probs`` is set once it is known to draw
    categorically here, ``post`` once it is known to finish here. A node
    with neither is unexplored, or live: the application draws a uniform
    or normal value there, so every trial reaching it executes for real.
    ``replayed`` is set once a batch replayed the application here, so a
    live node or one that fails is replayed at most once.
    """

    __slots__ = ("probs", "cum", "forced", "children", "post", "replayed")

    def __init__(self):
        self.probs = None
        self.cum = None            # np.cumsum(probs), once a batch walks here
        self.forced = None         # with cum: the outcome every word picks
        self.children: dict = {}   # outcome index -> _Draw
        self.post: SystemState | None = None
        self.replayed = False


def _record(node: _Draw, draws: list, post: SystemState | None) -> _Draw:
    """Extend the trie below ``node`` with the categorical ``draws`` an
    application made past it, as (probs, labels, outcome), and store
    ``post`` (None if not known) at the node they end at; return it."""
    for probs, _, k in draws:
        node.probs = probs
        # targets bind left to right: the parent's slot, then the cursor
        node.children[k] = node = _Draw()
    node.post = post
    return node


def _partition(picks: np.ndarray, rows: np.ndarray) -> list:
    """(outcome, rows that picked it) pairs, rows kept in their order."""
    first = picks[0]
    if (picks == first).all():
        return [(int(first), rows)]
    order = np.argsort(picks, kind="stable")
    picked, rows = picks[order], rows[order]
    cuts = (np.flatnonzero(picked[1:] != picked[:-1]) + 1).tolist()
    return [(int(picked[a]), rows[a:b])
            for a, b in zip([0] + cuts, cuts + [len(rows)])]


class _Entry:
    """What every trial reaching one shared pre-state would compute again."""

    __slots__ = ("state", "halts", "law", "root")

    def __init__(self, state: SystemState, halts: bool):
        self.state = state         # holds the object, so its id stays unique
        self.halts = halts
        self.law = None            # selected on first use: run selects no
                                   # law at a halting or max-steps state
        self.root = _Draw()


class Ensemble:
    """Iterable over the (termination, final state) pairs of ``trials``
    seeded runs; see ``run_ensemble``.

    ``memo`` maps id(pre-state) to the work shared by every trial that
    reaches that state object. Only the initial state and finished trie
    leaves are shareable, and at most ``trials`` non-halting ones are
    admitted. A lone trial never reaches a state object twice, so one
    trial admits none: it steps exactly like a plain loop.
    """

    def __init__(self, model: CausalModel, init: SystemState,
                 cfg: RunConfig, trials: int):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.model = model
        self.init = init
        self.cfg = cfg
        self.trials = trials
        self.capacity = trials if trials > 1 else 0
        self.memo: dict = {}
        self.live = 0   # memo entries that do not halt

    def __iter__(self):
        for first in range(0, self.trials, _BATCH):
            yield from self._batch(first, min(_BATCH, self.trials - first))

    def _entry(self, s: SystemState) -> _Entry | None:
        entry = self.memo.get(id(s))
        if entry is None and self.live < self.capacity:
            entry = self.memo[id(s)] = _Entry(s, halts(self.model, s))
            self.live += not entry.halts
        return entry

    def _batch(self, first: int, n: int) -> list:
        """The (termination, final state) pairs of trials ``first`` to
        ``first + n - 1``, in trial order.

        The trials are routed through the memo and the outcome tries
        together: a group of trials at one shared state takes the entry's
        halt and max-steps exits at once, and at a trie node one
        ``searchsorted`` of the node's cumulative probabilities picks
        every trial's outcome from its own next word, unless one outcome
        is forced. A group that reaches a node nothing has explored
        replays the law there once (``_explore``), drawing no word, and
        moves on. A trial whose group meets work that cannot be shared (a
        full memo, a failing halt check or law selection, a live or
        failing node), or is one of fewer than _MIN_GROUP at a node whose
        outcome is not forced, finishes in ``_trial``, resumed at its
        group's state.
        """
        cfg = self.cfg
        keys = derive_seeds(cfg.seed, np.arange(first, first + n,
                                                dtype=np.uint64))
        words = WordBlocks(keys)
        out: list = [None] * n
        stream = RngStream(0)

        def finish(s, steps, pos, rows):
            """Run trials ``rows`` on from state ``s``, reached after
            ``steps`` steps and ``pos`` words, each on its own stream."""
            words.retire(rows)
            for i in rows.tolist():
                stream.rekey(int(keys[i]))
                for _ in range(pos):
                    stream.raw64()
                out[i] = self._trial(stream, s=s, steps=steps)

        def settle(rows, result):
            words.retire(rows)
            for i in rows.tolist():
                out[i] = result

        # groups of trials at one shared state: (state, steps taken, words
        # drawn, trial rows); every trial at a state took the same path.
        # First in, first out, so the groups move on step by step and ask
        # for the same few blocks of words.
        todo = deque([(self.init, 0, 0, np.arange(n))])
        while todo:
            s, steps, pos, rows = todo.popleft()
            try:
                entry = self._entry(s)
            except _STEP_ERRORS:   # the halt check fails on every trial
                entry = None
            if entry is None:
                finish(s, steps, pos, rows)
                continue
            if entry.halts:
                settle(rows, (Termination("halted"), s))
                continue
            if steps >= cfg.max_steps:
                settle(rows, (Termination("max-steps"), s))
                continue
            time = self.init.time + (steps + 1) * cfg.dt
            # (node, words drawn, trial rows, outcome path from the root)
            nodes = [(entry.root, pos, rows, ())]
            while nodes:
                node, p, rows, path = nodes.pop()
                if node.post is None and node.probs is None:
                    if not node.replayed:
                        self._explore(entry, node, path, time)
                    if node.post is None and node.probs is None:
                        # live or failing: no trial records it, each
                        # executes the step on its own stream
                        finish(s, steps, pos, rows)
                        continue
                if node.post is not None:
                    todo.append((node.post, steps + 1, p, rows))
                    continue
                if node.cum is None:
                    node.cum = np.cumsum(node.probs)
                    # the outcome is forced if the least and the greatest
                    # uniform pick it: the pick is monotone in the uniform
                    least, most = categorical_indices(node.cum,
                                                      _U_BOUNDS).tolist()
                    node.forced = least if least == most else None
                if node.forced is not None:
                    parts = [(node.forced, rows)]
                elif len(rows) < _MIN_GROUP:
                    finish(s, steps, pos, rows)
                    continue
                else:
                    picks = categorical_indices(node.cum,
                                                words.uniform01(rows, p))
                    parts = _partition(picks, rows)
                for k, part in parts:
                    child = node.children.get(k)
                    if child is None:
                        child = node.children[k] = _Draw()
                    nodes.append((child, p + 1, part, path + (k,)))
        return out

    def _trial(self, stream: RngStream, rows: list | None = None,
               s: SystemState | None = None, steps: int = 0):
        """One trial drawing from ``stream``: the halt -> max-steps -> step
        loop of every run, from the initial state or, resumed, from the
        shared state ``s`` reached after ``steps`` steps. Returns
        (termination, final state); appends a TraceRow to ``rows``, if
        given, at step 0 and every record_every steps."""
        model, cfg, init = self.model, self.cfg, self.init
        if s is None:
            s = init
        shared = True   # s is the initial state or a trie leaf
        try:
            if rows is not None:
                rows.append(TraceRow(0, init.time, cfg.observe(s), s))
            while True:
                entry = self._entry(s) if shared else None
                halted = halts(model, s) if entry is None else entry.halts
                if halted:
                    return Termination("halted"), s
                if steps >= cfg.max_steps:
                    return Termination("max-steps"), s
                steps += 1
                time = init.time + steps * cfg.dt
                if entry is None:
                    s = step(model, s, cfg.dt, stream, cfg.mode, time)
                    shared = False
                else:
                    s, shared = self._step(entry, stream, time)
                if rows is not None and steps % cfg.record_every == 0:
                    rows.append(TraceRow(steps, time, cfg.observe(s), s))
        except _STEP_ERRORS as exc:
            return _termination(exc), s

    def _step(self, entry: _Entry, stream: RngStream, time: float):
        """Apply the entry's law: walk the trie with the trial's own draws
        and execute only where it is unexplored or live. Returns the
        post-state and whether it is a (shareable) trie leaf."""
        if entry.law is None:
            entry.law = select_law(self.model, entry.state, self.cfg.mode)
        node, prefix = entry.root, []
        while node.post is None and node.probs is not None:
            k = stream.categorical(node.probs)
            prefix.append(k)
            child = node.children.get(k)
            if child is None:
                child = node.children[k] = _Draw()
            node = child
        if node.post is not None:
            return node.post, True
        source = ReplaySource(prefix, stream)
        post = apply_law(entry.law, entry.state, self.cfg.dt, source, time)
        _record(node, source.draws, None if source.live else post)
        return post, not source.live

    def _explore(self, entry: _Entry, node: _Draw, path: tuple,
                 time: float):
        """Replay the entry's law down outcome ``path`` to ``node`` with no
        stream, selecting the law first if no trial has, and record what
        the application does there. Past ``path`` the replay takes each
        draw's first outcome of positive probability, so a continuous
        draw or an error may belong to that one continuation: then only
        the categorical draws before it are recorded, and the node it
        stopped at is marked so that no later batch replays it."""
        source = ReplaySource(path)
        post = None
        try:
            if entry.law is None:
                entry.law = select_law(self.model, entry.state,
                                       self.cfg.mode)
            post = apply_law(entry.law, entry.state, self.cfg.dt, source,
                             time)
        except (ContinuousRandomError, *_STEP_ERRORS):
            pass
        _record(node, source.draws, post).replayed = True


def run_ensemble(model: CausalModel, init: SystemState, cfg: RunConfig,
                 trials: int) -> Ensemble:
    """Run ``trials`` Monte Carlo trials from ``init``; iterating the result
    yields one (termination, final state) pair per trial, in trial order.

    Trial t equals ``run(model, init, replace(cfg, seed=derive_seed(
    cfg.seed, t)))``: same termination, same final state, same draws. A
    step from an immutable pre-state depends only on that state and the
    categorical outcomes it draws, so the halt check, law selection and
    every explored outcome path are computed once per distinct pre-state
    and shared by all trials that reach it. Ensembles record no rows, so
    ``cfg.observables`` must be empty.
    """
    if cfg.observables:
        raise ValueError("ensembles record no observables")
    return Ensemble(model, init, cfg, trials)


# --- serialization ----------------------------------------------------------------


def format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        return f"{format(value.real, '.17g')}{value.imag:+.17g}i"
    return str(value)


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def termination_to_json(t: Termination) -> dict:
    out: dict = {"kind": t.kind}
    if t.message:
        out["message"] = t.message
    if t.laws:
        out["laws"] = list(t.laws)
    if t.witness is not None:
        out["witness"] = state_to_json(t.witness)
    return out


def write_trace(trace: Trace, format_: str = "csv", sink=None) -> int:
    """Serialize a trace as CSV or JSONL; returns bytes written.

    CSV: header ``step,time,<observables>`` and one row per recorded row,
    floats with 17 significant digits. JSONL: one object per row plus a
    trailing metadata object carrying the config and termination reason.
    """
    names = trace.observable_names
    if format_ == "csv":
        lines = ["step,time" + ("," + ",".join(names) if names else "")]
        for row in trace.rows:
            cells = [str(row.step), format_scalar(row.time)]
            cells += [format_scalar(v) for v in row.values]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    elif format_ == "jsonl":
        lines = []
        for row in trace.rows:
            lines.append(json.dumps(
                {"step": row.step, "time": row.time,
                 "values": {n: _jsonable(v) for n, v in zip(names, row.values)}}))
        meta = {"model": trace.model_name,
                "config": {"dt": trace.config.dt,
                           "maxSteps": trace.config.max_steps,
                           "seed": trace.config.seed,
                           "mode": trace.config.mode,
                           "recordEvery": trace.config.record_every,
                           "observables": list(names)},
                "terminationReason": termination_to_json(trace.termination)}
        lines.append(json.dumps(meta))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown trace format '{format_}'")
    return write_text(text, sink)


def write_text(text: str, sink) -> int:
    data = text.encode("utf-8")
    try:
        if sink is None:
            import sys
            sys.stdout.write(text)
            sys.stdout.flush()
        elif isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
            with open(sink, "wb") as fh:
                fh.write(data)
        elif hasattr(sink, "write"):
            try:
                sink.write(data)
            except TypeError:
                sink.write(text)
        else:
            raise SinkError(f"cannot write to {sink!r}")
    except OSError as exc:
        raise SinkError(str(exc))
    return len(data)


# payload types whose repr tells apart every value they print apart
_REPR_KEYED = frozenset((int, float, bool, complex))


def world_tree_text(tree: WorldTree) -> str:
    """``json.dumps`` of the tree's JSON form with ``indent=2``, written
    straight from the nodes.

    Each node carries, in this order, its ``weight``, its ``outcome`` if
    any, ``"pruned": true`` or else its ``termination`` if any, its
    ``state`` if it is a leaf with a snapshot, and its ``children`` if
    any. The nodes are walked with an explicit stack, so a tree deeper
    than the recursion limit is written like any other. A leaf's state
    and termination text is built once per distinct value and depth in
    one call: a state of scalar payloads is keyed by the ``repr`` of its
    time and values (``-0.0 == 0.0`` and ``True == 1``, but their reprs
    differ, as their JSON does), any other state by identity; a
    termination without a witness by its kind, message and laws, one
    with a witness by identity. The tree holds every keyed object, so no
    id is reused while the call runs.
    """
    # (depth, key) -> a leaf's state or termination text; a state's key is
    # a pair or an id, a termination's a triple or an id, so none collide
    fragments: dict = {}
    layouts: dict = {}

    def fragment(d: int, key, to_json, leaf) -> str:
        text = fragments.get((d, key))
        if text is None:
            text = fragments[d, key] = dumps_indented(
                to_json(leaf)).replace("\n", "\n" + "  " * d)
        return text

    def layout(d: int) -> tuple:
        """The fixed text of a node whose keys are indented to depth d."""
        outer, pad, inner = ("\n" + "  " * i for i in (d - 1, d, d + 1))
        sep = "," + pad
        text = layouts[d] = (
            "{" + pad + '"weight": ', sep + '"outcome": ',
            sep + '"pruned": true', sep + '"termination": ',
            sep + '"state": ', outer + "}", sep + '"children": [' + inner,
            "," + inner, pad + "]" + outer + "}")
        return text

    out = ['{\n  "prunedMass": ', _float(tree.pruned_mass), ',\n  "root": ']
    emit = out.append
    # one entry per node whose children are being written: (iterator over
    # the rest of them, text before the next one, text after the last one)
    stack: list = []
    node, d = tree.root, 2      # d: indent depth of the node's keys
    while True:
        (head, outcome, pruned, termination, state, close, children_,
         sibling, close_children) = layouts.get(d) or layout(d)
        emit(head)
        emit(_float(node.weight))
        if node.outcome is not None:
            emit(outcome)
            emit(_string(node.outcome))
        if node.pruned:
            emit(pruned)
        elif node.termination is not None:
            t = node.termination
            key = (id(t) if t.witness is not None
                   else (t.kind, t.message, tuple(t.laws)))
            emit(termination)
            emit(fragment(d, key, termination_to_json, t))
        if node.children:
            emit(children_)
            children = iter(node.children)
            node = next(children)
            stack.append((children, sibling, close_children))
            d += 2
            continue
        if node.snapshot is not None:
            s = node.snapshot
            key = ((repr(s.time), repr(s.values))
                   if all(type(v) in _REPR_KEYED for v in s.values.values())
                   else id(s))
            emit(state)
            emit(fragment(d, key, state_to_json, s))
        emit(close)
        while stack:
            children, sibling, close_children = stack[-1]
            node = next(children, None)
            if node is not None:
                emit(sibling)
                break
            stack.pop()
            emit(close_children)
            d -= 2
        else:
            emit("\n}")
            return "".join(out)
