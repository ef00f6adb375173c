"""Whole-model execution: the uniform-timestep loop, trace recording,
halting, and branching (many-worlds style) execution.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .engine import CausalModel, apply_law, entry_point, halts, select_law
from .errors import (
    ContinuousRandomError,
    EvalError,
    MultipleApplicableError,
    NoApplicableLawError,
    SinkError,
)
from .jsontext import _float, _scalar, _string, dumps_indented
from .rng import RngStream, WordBlocks, categorical_indices, derive_seeds
from .state import PAYLOAD_TYPES, SystemState, check_values, state_to_json

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

    def check_times(self, init: SystemState):
        """Raise ValueError unless every step from ``init`` has a finite
        time. Step k's time is init.time + k * dt, which grows with k, so
        the last step's bounds them all."""
        try:
            last = init.time + self.max_steps * self.dt
        except OverflowError:   # a step count beyond a float's range
            last = math.inf
        if not math.isfinite(last):
            raise ValueError(f"time at step {self.max_steps} is not finite: "
                             f"{init.time} + {self.max_steps} * {self.dt}")

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.mode not in ("strict", "first-match"):
            raise ValueError(f"unknown mode '{self.mode}'")
        observe = getattr(self.observables, "row", None)
        if observe is None:
            functions = [f for _, f in self.observables]
            observe = (lambda s: tuple([f(s) for f in functions])
                       ) if functions else _observe_nothing
        object.__setattr__(self, "observe", observe)


def _observe_nothing(s: SystemState) -> tuple:   # builds no list per row
    return ()


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


@dataclass(frozen=True, slots=True, init=False)
class TraceRow:
    """What a run observed at one recorded step. Built once per such step,
    so ``__init__`` stores through the slot descriptors."""

    step: int
    time: float
    values: tuple                  # observable values (raw python scalars)

    def __init__(self, step: int, time: float, values: tuple):
        _SET_STEP(self, step)
        _SET_TIME(self, time)
        _SET_VALUES(self, values)


_SET_STEP, _SET_TIME, _SET_VALUES = (
    TraceRow.step.__set__, TraceRow.time.__set__, TraceRow.values.__set__)


@dataclass(frozen=True)
class Trace:
    """A run's rows, what it observed, and the one state it ended at."""
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


@entry_point
def run(model: CausalModel, init: SystemState, cfg: RunConfig) -> Trace:
    """Drive the model from ``init`` until it halts, exhausts max_steps,
    or an engine error occurs. Failures land in the termination record,
    never as exceptions; a start state that does not fit the model's
    schema, or whose step times overflow, is refused before any step.

    Its loop, ``_run_from``, is the one an ensemble trial runs once it
    leaves the shared walk; here it is seeded with ``cfg.seed`` itself
    and starts at step 0. Row times are computed as init.time +
    stepIndex * dt (not accumulated), and rows are recorded exactly at
    record_every strides. A row holds no state: observe what you need.
    """
    cfg.check_times(init)
    check_values(model.schema, init.values)
    rows: list = []
    termination, final = _run_from(model, cfg, init.time, init, 0,
                                   RngStream(cfg.seed), rows)
    return Trace(model.name, cfg, tuple(rows), termination, final)


def _run_from(model: CausalModel, cfg: RunConfig, start: float,
              s: SystemState, steps: int, stream: RngStream,
              rows: list | None = None):
    """The halt -> max-steps -> step loop of one trial drawing from
    ``stream``, from state ``s`` reached after ``steps`` steps of a run
    that began at time ``start``. Returns (termination, final state);
    appends a TraceRow to ``rows``, if given, at step 0 and every
    record_every steps. A step calls the mode's selector and the chosen
    law's transition directly, as ``engine.step`` does."""
    halt, observe = model.halt_fn, cfg.observe
    select = model.selectors[cfg.mode]
    applies = model.transitions
    dt, max_steps, every = cfg.dt, cfg.max_steps, cfg.record_every
    try:
        if rows is not None:
            rows.append(TraceRow(0, start, observe(s)))
        while True:
            if halt is not None and halt(s):
                return Termination("halted"), s
            if steps >= max_steps:
                return Termination("max-steps"), s
            steps += 1
            time = start + steps * dt
            s = applies[select(s)](s, dt, stream, time)
            if rows is not None and steps % every == 0:
                rows.append(TraceRow(steps, time, observe(s)))
    except _STEP_ERRORS as exc:
        return _termination(exc), s


# --- outcome enumeration -----------------------------------------------------------


class ReplaySource:
    """The random source of branching and of the ensemble trie: replays
    the categorical outcomes in ``prefix``, then takes each draw's first
    outcome of positive probability, and refuses continuous draws
    (ContinuousRandomError).

    Each draw past the prefix is recorded in ``draws`` as (probs, labels,
    outcome). ``replayed`` gives a kernel the next prefix outcome before
    it builds the draw's probabilities, so a replayed draw builds none.
    """

    def __init__(self, prefix):
        self.prefix = prefix
        self.pos = 0
        self.draws: list = []

    def replayed(self) -> int | None:
        """The next prefix outcome, which ``categorical`` would return, or
        None past the prefix. A replay re-enters the pre-state, outcome
        prefix, dt and time of the application that first drew here,
        which built and checked the probabilities, so a kernel given an
        outcome skips them."""
        pos = self.pos
        if pos < len(self.prefix):
            self.pos = pos + 1
            return self.prefix[pos]
        return None

    def categorical(self, probs, labels=None) -> int:
        k = self.replayed()
        if k is None:
            k = 0 if probs[0] > 0.0 else int((probs > 0.0).nonzero()[0][0])
            self.draws.append((probs, labels, k))
        return k

    def uniform01(self) -> float:
        raise ContinuousRandomError()

    def normal(self, mean, sigma) -> float:
        raise ContinuousRandomError()


# --- branching execution -----------------------------------------------------------

# scalar payload types: the repr of each tells apart what it prints apart
_REPR_KEYED = frozenset(PAYLOAD_TYPES.values())


def state_key(s: SystemState):
    """The canonical key of a state: the ``repr`` of its time and values
    when every payload is an int, float, bool or complex, else the
    state's identity. Equal keys mean equal futures and equal JSON text
    (``-0.0 == 0.0`` and ``True == 1``, but their reprs differ, as their
    JSON does). Whoever keys by it holds the state, so no id is reused
    while the key is in use."""
    for v in s.values.values():
        if type(v) not in _REPR_KEYED:
            return id(s)
    return repr(s.time), repr(s.values)


@dataclass(slots=True)
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


@entry_point
def branch_run(model: CausalModel, init: SystemState, cfg: RunConfig,
               depth_bound: int, width_bound: int) -> WorldTree:
    """Execute like ``run`` but fork one weighted child per outcome at
    every categorical random draw.

    A round of ``_advance`` steps every lineage, a (world node, creation
    serial) pair; lineages whose states share a ``state_key`` share one
    ``_Entry`` and its trie for the round, found by the state's identity
    first, so a state object that many lineages reached is keyed once.
    At a node that draws, a lineage that has consumed depth_bound draws
    is cut ("depth-bound"), and any other forks one child per outcome of
    positive probability. Each round the frontier is pruned to
    width_bound lineages, dropping the lowest weights deterministically;
    pruned stubs stay in the tree, all sharing one "pruned" termination,
    and their mass is reported. A continuous draw raises
    ContinuousRandomError.
    """
    if depth_bound < 1:
        raise ValueError("depth_bound must be >= 1")
    if width_bound < 1:
        raise ValueError("width_bound must be >= 1")
    cfg.check_times(init)
    check_values(model.schema, init.values)
    cut = Termination("depth-bound", f"branching depth {depth_bound} reached")
    pruned = Termination("pruned")      # frozen, so every stub shares it
    root = WorldNode(weight=1.0, snapshot=init)
    serial = 1
    # id of a state, or its state key -> _Entry for one round; the round's
    # groups hold every state keyed by id, so no id is reused this round
    entries: dict = {}

    def entry_of(s):
        entry = entries.get(id(s))
        if entry is None:
            key = state_key(s)
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = _Entry(s, halts(model, s))
            entries[id(s)] = entry
        return entry

    def fork(node, path, s, draws, lin):
        nonlocal serial
        if draws + len(path) >= depth_bound:
            settle(lin, cut, s)
            return ()
        if node.outcomes is None:
            # tolist(): Python floats, compared and multiplied without a
            # numpy scalar per outcome
            labels = node.labels
            node.outcomes = tuple(
                (j, p, str(j if labels is None else labels[j]))
                for j, p in enumerate(node.probs.tolist()) if p > 0.0)
        parent = lin[0]
        forks = []
        for j, p, label in node.outcomes:
            child = WorldNode(parent.weight * p, label)
            parent.children.append(child)
            forks.append((node.children[j], path + (j,), (child, serial)))
            serial += 1
        return forks[::-1]   # the first outcome is walked first

    def settle(lin, termination, s):
        lin[0].termination = termination
        lin[0].snapshot = s

    def live(s, draws, lin, error):
        # a new one: raised, ``error`` would hold these frames, and the
        # trie that keeps it would be in a cycle with them
        raise ContinuousRandomError(error.law)

    groups = [(init, 0, (root, 0))]
    pruned_mass = 0.0
    steps = 0   # every lineage of a round has taken this many steps
    while groups:
        groups = _advance(model, cfg, steps, init.time + (steps + 1) * cfg.dt,
                          groups, entry_of, fork, settle, live)
        entries.clear()
        for s, _, (node, _) in groups:
            node.snapshot = s   # the last state its lineage reached
        if len(groups) > width_bound:
            order = sorted(groups, key=lambda g: (-g[2][0].weight, g[2][1]))
            for _, _, (node, _) in order[width_bound:]:
                node.pruned = True
                node.termination = pruned
                pruned_mass += node.weight
            groups = sorted(order[:width_bound], key=lambda g: g[2][1])
        steps += 1
    return WorldTree(root, pruned_mass)


# --- ensemble execution -------------------------------------------------------------

# Trials routed through the memo and the tries together; a batch's results
# are kept until it is yielded, so memory is O(_BATCH) past the memo.
_BATCH = 4096
# Smaller groups at a trie node that draws finish trial by trial, each
# running plain steps on its own stream: the node's array operations cost
# more than that many trials' steps.
_MIN_GROUP = 8
# the least and the greatest value of RngStream.uniform01
_U_BOUNDS = np.array([0.0, 1.0 - 2.0**-53])


class _Draw:
    """Outcome-trie node: what a law application does after one prefix of
    categorical outcomes. ``probs`` (and ``labels``) are set once it is
    known to draw categorically here, ``post`` once it is known to finish
    here, and ``error`` once a replay stopped here: the Termination of
    the step error it raised, or a ContinuousRandomError at a live node,
    where the application draws a uniform or normal value, so every
    trial reaching it executes for real. A node with none of them is
    unexplored; each other node is replayed at most once.

    ``error`` is never an exception that was raised: its traceback's
    frames would lead back to the batch that holds every trial's result,
    a reference cycle through the memo that only the collector frees.
    """

    __slots__ = ("probs", "labels", "cum", "forced", "outcomes", "children",
                 "post", "error")

    def __init__(self):
        self.probs = None
        self.labels = None
        self.cum = None            # np.cumsum(probs), once a batch walks here
        self.forced = None         # with cum: the outcome every word picks
        self.outcomes = None       # once a branch forks here: the
        #                            (outcome, probability, label) triples
        #                            of positive probability
        self.children = defaultdict(_Draw)   # outcome index -> _Draw
        self.post: SystemState | None = None
        self.error: Termination | ContinuousRandomError | None = None


def _record(node: _Draw, draws: list, post: SystemState | None) -> _Draw:
    """Extend the trie below ``node`` with the categorical ``draws`` an
    application made past it, as (probs, labels, outcome), and store
    ``post`` (None if not known) at the node they end at; return it."""
    for probs, labels, k in draws:
        node.probs, node.labels = probs, labels
        # targets bind left to right: the parent's slot, then the cursor
        node.children[k] = node = _Draw()
    node.post = post
    return node


def _explore(model: CausalModel, cfg: RunConfig, entry: _Entry,
             node: _Draw, path: tuple, time: float):
    """Replay the entry's law down outcome ``path`` to ``node`` with no
    stream, selecting the law first if nothing has, and record what the
    application does there. Past ``path`` the replay takes each draw's
    first outcome of positive probability, so a continuous draw or an
    error may belong to that one continuation: then only the categorical
    draws before it are recorded, and the node it stopped at keeps what
    the error was, so that nothing replays it again."""
    source = ReplaySource(path)
    post = error = None
    try:
        if entry.law is None:
            entry.law = select_law(model, entry.state, cfg.mode)
        post = apply_law(model, entry.law, entry.state, cfg.dt, source, time)
    except ContinuousRandomError as exc:
        error = ContinuousRandomError(exc.law)
    except _STEP_ERRORS as exc:
        error = _termination(exc)
    _record(node, source.draws, post).error = error


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


def _advance(model: CausalModel, cfg: RunConfig, steps: int, time: float,
             groups: list, entry_of, draw, settle, live) -> list:
    """The frontier walk of ``branch_run`` and ``Ensemble._batch``: one
    step of each group (state, draws taken, payload) of a round that has
    taken ``steps`` steps, to ``time``. In ``run``'s order a group halts,
    stops at max-steps or walks its entry's trie, exploring what nothing
    has; a failing halt check or node ends it as ``run`` would. Returns
    the next round's groups, in depth-first trie order. The caller gives
    ``entry_of(s)``, an ``_Entry`` or None; ``draw(node, path, s, draws,
    payload)``, the (child, path, payload) triples to walk on, the last
    first; ``settle(payload, termination, s)``; and ``live(s, draws,
    payload, error)`` for no entry (error None) or a live node."""
    out = []
    for s, draws, payload in groups:
        try:
            entry = entry_of(s)
        except _STEP_ERRORS as exc:   # the halt check fails
            settle(payload, _termination(exc), s)
            continue
        if entry is None:
            live(s, draws, payload, None)
            continue
        if entry.halts:
            settle(payload, Termination("halted"), s)
            continue
        if steps >= cfg.max_steps:
            settle(payload, Termination("max-steps"), s)
            continue
        # (trie node, outcome path from the root, payload)
        stack = [(entry.root, (), payload)]
        while stack:
            node, path, payload = stack.pop()
            if node.post is None and node.probs is None \
                    and node.error is None:
                _explore(model, cfg, entry, node, path, time)
            if node.post is not None:
                out.append((node.post, draws + len(path), payload))
            elif node.probs is not None:
                stack += draw(node, path, s, draws, payload)
            elif isinstance(node.error, ContinuousRandomError):
                live(s, draws, payload, node.error)
            else:
                settle(payload, node.error, s)
    return out


class Ensemble:
    """Iterable over the (termination, final state) pairs of ``trials``
    seeded runs; see ``run_ensemble``.

    ``memo`` maps id(pre-state) to the work shared by every trial that
    reaches that state object. Only the initial state and finished trie
    leaves are shareable, and at most ``trials`` non-halting ones are
    admitted. A lone trial never reaches a state object twice, so one
    trial admits none and runs as ``run`` does.
    """

    def __init__(self, model: CausalModel, init: SystemState,
                 cfg: RunConfig, trials: int):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        cfg.check_times(init)
        check_values(model.schema, init.values)
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

    @entry_point
    def _batch(self, first: int, n: int) -> list:
        """The (termination, final state) pairs of trials ``first`` to
        ``first + n - 1``, in trial order, by rounds of ``_advance`` over
        groups of trial rows; trials that end together share one pair. At
        a node that draws, one ``searchsorted`` of its cumulative sum picks
        each trial's outcome from its own next word, unless one outcome is
        forced. A group with no entry or at a live node, or of fewer than
        _MIN_GROUP where the outcome is not forced, finishes in
        ``_run_from``: each trial steps on its own stream, with no memo and
        no trie.
        """
        model, cfg, start = self.model, self.cfg, self.init.time
        keys = derive_seeds(cfg.seed, np.arange(first, first + n,
                                                dtype=np.uint64))
        words = WordBlocks(keys)
        out: list = [None] * n
        stream = RngStream(0)
        steps = 0   # every group of a round has taken this many steps

        def finish(s, pos, rows, error=None):
            """Run trials ``rows`` on from state ``s``, reached after
            ``steps`` steps and ``pos`` words, each on its own stream."""
            words.retire(rows)
            for i in rows.tolist():
                stream.rekey(int(keys[i]))
                stream.words(pos)
                out[i] = _run_from(model, cfg, start, s, steps, stream)

        def settle(rows, termination, s):
            words.retire(rows)
            pair = termination, s
            for i in rows.tolist():
                out[i] = pair

        def sample(node, path, s, pos, rows):
            if node.cum is None:
                node.cum = np.cumsum(node.probs)
                # the outcome is forced if the least and the greatest
                # uniform pick it: the pick is monotone in the uniform
                least, most = categorical_indices(node.cum,
                                                  _U_BOUNDS).tolist()
                node.forced = least if least == most else None
            k = node.forced
            if k is not None:
                return [(node.children[k], path + (k,), rows)]
            if len(rows) < _MIN_GROUP:
                finish(s, pos, rows)
                return ()
            picks = categorical_indices(
                node.cum, words.uniform01(rows, pos + len(path)))
            return [(node.children[k], path + (k,), part)
                    for k, part in _partition(picks, rows)]

        groups = [(self.init, 0, np.arange(n))]   # words drawn, trial rows
        while groups:
            groups = _advance(model, cfg, steps, start + (steps + 1) * cfg.dt,
                              groups, self._entry, sample, settle, finish)
            steps += 1
        return out


def run_ensemble(model: CausalModel, init: SystemState, cfg: RunConfig,
                 trials: int) -> Ensemble:
    """Run ``trials`` Monte Carlo trials from ``init``; iterating the result
    yields one (termination, final state) pair per trial, in trial order.

    Trial t equals ``run(model, init, replace(cfg, seed=derive_seed(
    cfg.seed, t)))``: same termination, same final state, same draws. A
    step from an immutable pre-state depends only on that state and the
    categorical outcomes it draws, so the halt check, law selection and
    every explored outcome path are computed once per distinct pre-state
    and shared by all trials that reach it together, failures included;
    a trial that leaves the shared walk runs ``run``'s own loop on from
    there. Trials that end together share one pair. Ensembles record no
    rows, so ``cfg.observables`` must be empty.
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


# a CSV column's %-format and the argument columns it takes from the
# column's values, by their one payload type. "%.17g" is the routine of
# format(x, ".17g"), so each cell reads as format_scalar writes it.
_CSV_CELLS = {
    int: ("%d", lambda c: (c,)),
    float: ("%.17g", lambda c: (c,)),
    bool: ("%s", lambda c: (["true" if x else "false" for x in c],)),
    complex: ("%.17g%+.17gi",
              lambda c: ([z.real for z in c], [z.imag for z in c])),
}


def _csv_column(column) -> tuple:
    """(%-format, argument columns) of one CSV column: by the payload type
    its values share (an observable's static kind), else each value's
    ``format_scalar`` text."""
    types = set(map(type, column))
    cell = _CSV_CELLS.get(types.pop()) if len(types) == 1 else None
    if cell is None:
        return "%s", ([format_scalar(x) for x in column],)
    fmt, split = cell
    return fmt, split(column)


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


@entry_point
def write_trace(trace: Trace, format_: str = "csv", sink=None) -> int:
    """Serialize a trace as CSV or JSONL; returns bytes written.

    CSV: header ``step,time,<observables>`` and one row per recorded row,
    floats with 17 significant digits; every row is written by one
    %-format, built per trace from its columns' payload types. JSONL: one
    object per row plus a trailing metadata object carrying the config and
    termination reason.
    """
    names = trace.observable_names
    if format_ == "csv":
        lines = ["step,time" + ("," + ",".join(names) if names else "")]
        rows = trace.rows
        formats, args = [], []
        for column in ([r.step for r in rows], [r.time for r in rows],
                       *zip(*[r.values for r in rows])):
            fmt, parts = _csv_column(column)
            formats.append(fmt)
            args += parts
        line = ",".join(formats)
        lines += [line % cells for cells in zip(*args)]
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


def _termination_key(t: Termination):
    """Equal keys mean equal text: a witness is keyed by identity."""
    if t.witness is not None:
        return id(t)
    return t.kind, t.message, tuple(t.laws)


@entry_point
def world_tree_text(tree: WorldTree) -> str:
    """``json.dumps`` of the tree's JSON form with ``indent=2``, written
    straight from the nodes.

    Each node carries, in this order, its ``weight``, its ``outcome`` if
    any, ``"pruned": true`` or else its ``termination`` if any, its
    ``state`` if it is a leaf with a snapshot, and its ``children`` if
    any. The nodes are walked with an explicit stack, so a tree deeper
    than the recursion limit is written like any other.

    Text is built once per distinct value in one call. A positive weight
    of type ``float`` is formatted once; any other weight is formatted
    each time, so 0.0 and -0.0, NaN, and 1, 1.0 and True never share a
    text. A leaf's state and termination text is built once per depth
    and object, found by identity first; on a miss, by value: a state by
    ``state_key``, a termination without a witness by its kind, message
    and laws (one with a witness only by identity), so equal but distinct
    objects share one text too. The tree holds every keyed object, so no
    id is reused while the call runs.
    """
    # (depth, id or value key) -> a leaf's state or termination text; an
    # id is an int, a state's value key a pair and a termination's a
    # triple, and an id is only ever the key of its own object
    fragments: dict = {}
    layouts: dict = {}
    weights: dict = {}      # a positive float -> its text

    def fragment(d: int, leaf, value_key, to_json) -> str:
        """A leaf's text, on a miss by identity."""
        key = (d, value_key(leaf))
        text = fragments.get(key)
        if text is None:
            text = fragments[key] = dumps_indented(
                to_json(leaf)).replace("\n", "\n" + "  " * d)
        fragments[d, id(leaf)] = text
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

    out = ['{\n  "prunedMass": ', _scalar(tree.pruned_mass), ',\n  "root": ']
    emit = out.append
    # one entry per node whose children are being written: (iterator over
    # the rest of them, text before the next one, text after the last one)
    stack: list = []
    node, d = tree.root, 2      # d: indent depth of the node's keys
    while True:
        (head, outcome, pruned, termination, state, close, children_,
         sibling, close_children) = layouts.get(d) or layout(d)
        emit(head)
        w = node.weight
        if type(w) is float and w > 0.0:
            emit(weights.get(w) or weights.setdefault(w, _float(w)))
        else:
            emit(_scalar(w))
        if node.outcome is not None:
            emit(outcome)
            emit(_string(node.outcome))
        if node.pruned:
            emit(pruned)
        elif node.termination is not None:
            t = node.termination
            emit(termination)
            emit(fragments.get((d, id(t)))
                 or fragment(d, t, _termination_key, termination_to_json))
        if node.children:
            emit(children_)
            children = iter(node.children)
            node = next(children)
            stack.append((children, sibling, close_children))
            d += 2
            continue
        s = node.snapshot
        if s is not None:
            emit(state)
            emit(fragments.get((d, id(s)))
                 or fragment(d, s, state_key, state_to_json))
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
