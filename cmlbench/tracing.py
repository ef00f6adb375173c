"""Per-layer tracing from outside the program.

Each hook wraps one function at the name through which a calling layer
reaches it. For a name bound with ``from x import y`` that is the importing
module's copy, so the table lists the importing module, not the defining
one. A wrapper records one span per call (group, parent span, command,
start, end, time spent in child spans, whether it returned) and keeps the
spans in memory; ``Recorder.metrics`` aggregates them into the per-layer
metrics and ``Recorder.write_spans`` writes them out when the run ends.

The table is the only place that names program internals. A hook whose
attribute no longer exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import gzip
import importlib
import time
import types

# (module, attribute, group). A dotted attribute names a method of a class,
# or a function of a module imported whole (``json.dumps`` as cli sees it).
HOOKS = (
    ("causalkit.cli", "compile_model", "frontend.compile"),
    ("causalkit.cli", "parse_expression", "frontend.compile"),
    ("causalkit.cli", "check_standalone_expr", "frontend.compile"),
    ("causalkit.bundled", "load_model", "frontend.compile"),
    ("causalkit.cli", "build_bundled_model", "bundled.build"),
    ("causalkit.interpreter", "RngStream", "rng.stream_new"),
    ("causalkit.analyzer", "RngStream", "rng.stream_new"),
    ("causalkit.rng", "RngStream.categorical", "rng.draw"),
    ("causalkit.rng", "RngStream.uniform01", "rng.draw"),
    ("causalkit.rng", "RngStream.normal", "rng.draw"),
    ("causalkit.engine", "eval_guard", "engine.eval_guard"),
    ("causalkit.analyzer", "eval_guard", "engine.eval_guard"),
    ("causalkit.interpreter", "select_law", "engine.select_law"),
    ("causalkit.interpreter", "apply_law", "engine.apply_law"),
    ("causalkit.analyzer", "apply_law", "engine.apply_law"),
    ("causalkit.engine", "check_value", "state.check_value"),
    ("causalkit.state", "check_value", "state.check_value"),
    ("causalkit.analyzer", "sample_state", "state.sample_state"),
    ("causalkit.analyzer", "state_to_json", "state.to_json"),
    ("causalkit.interpreter", "state_to_json", "state.to_json"),
    ("causalkit.cli", "run", "interpreter.run"),
    ("causalkit.cli", "write_trace", "interpreter.write_trace"),
    ("causalkit.cli", "branch_run", "interpreter.branch_run"),
    ("causalkit.interpreter", "ReplaySource", "interpreter.replay_source"),
    ("causalkit.analyzer", "check_consistency", "analyzer.consistency"),
    ("causalkit.analyzer", "check_completeness", "analyzer.completeness"),
    ("causalkit.quantum", "schrodinger_step", "quantum.schrodinger_step"),
    ("causalkit.quantum", "pw_detect", "quantum.pw_detect"),
    ("causalkit.quantum", "pw_interact", "quantum.pw_interact"),
    ("causalkit.quantum", "ca_step", "quantum.ca_step"),
    ("causalkit.pw", "PwCollection.amplitudes", "pw.amplitudes"),
    ("causalkit.pw", "PwCollection.attr_array", "pw.attr_array"),
    ("causalkit.cli", "json.dumps", "cli.json_encode"),
    ("causalkit.cli", "write_text", "cli.write"),
)

COMMAND = "cli.command"   # root span of one `cml` command

# Span fields, kept as lists for speed.
GROUP, CMD, PARENT, START, END, CHILD, OK, OUTER = range(8)


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}          # open spans per group
        self.command_id = 0
        self.guard_true = 0
        self.states_checked = 0
        self.branch_nodes = 0
        self.branch_replays = 0
        self.absent = []
        self._undo = []

    # --- installing hooks -------------------------------------------------------

    def install(self, hooks=HOOKS):
        posts = {"engine.eval_guard": self._post_guard,
                 "analyzer.consistency": self._post_check,
                 "analyzer.completeness": self._post_check,
                 "interpreter.branch_run": self._post_branch,
                 "interpreter.replay_source": self._post_replay}
        for module_name, attr, group in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            head, _, tail = attr.rpartition(".")
            owner = module
            for part in filter(None, head.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, tail, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(group, original, posts.get(group))
            if isinstance(owner, types.ModuleType) and owner is not module:
                # A module imported whole: give only this importer a copy
                # with the wrapped function, so other users are untouched.
                proxy = types.ModuleType(owner.__name__)
                proxy.__dict__.update(owner.__dict__)
                setattr(proxy, tail, wrapper)
                self._replace(module, head, proxy)
            else:
                self._replace(owner, tail, wrapper)

    def _replace(self, owner, name, value):
        had_own = name in vars(owner)
        self._undo.append((owner, name, getattr(owner, name), had_own))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # --- spans ------------------------------------------------------------------

    def wrap(self, group, fn, post=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns
        depth.setdefault(group, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [group, self.command_id, parent, 0, 0, 0, True,
                    depth[group] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[group] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                end = clock()
                span[END] = end
                stack.pop()
                depth[group] -= 1
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def command(self, main, argv):
        """Run one `cml` command under a root span."""
        self.command_id += 1
        return self.wrap(COMMAND, main)(argv)

    # The post hooks read results with getattr, so a renamed field reads 0
    # instead of failing the traced command.

    def _post_guard(self, args, result):
        self.guard_true += result is True

    def _post_check(self, args, verdict):
        self.states_checked += getattr(verdict, "states_checked", 0)

    def _post_branch(self, args, tree):
        stack = [getattr(tree, "root", None)]
        while stack:
            node = stack.pop()
            if node is not None:
                self.branch_nodes += 1
                stack.extend(getattr(node, "children", ()))

    def _post_replay(self, args, source):
        self.branch_replays += bool(args and args[0])

    # --- aggregation -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit).

        ``*_self_s`` is span time minus child spans. Any other ``*_s`` is the
        time of the outermost spans of its group, so a recursive call such
        as check_value is not counted twice. engine.guard_hit_ratio is
        guards that held over guards evaluated (in run and branch each one
        that held selected a law); interpreter.branch_useful_ratio is
        apply_law calls inside branch_run that returned a state over all
        of them, the rest having stopped at a fork.
        """
        count, outer_ns, self_ns = {}, {}, {}
        outer_count = {}
        applied = branch_apply = branch_apply_ok = 0
        spans = self.spans
        for s in spans:
            g = s[GROUP]
            dur = s[END] - s[START]
            count[g] = count.get(g, 0) + 1
            self_ns[g] = self_ns.get(g, 0) + dur - s[CHILD]
            if s[OUTER]:
                outer_ns[g] = outer_ns.get(g, 0) + dur
                outer_count[g] = outer_count.get(g, 0) + 1
            if g == "engine.apply_law":
                applied += s[OK]
                if (s[PARENT] >= 0 and spans[s[PARENT]][GROUP]
                        == "interpreter.branch_run"):
                    branch_apply += 1
                    branch_apply_ok += s[OK]

        def n(g):
            return count.get(g, 0)

        def incl(g):
            return outer_ns.get(g, 0) / 1e9

        def own(g):
            return self_ns.get(g, 0) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "frontend.compile_s": (incl("frontend.compile"), "s"),
            "bundled.build_s": (incl("bundled.build"), "s"),
            "rng.streams": (n("rng.stream_new"), "count"),
            "rng.stream_new_s": (own("rng.stream_new"), "s"),
            "rng.draws": (outer_count.get("rng.draw", 0), "count"),
            "engine.guard_evals": (n("engine.eval_guard"), "count"),
            "engine.eval_guard_s": (incl("engine.eval_guard"), "s"),
            "engine.select_law_s": (incl("engine.select_law"), "s"),
            "engine.laws_applied": (applied, "count"),
            "engine.apply_law_self_s": (own("engine.apply_law"), "s"),
            "engine.guard_hit_ratio": (
                ratio(self.guard_true, n("engine.eval_guard")), "ratio"),
            "state.check_value_calls": (n("state.check_value"), "count"),
            "state.check_value_s": (incl("state.check_value"), "s"),
            "state.sample_state_calls": (n("state.sample_state"), "count"),
            "state.sample_state_s": (incl("state.sample_state"), "s"),
            "state.to_json_s": (incl("state.to_json"), "s"),
            "interpreter.run_calls": (n("interpreter.run"), "count"),
            "interpreter.run_self_s": (own("interpreter.run"), "s"),
            "interpreter.write_trace_s": (incl("interpreter.write_trace"), "s"),
            "interpreter.branch_run_self_s": (
                own("interpreter.branch_run"), "s"),
            "interpreter.branch_nodes": (self.branch_nodes, "count"),
            "interpreter.branch_replays": (self.branch_replays, "count"),
            "interpreter.branch_useful_ratio": (
                ratio(branch_apply_ok, branch_apply), "ratio"),
            "analyzer.consistency_s": (incl("analyzer.consistency"), "s"),
            "analyzer.completeness_s": (incl("analyzer.completeness"), "s"),
            "analyzer.states_drawn": (n("state.sample_state"), "count"),
            "analyzer.states_checked": (self.states_checked, "count"),
            "analyzer.check_ratio": (
                ratio(self.states_checked, n("state.sample_state")), "ratio"),
        }
        for kernel in ("schrodinger_step", "pw_detect", "pw_interact",
                       "ca_step"):
            m[f"quantum.{kernel}_calls"] = (n(f"quantum.{kernel}"), "count")
            m[f"quantum.{kernel}_s"] = (incl(f"quantum.{kernel}"), "s")
        m["pw.amplitudes_calls"] = (n("pw.amplitudes"), "count")
        m["pw.attr_array_calls"] = (n("pw.attr_array"), "count")
        m["cli.json_encode_s"] = (incl("cli.json_encode"), "s")
        m["cli.write_s"] = (incl("cli.write"), "s")
        return m

    def write_spans(self, path):
        """Write every span as one CSV line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,command,parent,group,start_ns,end_ns,self_ns,ok\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[CMD]},{s[PARENT]},{s[GROUP]},{s[START]},"
                         f"{s[END]},{s[END] - s[START] - s[CHILD]},"
                         f"{int(s[OK])}\n")
