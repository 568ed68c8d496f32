"""Per-layer spans recorded from outside the program.

Each hook wraps one public entry point of a deeptrees layer. A wrapped
call records a span (name, start, end, parent) in memory; the parent is
the innermost wrapped call still open, so a layer's self time is its
span time minus the time its child spans cover.

A function is replaced in every deeptrees module namespace that holds
it, because a module that imported it by name (``experiments`` holds its
own ``train_forest_grown``; ``ensemble`` and ``learn`` hold
``evaluate_batch``) would otherwise call the original and its nested work
would escape the span.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager


def _grown_nodes(root) -> int:
    """Node count of a grown tree (leaves included), without recursion."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        left = getattr(node, "left", None)
        if left is not None:
            stack.append(left)
            stack.append(node.right)
    return count


def _count_grown_tree(counts, args, result):
    counts["learn.trees_grown"] += 1
    counts["learn.nodes_grown"] += _grown_nodes(result)


def _count_grown_forest(counts, args, result):
    counts["learn.trees_grown"] += len(result)
    counts["learn.nodes_grown"] += sum(_grown_nodes(g) for g in result)


def _count_csv_written(counts, args, result):
    counts["data_io.csv_rows"] += len(args[0])


def _count_csv_read(counts, args, result):
    counts["data_io.csv_rows"] += len(result[0])


def _count_rows(metric):
    """Counter of the rows in the second argument: X of evaluate_batch(tree, X)
    and of the method call predict_batch(self, X)."""

    def count(counts, args, result):
        counts[metric] += len(args[1])

    return count


def _count_split(counts, args, result):
    counts["learn.split_calls"] += 1


def _count_cascade(counts, args, result):
    counts["learn.cascade_layers"] += result.depth


def _count_gini(counts, args, result):
    counts["analysis.gini_candidates"] += len(result.gains)


def _count_oracle(counts, args, result):
    counts["analysis.oracle_states"] += result.states_explored


def _count_printed(counts, args, result):
    counts["sexpr.chars"] += len(result)


def _count_parsed(counts, args, result):
    counts["sexpr.chars"] += len(args[0])


# (module, attribute path, layer, counter). A dotted path names a method.
HOOKS = (
    ("data_io", "generate_simulation", "data_io.generate", None),
    ("data_io", "write_csv", "data_io.write_csv", _count_csv_written),
    ("data_io", "read_csv", "data_io.read_csv", _count_csv_read),
    ("learn", "train_tree_grown", "learn.grow", _count_grown_tree),
    ("learn", "train_forest_grown", "learn.grow", _count_grown_forest),
    ("learn", "train_tree", "learn.grow", None),
    ("learn", "train_forest", "learn.grow", None),
    ("learn", "_feature_best", "learn.split", _count_split),
    ("learn", "truncate_depth", "learn.truncate", None),
    ("learn", "truncate_leaves", "learn.truncate", None),
    ("learn", "train_cascade", "learn.cascade", _count_cascade),
    ("tree", "evaluate_batch", "tree.evaluate_batch", _count_rows("tree.rows_evaluated")),
    ("tree", "evaluate", "tree.evaluate", None),
    ("ensemble", "Forest.predict_batch", "ensemble.vote", _count_rows("ensemble.vote_rows")),
    ("ensemble", "Forest.predict", "ensemble.vote", None),
    ("ensemble", "Forest.member_predictions", "ensemble.vote", None),
    ("ensemble", "Forest.vote_fractions", "ensemble.vote", None),
    ("ensemble", "DeepTree.predict_batch", "ensemble.deeptree_predict", None),
    ("ensemble", "DeepTree.predict", "ensemble.deeptree_predict", None),
    ("analysis", "gini_gain_map", "analysis.gini_map", _count_gini),
    ("analysis", "tree_complexity_oracle", "analysis.oracle", _count_oracle),
    ("analysis", "label_partition", "analysis.partition", None),
    ("analysis", "risk_report", "analysis.risk", None),
    ("analysis", "forest_zero_error_leafbound", "analysis.risk", None),
    ("construct", "compile_to_deeptree", "construct.compile", None),
    ("construct", "compile_report", "construct.compile", None),
    ("construct", "build_parity_deeptree", "construct.parity", None),
    ("sexpr", "print_model", "sexpr.print", _count_printed),
    ("sexpr", "parse_model", "sexpr.parse", _count_parsed),
    ("experiments", "write_table", "experiments.write_table", None),
    ("plotting", "render_plots", "plotting.render", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in HOOKS))
# Each count and the layers whose hooks feed it; a count whose layers are
# all gone from the program reports as absent.
COUNTS = {
    "data_io.csv_rows": ("data_io.write_csv", "data_io.read_csv"),
    "learn.trees_grown": ("learn.grow",),
    "learn.nodes_grown": ("learn.grow",),
    "learn.split_calls": ("learn.split",),
    "learn.cascade_layers": ("learn.cascade",),
    "tree.rows_evaluated": ("tree.evaluate_batch",),
    "ensemble.vote_rows": ("ensemble.vote",),
    "analysis.gini_candidates": ("analysis.gini_map",),
    "analysis.oracle_states": ("analysis.oracle",),
    "sexpr.chars": ("sexpr.print", "sexpr.parse"),
}


class Tracer:
    """In-memory span and counter store for one traced iteration."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index)
        self.counts: Counter = Counter()
        self._open: list = []

    def wrap(self, fn, layer, counter):
        spans = self.spans
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (layer, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._open.clear()

    def summary(self) -> tuple[dict, float]:
        """Self time per layer and the time covered by top-level spans."""
        self_time = [end - start for _, start, end, _ in self.spans]
        covered = 0.0
        for (_, start, end, parent) in self.spans:
            if parent < 0:
                covered += end - start
            else:
                self_time[parent] -= end - start
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for (layer, _, _, _), value in zip(self.spans, self_time):
            per_layer[layer] += value
        return per_layer, covered


def _resolve(modules, module_name, path):
    """(owner, attribute, original) for a hook, or None when it is gone."""
    owner = modules.get(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    original = None if owner is None else vars(owner).get(attr)
    return None if original is None else (owner, attr, original)


@contextmanager
def installed(tracer: Tracer, package):
    """Wrap every hook while the block runs; restore the originals after.

    Yields the set of layers none of whose hooks exist in the program.
    """
    prefix = package.__name__ + "."
    modules = {
        name[len(prefix):]: module
        for name, module in list(sys.modules.items())
        if name.startswith(prefix)
    }
    namespaces = [package, *modules.values()]
    patches = []  # (namespace, attribute, original)
    present = set()
    for module_name, path, layer, counter in HOOKS:
        found = _resolve(modules, module_name, path)
        if found is None:
            continue
        owner, attr, original = found
        present.add(layer)
        traced = tracer.wrap(original, layer, counter)
        if "." in path:
            patches.append((owner, attr, original))
            setattr(owner, attr, traced)
            continue
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    patches.append((namespace, name, original))
                    setattr(namespace, name, traced)
    try:
        yield set(LAYERS) - present
    finally:
        for namespace, name, original in reversed(patches):
            setattr(namespace, name, original)
