"""Canonical S-expression model format.

    tree       := (leaf LABEL) | (node FEATURE THRESHOLD tree tree)
    deeptree   := (cascade tree+)            ; first layer first
    forest     := (forest tree+)
    deepforest := (deepforest (classes INT+) forest+)

Labels are integers in int64's range, written "+1" and "-1" in the
two-class theory core.
Thresholds are finite reals and print with round-trip precision.
Whitespace is insignificant. Reading, building and printing use explicit
stacks, so any nesting depth parses and prints.
"""

import math
import re

from .ensemble import CascadeForest, DeepTree, Forest
from .errors import ArityError, LabelDomainError, ModelSyntaxError
from .tree import Leaf, Node, Tree, render


class _Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text, line, column):
        self.text = text
        self.line = line
        self.column = column


# a parenthesis, or a run of anything but whitespace and parentheses; for
# str patterns \s matches exactly the characters str.isspace() accepts
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str) -> list[_Token]:
    """Tokens with their 1-based line and column; only "\n" ends a line,
    and any other whitespace character is one column."""
    return [
        _Token(match.group(), line, match.start() + 1)
        for line, row in enumerate(text.split("\n"), start=1)
        for match in _TOKEN.finditer(row)
    ]


class _Form:
    """A parenthesized group: children plus the opening token's position."""

    __slots__ = ("items", "line", "column")

    def __init__(self, items, line, column):
        self.items = items
        self.line = line
        self.column = column


def _read_forms(tokens: list[_Token]):
    """The single top-level form; the stack holds the groups still open."""
    stack: list = []
    for pos, tok in enumerate(tokens):
        if tok.text == "(":
            stack.append(_Form([], tok.line, tok.column))
            continue
        if tok.text == ")":
            if not stack:
                raise ModelSyntaxError("unexpected ')'", tok.line, tok.column)
            item = stack.pop()
        else:
            item = tok
        if stack:
            stack[-1].items.append(item)
        elif pos + 1 < len(tokens):
            extra = tokens[pos + 1]
            raise ModelSyntaxError(f"trailing input {extra.text!r}", extra.line, extra.column)
        else:
            return item
    opening = stack[-1]
    raise ModelSyntaxError("unclosed '('", opening.line, opening.column)


def _expect_form(obj, what):
    if not isinstance(obj, _Form):
        raise ModelSyntaxError(f"expected {what}, got atom {obj.text!r}", obj.line, obj.column)
    if not obj.items or not isinstance(obj.items[0], _Token):
        raise ModelSyntaxError(f"expected {what}", obj.line, obj.column)
    return obj.items[0].text


def _parse_int(tok, what):
    if isinstance(tok, _Form):
        raise ModelSyntaxError(f"expected {what}, got '('", tok.line, tok.column)
    try:
        return int(tok.text)
    except ValueError:
        raise ModelSyntaxError(f"expected {what}, got {tok.text!r}", tok.line, tok.column) from None


def _parse_label(tok):
    if isinstance(tok, _Form):
        raise LabelDomainError("leaf label must be an integer", tok.line, tok.column)
    try:
        label = int(tok.text)
    except ValueError:
        raise LabelDomainError(f"leaf label must be an integer, got {tok.text!r}", tok.line, tok.column) from None
    if not -(2**63) <= label < 2**63:
        # predictions are int64 arrays
        raise LabelDomainError(f"leaf label must fit in int64, got {tok.text!r}", tok.line, tok.column)
    return label


def _parse_threshold(tok):
    if isinstance(tok, _Form):
        raise ModelSyntaxError("expected a threshold, got '('", tok.line, tok.column)
    try:
        value = float(tok.text)
    except ValueError:
        raise ModelSyntaxError(f"expected a threshold, got {tok.text!r}", tok.line, tok.column) from None
    if not math.isfinite(value):
        raise ModelSyntaxError(f"threshold must be finite, got {tok.text!r}", tok.line, tok.column)
    return value


def _build_tree(root) -> Tree:
    """Check tree forms in pre-order, then build bottom-up from the reversed
    pre-order: a node's two subtrees are the last two trees built."""
    preorder: list = []  # a Leaf, or a node's (feature, threshold)
    stack = [root]
    while stack:
        form = stack.pop()
        head = _expect_form(form, "a tree form")
        rest = form.items[1:]
        if head == "leaf":
            if len(rest) != 1:
                raise ArityError(f"(leaf ...) takes 1 argument, got {len(rest)}", form.line, form.column)
            preorder.append(Leaf(_parse_label(rest[0])))
        elif head == "node":
            if len(rest) != 4:
                raise ArityError(f"(node ...) takes 4 arguments, got {len(rest)}", form.line, form.column)
            feature = _parse_int(rest[0], "a feature index")
            if feature < 1:
                raise ModelSyntaxError(f"feature index must be >= 1, got {feature}", form.line, form.column)
            preorder.append((feature, _parse_threshold(rest[1])))
            stack += (rest[3], rest[2])
        else:
            raise ModelSyntaxError(f"unknown tree form {head!r}", form.line, form.column)
    built: list = []
    for item in reversed(preorder):
        built.append(item if isinstance(item, Leaf) else Node(*item, built.pop(), built.pop()))
    return built[0]


def _build_forest(form) -> Forest:
    rest = form.items[1:]
    if not rest:
        raise ArityError("(forest ...) needs at least one tree", form.line, form.column)
    return Forest(tuple(_build_tree(f) for f in rest))


def _build_model(form):
    head = _expect_form(form, "a model form")
    if head in ("leaf", "node"):
        return _build_tree(form)
    rest = form.items[1:]
    if head == "cascade":
        if not rest:
            raise ArityError("(cascade ...) needs at least one tree", form.line, form.column)
        return DeepTree(tuple(_build_tree(f) for f in rest))
    if head == "forest":
        return _build_forest(form)
    if head == "deepforest":
        if len(rest) < 2:
            raise ArityError(
                "(deepforest ...) needs a class list and at least one forest", form.line, form.column
            )
        classes_form = rest[0]
        if _expect_form(classes_form, "a (classes ...) list") != "classes":
            raise ModelSyntaxError("first deepforest child must be (classes ...)", classes_form.line, classes_form.column)
        classes = tuple(_parse_int(t, "a class label") for t in classes_form.items[1:])
        if not classes:
            raise ArityError("(classes ...) needs at least one label", classes_form.line, classes_form.column)
        layers = []
        for f in rest[1:]:
            if _expect_form(f, "a (forest ...) layer") != "forest":
                raise ModelSyntaxError("deepforest layers must be (forest ...) forms", f.line, f.column)
            layers.append(_build_forest(f))
        return CascadeForest(tuple(layers), classes)
    raise ModelSyntaxError(f"unknown model form {head!r}", form.line, form.column)


def parse_model(text: str):
    """Parse model text into a Leaf/Node, DeepTree, Forest, or CascadeForest."""
    tokens = _tokenize(text)
    if not tokens:
        raise ModelSyntaxError("empty input", 1, 1)
    return _build_model(_read_forms(tokens))


def _format_label(label: int) -> str:
    return "+1" if label == 1 else str(label)


def _format_threshold(value: float) -> str:
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(float(value))


def _print_tree(tree: Tree) -> str:
    return render(
        tree, lambda leaf: f"(leaf {_format_label(leaf.label)})",
        lambda node: f"(node {node.feature} {_format_threshold(node.threshold)} ", " ", ")",
    )


def print_model(model) -> str:
    """Canonical single-line text; parse_model(print_model(m)) == m."""
    if isinstance(model, (Leaf, Node)):
        return _print_tree(model)
    if isinstance(model, DeepTree):
        return "(cascade " + " ".join(_print_tree(t) for t in model.layers) + ")"
    if isinstance(model, Forest):
        return "(forest " + " ".join(_print_tree(t) for t in model.trees) + ")"
    if isinstance(model, CascadeForest):
        classes = "(classes " + " ".join(_format_label(c) for c in model.classes) + ")"
        layers = " ".join(print_model(layer) for layer in model.layers)
        return f"(deepforest {classes} {layers})"
    raise TypeError(f"not a model: {type(model).__name__}")
