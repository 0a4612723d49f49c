"""Layer-graph IR: shape inference, channel-dependency groups, rewriting.

A ModelGraph is a DAG of LayerNodes wired producer -> consumer, with
``INPUT`` naming the graph input. Shape inference and channel
provenance are each one walk in topological order over a table seeded
with the graph input's entry. Channel provenance numbers every
Dense/Conv2D output channel once as a slot, records the slot each
node's channels (or features) come from, and groups the slots residual
adds tie by min-label propagation; it is the one place that says how
channels flow through a node kind. A graph keeps the slot table it
last built and hands it out again while its structure (input shape and,
per node, id, kind, attributes and inputs) is unchanged; any structural
edit builds a fresh one. Everyone who asks for the table shares it, so
it is read-only: its arrays refuse writes and its layer list is a tuple.
The rewrite keeps, at every node, the channels whose slot is not
removed, slicing each tensor into a genuinely smaller graph whose
forward pass matches the masked original.
It has one body, ``_rewrite``, which reads a slot table and a per-slot
removal mask: ``rewrite_remove_channels`` validates a set of
(layer, channel) removals against the graph's table and calls it, and
``pruner.execute`` calls it on the table and mask its plan already holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INPUT = "@input"

KINDS = {
    "Dense", "Conv2D", "BatchNorm", "ReLU", "MaxPool", "AvgPool",
    "GlobalAvgPool", "Add", "Concat", "Flatten", "Dropout", "Softmax",
}

# Kinds that pass their input's channel structure through unchanged.
PASSTHROUGH = {
    "BatchNorm", "ReLU", "MaxPool", "AvgPool", "GlobalAvgPool",
    "Dropout", "Softmax",
}


class GraphError(ValueError):
    """Malformed graph: bad wiring, shape mismatch, or kind misuse."""


class RewriteRefusal(ValueError):
    """A removal set would delete every channel of some layer."""


@dataclass
class LayerNode:
    id: str
    kind: str
    attrs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)


class ModelGraph:
    """DAG of layers with a single designated output node.

    Nodes are stored in insertion order, which must be topological
    (every input of a node is added before the node itself).
    """

    def __init__(self, input_shape):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.nodes: dict[str, LayerNode] = {}
        self.output_id: str | None = None
        self._slots = None  # the last channel_provenance table, see there

    def add(self, node: LayerNode) -> LayerNode:
        if node.kind not in KINDS:
            raise GraphError(f"unknown layer kind {node.kind!r}")
        if node.id in self.nodes or node.id == INPUT:
            raise GraphError(f"duplicate node id {node.id!r}")
        for src in node.inputs:
            if src != INPUT and src not in self.nodes:
                raise GraphError(f"{node.id}: unknown input {src!r}")
        self.nodes[node.id] = node
        self.output_id = node.id
        return node

    def set_output(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise GraphError(f"unknown output node {node_id!r}")
        self.output_id = node_id

    def copy(self) -> "ModelGraph":
        g = ModelGraph(self.input_shape)
        g.nodes = {nid: LayerNode(nid, n.kind, dict(n.attrs),
                                  {k: v.copy() for k, v in n.params.items()},
                                  list(n.inputs))
                   for nid, n in self.nodes.items()}
        g.output_id = self.output_id
        return g

    def parameters(self):
        """Yields (node_id, name, array) for every parameter tensor."""
        for node in self.nodes.values():
            for name, arr in node.params.items():
                yield node.id, name, arr


# --- shape inference ----------------------------------------------------
# Shapes exclude the batch axis: (C, H, W) for images, (F,) for vectors.

def _window_out(node, size):
    """Output extent of a Conv2D or pooling window along an input axis of
    ``size``. The window may be wider than the input by at most one
    side's padding (k <= size + pad), so the first window's last tap
    still reads the input. A 3x3, pad-1 conv on a 2x2 map (VGG's last
    block) passes; a window that dwarfs its input, whose im2col buffer
    would grow with k**2, does not."""
    kk, pad = node.attrs["k"], node.attrs.get("pad", 0)
    if kk > size + pad:
        raise GraphError(f"{node.id}: window {kk} wider than input extent {size} plus pad {pad}")
    return (size + 2 * pad - kk) // node.attrs["stride"] + 1


def infer_shapes(g: ModelGraph) -> dict[str, tuple]:
    shapes: dict[str, tuple] = {INPUT: g.input_shape}
    for node in g.nodes.values():
        ins = [shapes[s] for s in node.inputs]
        k = node.kind
        if k == "Dense":
            (s,) = ins
            if len(s) != 1 or s[0] != node.attrs["in"]:
                raise GraphError(f"{node.id}: Dense expects ({node.attrs['in']},), got {s}")
            shapes[node.id] = (node.attrs["out"],)
        elif k == "Conv2D":
            (s,) = ins
            if len(s) != 3 or s[0] != node.attrs["in"]:
                raise GraphError(f"{node.id}: Conv2D expects {node.attrs['in']} channels, got {s}")
            shapes[node.id] = (node.attrs["out"], _window_out(node, s[1]), _window_out(node, s[2]))
        elif k == "BatchNorm":
            (s,) = ins
            if s[0] != node.attrs["channels"]:
                raise GraphError(f"{node.id}: BatchNorm over {node.attrs['channels']} channels, input has {s[0]}")
            shapes[node.id] = s
        elif k in ("ReLU", "Dropout", "Softmax"):
            (s,) = ins
            shapes[node.id] = s
        elif k in ("MaxPool", "AvgPool"):
            (s,) = ins
            if len(s) != 3:
                raise GraphError(f"{node.id}: pooling needs (C,H,W), got {s}")
            shapes[node.id] = (s[0], _window_out(node, s[1]), _window_out(node, s[2]))
        elif k == "GlobalAvgPool":
            (s,) = ins
            if len(s) != 3:
                raise GraphError(f"{node.id}: global pooling needs (C,H,W), got {s}")
            shapes[node.id] = (s[0],)
        elif k == "Flatten":
            (s,) = ins
            shapes[node.id] = (int(np.prod(s)),)
        elif k == "Add":
            if len(ins) < 2:
                raise GraphError(f"{node.id}: Add needs at least two inputs")
            if any(s != ins[0] for s in ins[1:]):
                raise GraphError(f"{node.id}: Add inputs disagree: {ins}")
            shapes[node.id] = ins[0]
        elif k == "Concat":
            if len(ins) < 2:
                raise GraphError(f"{node.id}: Concat needs at least two inputs")
            if any(len(s) != len(ins[0]) or s[1:] != ins[0][1:] for s in ins[1:]):
                raise GraphError(f"{node.id}: Concat inputs disagree beyond channel axis: {ins}")
            shapes[node.id] = (sum(s[0] for s in ins),) + ins[0][1:]
        else:  # pragma: no cover
            raise GraphError(f"unhandled kind {k}")
    if g.output_id is None:
        raise GraphError("empty graph")
    del shapes[INPUT]
    return shapes


# --- channel dependency analysis ----------------------------------------

class ChannelGroup(NamedTuple):
    """Channels that must be pruned together. Slots are (layer_id, channel)."""
    gid: int
    slots: frozenset
    prunable: bool = True


class ChannelSlots(NamedTuple):
    """Every Dense/Conv2D output channel numbered once as a slot, in node
    order and then channel order, with the removal group of each slot.

    A group's root is its smallest slot, and group ids follow root order.
    """
    layers: tuple  # Dense/Conv2D node ids, in node order
    start: np.ndarray  # layers[i] owns slots start[i]:start[i + 1]
    layer: np.ndarray  # slot -> index into layers
    prov: dict  # node id or INPUT -> slot of each output channel, -1 if
    #             it comes from the graph input
    gid: np.ndarray  # slot -> group id
    prunable: np.ndarray  # group id -> not tied to graph-input channels
    structure: tuple  # _structure of the graph the table was built from

    def groups(self, gids) -> list[ChannelGroup]:
        """The ChannelGroup of each listed group id, in the listed order."""
        order = np.argsort(self.gid, kind="stable")
        owner = self.layer[order]
        slots = list(zip([self.layers[i] for i in owner.tolist()],
                         (order - self.start[owner]).tolist()))
        ends = np.cumsum(np.bincount(self.gid, minlength=len(self.prunable)))
        starts = ([0] + ends.tolist())[:-1]
        ends, prunable = ends.tolist(), self.prunable.tolist()
        return [ChannelGroup(gid, frozenset(slots[starts[gid]:ends[gid]]),
                             prunable[gid])
                for gid in np.asarray(gids, dtype=np.intp).tolist()]


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per slot, the smallest slot of its connected component under the
    ties a[i] -- b[i]: min-label propagation with pointer jumping."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _structure(g: ModelGraph) -> tuple:
    """Everything a slot table is derived from: the input shape and, in
    order, each node's id, kind, attributes and inputs."""
    return g.input_shape, tuple((nid, n.kind, dict(n.attrs), tuple(n.inputs))
                                for nid, n in g.nodes.items())


def channel_provenance(g: ModelGraph) -> ChannelSlots:
    """The slot table of g. ``prov`` gives, per node, the slot that
    produced each output channel: a Flatten repeats each input slot over
    the features it flattens, an Add passes on each position's first
    slot and ties the positions' slots into one group, a Concat joins
    its inputs' slots, and a channel from the graph input is -1. A group
    tied positionally to graph-input channels is not prunable.

    The table is kept on g and returned again, the same object, while
    g's ``_structure`` equals the one it was built from; any change to
    the input shape or to a node's id, kind, attributes or inputs builds
    a fresh table. Every caller shares it, so it is read-only: ``start``,
    ``layer``, ``gid``, ``prunable`` and each ``prov`` array refuse
    writes, and ``layers`` is a tuple."""
    structure = _structure(g)
    if g._slots is not None and g._slots.structure == structure:
        return g._slots
    shapes = infer_shapes(g)  # validates wiring first
    layers, widths, tie_a, tie_b, frozen = [], [], [], [], []
    prov: dict = {INPUT: np.full(g.input_shape[0], -1)}
    n = 0
    for node in g.nodes.values():
        k = node.kind
        if k in ("Dense", "Conv2D"):
            width = node.attrs["out"]
            layers.append(node.id)
            widths.append(width)
            prov[node.id] = np.arange(n, n + width)
            n += width
        elif k in PASSTHROUGH:
            prov[node.id] = prov[node.inputs[0]]
        elif k == "Flatten":
            src = prov[node.inputs[0]]
            prov[node.id] = np.repeat(src, shapes[node.id][0] // len(src))
        elif k == "Add":
            members = np.stack([prov[s] for s in node.inputs])
            real = members >= 0
            first = members[real.argmax(axis=0), np.arange(members.shape[1])]
            tie_a.append(members[real])
            tie_b.append(np.broadcast_to(first, members.shape)[real])
            frozen.append(members[real & ~real.all(axis=0)])
            prov[node.id] = first
        else:  # Concat
            prov[node.id] = np.concatenate([prov[s] for s in node.inputs])
    label = _min_labels(n, np.concatenate(tie_a), np.concatenate(tie_b)) \
        if tie_a else np.arange(n)
    roots, gid = np.unique(label, return_inverse=True)
    prunable = np.ones(len(roots), dtype=bool)
    if frozen:
        prunable[gid[np.concatenate(frozen)]] = False
    t = ChannelSlots(
        layers=tuple(layers),
        start=np.concatenate(([0], np.cumsum(widths, dtype=int))),
        layer=np.repeat(np.arange(len(layers)), widths), prov=prov,
        gid=gid, prunable=prunable, structure=structure)
    for a in (t.start, t.layer, t.gid, t.prunable, *prov.values()):
        a.flags.writeable = False  # a passthrough aliases its producer's
    g._slots = t
    return t


def build_channel_groups(g: ModelGraph) -> list[ChannelGroup]:
    """Partition all conv/dense output channels into removal groups.

    Channels merged positionally through an Add share a group; a group
    positionally tied to graph-input channels is marked un-prunable.
    """
    slots = channel_provenance(g)
    return slots.groups(np.arange(len(slots.prunable)))


# --- structural rewrite -------------------------------------------------

def rewrite_remove_channels(g: ModelGraph, removals) -> ModelGraph:
    """Return a new graph with the given channels structurally removed.

    ``removals`` is an iterable of (layer_id, ch) channels of Dense/Conv2D
    layers; it must be a union of whole prunable groups. Every node keeps
    the channels (or features) whose slot is not removed, and its kept
    tensor entries are copied once into the new graph; an empty removal
    set yields an exact copy.
    """
    t = channel_provenance(g)
    index = {lid: i for i, lid in enumerate(t.layers)}
    gone = np.zeros(len(t.gid) + 1, dtype=bool)  # per slot, then slot -1
    for layer_id, ch in removals:
        i, ch = index.get(layer_id), int(ch)
        if i is None or not 0 <= ch < t.start[i + 1] - t.start[i]:
            raise GraphError(f"removal ({layer_id!r}, {ch}) names no output "
                             "channel of a Dense or Conv2D layer of the graph")
        gone[t.start[i] + ch] = True
    hit = np.zeros(len(t.prunable), dtype=bool)  # per group
    hit[t.gid[gone[:-1]]] = True
    bad = (hit[t.gid] != gone[:-1]) | (hit & ~t.prunable)[t.gid]  # per slot
    if bad.any():
        s = int(bad.argmax())
        i = t.layer[s]
        raise GraphError("removal set is not a union of whole prunable "
                         f"channel groups: the group of ({t.layers[i]!r}, "
                         f"{s - t.start[i]}) is split or tied to the graph "
                         "input")
    return _rewrite(g, t, gone)


def _kept_weight(w: np.ndarray, keep: np.ndarray, keep_in: np.ndarray) -> np.ndarray:
    """``w[np.ix_(keep, keep_in)]``, the same bytes in one ``np.take`` of
    the flat (out, in) rows of w."""
    rows = np.flatnonzero(keep)[:, None] * w.shape[1] + np.flatnonzero(keep_in)
    return np.take(w.reshape(w.shape[0] * w.shape[1], -1), rows.ravel(), axis=0) \
        .reshape(rows.shape + w.shape[2:])


def _rewrite(g: ModelGraph, t: ChannelSlots, gone: np.ndarray) -> ModelGraph:
    """The rewrite body: g without the slots of its slot table t that
    ``gone`` marks (one entry per slot, then False for slot -1), which
    must be a union of whole prunable groups. A table built for another
    graph is refused before any tensor is copied."""
    if t.structure != _structure(g):
        raise GraphError("the slot table was built for another graph: its "
                         "nodes, attributes or wiring differ from this one's")
    out = ModelGraph(g.input_shape)
    for node in g.nodes.values():
        attrs = dict(node.attrs)
        keep = keep_in = ~gone[t.prov[node.id]]
        if node.kind in ("Dense", "Conv2D"):
            if not keep.any():
                raise RewriteRefusal(f"removal set empties layer {node.id!r}")
            keep_in = ~gone[t.prov[node.inputs[0]]]
            attrs["in"], attrs["out"] = int(keep_in.sum()), int(keep.sum())
        elif node.kind == "BatchNorm":
            attrs["channels"] = int(keep.sum())
        # tensors run over the node's output channels; a weight's second
        # axis runs over its input's
        params = {name: _kept_weight(a, keep, keep_in) if name == "w" else a[keep]
                  for name, a in node.params.items()}
        out.nodes[node.id] = LayerNode(node.id, node.kind, attrs, params,
                                       list(node.inputs))
    out.output_id = g.output_id
    return out
