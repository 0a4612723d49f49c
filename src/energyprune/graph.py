"""Layer-graph IR: shape inference, channel-dependency groups, rewriting.

A ModelGraph is a DAG of LayerNodes wired producer -> consumer, with
``INPUT`` naming the graph input. Shape inference, channel provenance
and the rewrite are each one walk in topological order over a table
seeded with the graph input's entry. Channel dependency analysis finds
which output channels must be removed together (residual adds tie
channels positionally; concatenations only shift offsets), and
``rewrite_remove_channels`` derives each node's keep mask from its own
removals and its inputs' masks, slicing its tensors into a genuinely
smaller graph whose forward pass matches the masked original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

@dataclass(frozen=True)
class ChannelGroup:
    """Channels that must be pruned together. Slots are (layer_id, channel)."""
    gid: int
    slots: frozenset
    prunable: bool = True


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def channel_provenance(g: ModelGraph):
    """Per node, a list over output channels of the slot that produced
    each channel (after union-find closure over Adds), or None when the
    channel originates at the graph input or crosses a Flatten.

    Returns (provenance, union_find, frozen_slots) where frozen_slots are
    slots tied positionally to un-prunable channels.
    """
    shapes = infer_shapes(g)  # validates wiring first
    uf = _UnionFind()
    frozen: set = set()
    prov: dict[str, list] = {INPUT: [None] * g.input_shape[0]}
    for node in g.nodes.values():
        k = node.kind
        if k in ("Dense", "Conv2D"):
            slots = [(node.id, i) for i in range(node.attrs["out"])]
            for s in slots:
                uf.add(s)
            prov[node.id] = slots
        elif k in PASSTHROUGH:
            prov[node.id] = prov[node.inputs[0]]
        elif k == "Flatten":
            prov[node.id] = [None] * shapes[node.id][0]
        elif k == "Add":
            merged = []
            for members in zip(*(prov[s] for s in node.inputs)):
                real = [m for m in members if m is not None]
                for a, b in zip(real, real[1:]):
                    uf.union(a, b)
                if real and len(real) != len(members):
                    frozen.update(real)  # tied to graph-input channels
                merged.append(real[0] if real else None)
            prov[node.id] = merged
        else:  # Concat
            prov[node.id] = [s for src in node.inputs for s in prov[src]]
    del prov[INPUT]
    return prov, uf, frozen


def build_channel_groups(g: ModelGraph) -> list[ChannelGroup]:
    """Partition all conv/dense output channels into removal groups.

    Channels merged positionally through an Add share a group; a group
    positionally tied to graph-input channels is marked un-prunable.
    """
    _, uf, frozen = channel_provenance(g)
    frozen_roots = {uf.find(s) for s in frozen}
    buckets: dict = {}
    for slot in uf.parent:
        buckets.setdefault(uf.find(slot), []).append(slot)
    order = {nid: i for i, nid in enumerate(g.nodes)}

    def slot_key(slot):
        return (order[slot[0]], slot[1])

    groups = []
    for gid, root in enumerate(sorted(buckets, key=slot_key)):
        groups.append(ChannelGroup(
            gid=gid,
            slots=frozenset(buckets[root]),
            prunable=root not in frozen_roots,
        ))
    return groups


# --- structural rewrite -------------------------------------------------

def rewrite_remove_channels(g: ModelGraph, removals) -> ModelGraph:
    """Return a new graph with the given channels structurally removed.

    ``removals`` is an iterable of (layer_id, ch) slots; it must be
    closed under the graph's channel grouping. One topological walk
    derives each node's keep mask over its output channels (or features)
    from its own removals and its inputs' masks, and copies the node's
    kept tensor entries once into the new graph; an empty removal set
    yields an exact copy.
    """
    removed: dict = {}
    for layer_id, ch in removals:
        if layer_id not in g.nodes:
            raise GraphError(f"removal names unknown layer {layer_id!r}")
        removed.setdefault(layer_id, []).append(int(ch))
    shapes = infer_shapes(g)
    masks = {INPUT: np.ones(g.input_shape[0], dtype=bool)}
    out = ModelGraph(g.input_shape)
    for node in g.nodes.values():
        k, attrs = node.kind, dict(node.attrs)
        ins = [masks[s] for s in node.inputs]
        if k in ("Dense", "Conv2D"):
            keep = np.ones(attrs["out"], dtype=bool)
            keep[removed.get(node.id, [])] = False
            if not keep.any():
                raise RewriteRefusal(f"removal set empties layer {node.id!r}")
            attrs["in"], attrs["out"] = int(ins[0].sum()), int(keep.sum())
        elif k == "Flatten":
            keep = np.repeat(ins[0], shapes[node.id][0] // len(ins[0]))
        elif k == "Concat":
            keep = np.concatenate(ins)
        else:  # Add and the pass-through kinds
            if any(not np.array_equal(m, ins[0]) for m in ins[1:]):
                raise GraphError(
                    f"{node.id}: removal set is not closed under the Add "
                    "channel grouping")
            keep = ins[0]
            if k == "BatchNorm":
                attrs["channels"] = int(keep.sum())
        masks[node.id] = keep
        # tensors run over the node's output channels; a weight's second
        # axis runs over its input's
        params = {name: t[np.ix_(keep, ins[0])] if name == "w" else t[keep]
                  for name, t in node.params.items()}
        out.nodes[node.id] = LayerNode(node.id, k, attrs, params,
                                       list(node.inputs))
    out.output_id = g.output_id
    return out
