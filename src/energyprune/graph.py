"""Layer-graph IR: shape inference, channel-dependency groups, rewriting.

A ModelGraph is a DAG of LayerNodes wired producer -> consumer. Channel
dependency analysis finds which output channels must be removed together
(residual adds tie channels positionally; concatenations only shift
offsets), and ``rewrite_remove_channels`` produces a genuinely smaller
graph whose forward pass matches the masked original.
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

    def copy(self) -> "LayerNode":
        return LayerNode(self.id, self.kind, dict(self.attrs),
                         {k: v.copy() for k, v in self.params.items()},
                         list(self.inputs))


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
        if node.id in self.nodes:
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
        g.nodes = {nid: node.copy() for nid, node in self.nodes.items()}
        g.output_id = self.output_id
        return g

    def parameters(self):
        """Yields (node_id, name, array) for every parameter tensor."""
        for node in self.nodes.values():
            for name, arr in node.params.items():
                yield node.id, name, arr


# --- shape inference ----------------------------------------------------
# Shapes exclude the batch axis: (C, H, W) for images, (F,) for vectors.

def _pool_out(size, k, stride, pad=0):
    size = size + 2 * pad
    if size < k:
        raise GraphError(f"pool window {k} larger than input {size}")
    return (size - k) // stride + 1


def infer_shapes(g: ModelGraph) -> dict[str, tuple]:
    shapes: dict[str, tuple] = {}

    def shape_of(src):
        return g.input_shape if src == INPUT else shapes[src]

    for node in g.nodes.values():
        ins = [shape_of(s) for s in node.inputs]
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
            c, h, w = s
            kk, st, pad = node.attrs["k"], node.attrs["stride"], node.attrs["pad"]
            ho = (h + 2 * pad - kk) // st + 1
            wo = (w + 2 * pad - kk) // st + 1
            if ho < 1 or wo < 1:
                raise GraphError(f"{node.id}: kernel does not fit input {s}")
            shapes[node.id] = (node.attrs["out"], ho, wo)
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
            kk, st = node.attrs["k"], node.attrs["stride"]
            pp = node.attrs.get("pad", 0)
            shapes[node.id] = (s[0], _pool_out(s[1], kk, st, pp), _pool_out(s[2], kk, st, pp))
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
    prov: dict[str, list] = {}

    def prov_of(src, width):
        if src == INPUT:
            return [None] * width
        return prov[src]

    for node in g.nodes.values():
        k = node.kind
        if k in ("Dense", "Conv2D"):
            slots = [(node.id, i) for i in range(node.attrs["out"])]
            for s in slots:
                uf.add(s)
            prov[node.id] = slots
        elif k in PASSTHROUGH:
            src = node.inputs[0]
            width = shapes[node.id][0]
            prov[node.id] = prov_of(src, width)
        elif k == "Flatten":
            prov[node.id] = [None] * shapes[node.id][0]
        elif k == "Add":
            width = shapes[node.id][0]
            lists = [prov_of(s, width) for s in node.inputs]
            merged = []
            for i in range(width):
                members = [lst[i] for lst in lists]
                real = [m for m in members if m is not None]
                for a, b in zip(real, real[1:]):
                    uf.union(a, b)
                if real and len(real) != len(members):
                    frozen.update(real)  # tied to graph-input channels
                merged.append(real[0] if real else None)
            prov[node.id] = merged
        elif k == "Concat":
            out = []
            for s in node.inputs:
                out.extend(prov_of(s, shapes[s][0] if s != INPUT else g.input_shape[0]))
            prov[node.id] = out
        else:  # pragma: no cover
            raise GraphError(f"unhandled kind {k}")
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

def _keep_masks(g: ModelGraph, removed_slots: set) -> dict[str, np.ndarray]:
    """Boolean keep-mask over each node's output channels (or features)."""
    shapes = infer_shapes(g)
    masks: dict[str, np.ndarray] = {}

    def mask_of(src):
        if src == INPUT:
            return np.ones(g.input_shape[0], dtype=bool)
        return masks[src]

    for node in g.nodes.values():
        k = node.kind
        if k in ("Dense", "Conv2D"):
            keep = np.ones(node.attrs["out"], dtype=bool)
            for _, ch in (s for s in removed_slots if s[0] == node.id):
                keep[ch] = False
            if not keep.any():
                raise RewriteRefusal(f"removal set empties layer {node.id!r}")
            masks[node.id] = keep
        elif k in PASSTHROUGH:
            masks[node.id] = mask_of(node.inputs[0])
        elif k == "Flatten":
            s = shapes[node.inputs[0]] if node.inputs[0] != INPUT else g.input_shape
            per_channel = int(np.prod(s[1:])) if len(s) > 1 else 1
            masks[node.id] = np.repeat(mask_of(node.inputs[0]), per_channel)
        elif k == "Add":
            ms = [mask_of(s) for s in node.inputs]
            if any(not np.array_equal(m, ms[0]) for m in ms[1:]):
                raise GraphError(
                    f"{node.id}: removal set is not closed under the Add "
                    "channel grouping")
            masks[node.id] = ms[0]
        elif k == "Concat":
            masks[node.id] = np.concatenate([mask_of(s) for s in node.inputs])
        else:  # pragma: no cover
            raise GraphError(f"unhandled kind {k}")
    return masks


def rewrite_remove_channels(g: ModelGraph, removals) -> ModelGraph:
    """Return a new graph with the given channels structurally removed.

    ``removals`` is an iterable of (layer_id, ch) slots; it must be
    closed under the graph's channel grouping.
    """
    removed = {(lid, int(ch)) for lid, ch in removals}
    for layer_id, _ in removed:
        if layer_id not in g.nodes:
            raise GraphError(f"removal names unknown layer {layer_id!r}")
    masks = _keep_masks(g, removed)

    # node by node: a whole g.copy() first would hold every tensor twice
    out = ModelGraph(g.input_shape)
    for node in g.nodes.values():
        node = out.nodes[node.id] = node.copy()
        k = node.kind
        if k in ("Dense", "Conv2D"):
            in_keep = masks[node.inputs[0]] if node.inputs[0] != INPUT \
                else np.ones(node.attrs["in"], dtype=bool)
            keep = masks[node.id]
            node.params["w"] = node.params["w"][keep][:, in_keep]
            if "b" in node.params:
                node.params["b"] = node.params["b"][keep]
            node.attrs["in"] = int(in_keep.sum())
            node.attrs["out"] = int(keep.sum())
        elif k == "BatchNorm":
            keep = masks[node.inputs[0]] if node.inputs[0] != INPUT \
                else np.ones(node.attrs["channels"], dtype=bool)
            for name in ("gamma", "beta", "mean", "var"):
                node.params[name] = node.params[name][keep]
            node.attrs["channels"] = int(keep.sum())
    out.output_id = g.output_id
    infer_shapes(out)  # re-validate
    return out
