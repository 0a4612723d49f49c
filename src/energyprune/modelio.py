"""File formats: model manifest + tensor blob, datasets, configs, reports.

The manifest is JSON (topology, attributes, tensor index); tensors live
in a sidecar ``.bin`` blob, each serialized as u32 rank, u32 extents,
then row-major little-endian float32. Saving is deterministic, so
save(load(save(g))) is byte-identical. All math runs in float64; float32
appears only in the blob.

Both directions stream: ``save_model`` works out the tensor index from
the shapes and serializes the manifest before it touches either file,
then unlinks the old blob and writes each tensor's header and float32
payload straight into a new one, so it holds at most one tensor's
float32 copy. A blob that is a symlink or a hard link is replaced, not
written through. ``load_model`` maps the blob read-only and decodes every
tensor from the mapping at its manifest offset, so beside the float64
tensors it returns it holds no copy of the blob, and it unmaps the blob
before it returns or raises. Saving never truncates a blob in place, so a
load in another thread or process keeps reading the old file intact; but
another program that truncates a blob in place while a load maps it ends
the loading process with SIGBUS, which no ``except`` can catch.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .criteria import ScoreTable
from .graph import LayerNode, ModelGraph, infer_shapes


class DataFormatError(ValueError):
    """A file does not match its expected format."""


def _read_text(path: Path, what: str) -> str:
    """The file's text; unreadable or non-UTF-8 files are data errors."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc


# --- tensor blob: little-endian u32 rank, u32 extent per axis, then the
# row-major IEEE-754 float32 payload

def write_blob(fh, a: np.ndarray) -> int:
    """Writes a to the binary file fh; returns the bytes written."""
    a = np.ascontiguousarray(a, dtype="<f4")
    return fh.write(struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape)) \
        + fh.write(a)


def _blob_size(a: np.ndarray) -> int:
    """The bytes write_blob writes for a."""
    return 4 * (1 + a.ndim + a.size)


def read_blob(buf, offset) -> np.ndarray:
    """The tensor at byte offset of buf, as float64. A bad offset or a
    blob cut short is a data error, found before anything is allocated."""
    if type(offset) is not int or offset < 0:
        raise DataFormatError(f"tensor offset {offset!r} is not a byte offset")

    def need(end: int) -> None:
        if end > len(buf):  # a corrupt header may ask for more than exists
            raise DataFormatError(
                f"tensor blob truncated: the tensor at byte {offset} runs to "
                f"byte {end}, the blob has {len(buf)}")

    need(offset + 4)
    (rank,) = struct.unpack_from("<I", buf, offset)
    start = offset + 4 + 4 * rank
    need(start)
    shape = struct.unpack_from(f"<{rank}I", buf, offset + 4)
    count = math.prod(shape)
    need(start + 4 * count)
    return np.frombuffer(buf, "<f4", count, start).astype(np.float64) \
        .reshape(shape)


def _blob_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".bin")


def save_model(g: ModelGraph, path) -> None:
    """Writes g's manifest to path and its tensors to path + ".bin". A
    save that fails before writing (say, on an attr JSON cannot encode)
    leaves the model it would overwrite as it was."""
    path = Path(path)
    index = []
    offset = 0
    for nid, name, arr in g.parameters():
        index.append({"node": nid, "name": name, "offset": offset})
        offset += _blob_size(arr)
    manifest = {
        "format": "energyprune-model-v1",
        "input_shape": list(g.input_shape),
        "output": g.output_id,
        "nodes": [
            {"id": n.id, "kind": n.kind, "attrs": n.attrs, "inputs": n.inputs}
            for n in g.nodes.values()
        ],
        "tensors": index,
    }
    text = json.dumps(manifest, indent=1) + "\n"
    blob = _blob_path(path)
    # a new file, not the old one truncated: a load that maps the old
    # blob keeps its inode, and ext4 unlinks far faster than it truncates
    blob.unlink(missing_ok=True)
    with blob.open("wb") as fh:
        for _, _, arr in g.parameters():
            write_blob(fh, arr)
    path.write_text(text)


# attrs the engine reads, with their least valid value: an int bound
# asks for an integer, a float bound for any finite number
_ATTRS = {
    "Dense": {"in": 1, "out": 1},
    "Conv2D": {"in": 1, "out": 1, "k": 1, "stride": 1, "pad": 0},
    "BatchNorm": {"channels": 1, "eps": 0.0},
    "MaxPool": {"k": 1, "stride": 1, "pad": 0},
    "AvgPool": {"k": 1, "stride": 1, "pad": 0},
    "Dropout": {"p": 0.0},
}


def _check_node(node: LayerNode) -> None:
    """The attrs the engine reads are in range (a padding at most half
    the window, a Dropout rate below 1), and the node holds exactly the
    tensors they imply (a Conv2D bias is optional)."""
    a = {"pad": 0, **node.attrs} if node.kind in ("MaxPool", "AvgPool") \
        else node.attrs
    for name, least in _ATTRS.get(node.kind, {}).items():
        if type(a[name]) not in (type(least), int) \
                or not least <= a[name] < math.inf:
            raise DataFormatError(f"{node.id}: attr {name!r} is {a[name]!r}, "
                                  f"not a number >= {least}")
    if node.kind in ("Conv2D", "MaxPool", "AvgPool") and a["pad"] > a["k"] // 2:
        raise DataFormatError(f"{node.id}: attr 'pad' exceeds k // 2")
    if node.kind == "Dropout" and a["p"] >= 1:
        raise DataFormatError(f"{node.id}: attr 'p' is not below 1")
    o, i, k, c = (a.get(name) for name in ("out", "in", "k", "channels"))
    want = {"Dense": {"w": (o, i), "b": (o,)},
            "Conv2D": {"w": (o, i, k, k), "b": (o,)},
            "BatchNorm": dict.fromkeys(("gamma", "beta", "mean", "var"), (c,)),
            }.get(node.kind, {})
    have = {name: t.shape for name, t in node.params.items()}
    if set(want) - set(have) - ({"b"} if node.kind == "Conv2D" else set()) \
            or any(want.get(name) != shape for name, shape in have.items()):
        raise DataFormatError(f"{node.id}: tensors {have} do not match the "
                              f"{node.kind} attrs, which imply {want}")


def load_model(path) -> ModelGraph:
    path = Path(path)
    text = _read_text(path, "model manifest")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"cannot read model manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != "energyprune-model-v1":
        raise DataFormatError(f"{path}: not an energyprune model manifest")
    try:
        if not all(type(d) is int and d >= 1 for d in manifest["input_shape"]):
            raise DataFormatError("input shape is not positive integers")
        g = ModelGraph(manifest["input_shape"])
        for spec in manifest["nodes"]:
            g.add(LayerNode(spec["id"], spec["kind"], dict(spec["attrs"]),
                            {}, list(spec["inputs"])))
        g.set_output(manifest["output"])
        with _blob_path(path).open("rb") as fh, _map(fh) as blob:
            _read_tensors(g, manifest["tensors"], blob)
        for node in g.nodes.values():
            _check_node(node)
        infer_shapes(g)
    except (LookupError, TypeError, ValueError) as exc:
        # GraphError and DataFormatError are ValueErrors
        raise DataFormatError(
            f"{path}: malformed model ({type(exc).__name__}: {exc})") from exc
    return g


def _map(fh):
    """The open file fh mapped read-only; mmap refuses an empty file,
    which a model without tensors has, so that one is an empty view."""
    if os.fstat(fh.fileno()).st_size:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return memoryview(b"")


def _read_tensors(g: ModelGraph, index, blob) -> None:
    """Decodes the tensors index lists from blob into g's nodes. The
    entries must tile the blob: each starts where the one before it ends,
    the last ends at the blob's end, and none names a tensor twice."""
    end, seen = 0, set()
    for entry in index:
        node, name, offset = entry["node"], entry["name"], entry["offset"]
        if offset != end:
            raise DataFormatError(f"{node}: tensor {name!r} starts at byte "
                                  f"{offset!r}, the one before ends at {end}")
        if (node, name) in seen:
            raise DataFormatError(f"{node}: tensor {name!r} is listed twice")
        seen.add((node, name))
        t = read_blob(blob, offset)
        end = offset + _blob_size(t)
        # float32 squares sum to a finite float64 unless one is NaN or inf
        if not math.isfinite(np.vdot(t, t)):
            raise DataFormatError(f"{node}: tensor {name!r} holds NaN or inf")
        g.nodes[node].params[name] = t
    if end != len(blob):
        raise DataFormatError(f"the tensors end at byte {end}, the tensor "
                              f"blob has {len(blob)}")


# --- datasets: delimited text, one sample per row, label last ------------

def save_dataset(path, x: np.ndarray, y: np.ndarray) -> None:
    path = Path(path)
    shape = ",".join(str(d) for d in x.shape[1:])
    with path.open("w") as fh:
        fh.write(f"# shape={shape}\n")
        flat = x.reshape(len(x), -1)
        for row, label in zip(flat, y):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{int(label)}\n")


def load_dataset(path):
    path = Path(path)
    lines = _read_text(path, "dataset").splitlines()
    shape = None
    xs, ys = [], []
    for line in lines:
        if line.startswith("#"):
            if "shape=" in line:
                try:
                    shape = tuple(int(d) for d in line.split("shape=")[1].split(","))
                except ValueError as exc:
                    raise DataFormatError(f"{path}: bad header {line[:60]!r}") from exc
            continue
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            row = [float(v) for v in parts[:-1]]
            label = float(parts[-1])
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad row {line[:60]!r}") from exc
        # ReLU's fmax drops NaN, so a nan or inf feature keeps the loss
        # finite while it fills the weights with NaN
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"{path}: non-finite feature in row {line[:60]!r}")
        xs.append(row)
        # a class index: inf, nan, 1.5 and values beyond intp are refused
        if not label.is_integer() or abs(label) > np.iinfo(np.intp).max:
            raise DataFormatError(f"{path}: bad label in row {line[:60]!r}")
        ys.append(int(label))
    if not xs:
        raise DataFormatError(f"{path}: empty dataset")
    if any(len(row) != len(xs[0]) for row in xs):
        raise DataFormatError(f"{path}: rows differ in length")
    x = np.array(xs)
    y = np.array(ys, dtype=np.intp)
    if shape is not None:
        if min(shape) < 1 or int(np.prod(shape)) != x.shape[1]:
            raise DataFormatError(
                f"{path}: header shape {shape} does not hold {x.shape[1]} features per row")
        x = x.reshape((len(x),) + shape)
    return x, y


# --- flat key=value config ----------------------------------------------

def load_config(path) -> dict:
    path = Path(path)
    cfg = {}
    for i, line in enumerate(_read_text(path, "config").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{i}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


# --- reports -------------------------------------------------------------

def write_tsv(path, header, rows) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def read_tsv(path):
    path = Path(path)
    lines = _read_text(path, "report").splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty report")
    header = lines[0].split("\t")
    rows = []
    for i, line in enumerate(lines[1:], 2):
        if line:
            rows.append(line.split("\t"))
            if len(rows[-1]) != len(header):
                raise DataFormatError(f"{path}:{i}: {len(rows[-1])} fields, "
                                      f"the header has {len(header)}")
    return header, rows


def format_table(header, rows) -> str:
    """Aligned human-readable rendering of a header + rows table."""
    cells = [list(map(str, header))] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    out = []
    for j, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def score_table_rows(table):
    rows = []
    for lid, vec in table.scores.items():
        for ch, val in enumerate(vec):
            rows.append((lid, ch, f"{val:.12g}", table.criterion,
                         table.n_samples, table.seed))
    return rows


SCORE_HEADER = ("layer", "channel", "score", "criterion", "n_samples", "seed")


def read_score_table(path) -> ScoreTable:
    """The ScoreTable a SCORE_HEADER report holds; every layer must list
    channels 0..C-1 once each, without a gap, with finite non-negative
    scores, and every row must name the first row's criterion, sample
    count and seed."""
    header, rows = read_tsv(path)
    if header != list(SCORE_HEADER):
        raise DataFormatError(f"{path}: not a score table")
    table = ScoreTable(criterion="unknown")
    per_layer: dict = {}
    try:
        for k, (lid, ch, score, criterion, n, seed) in enumerate(rows, 1):
            vals, ch = per_layer.setdefault(lid, {}), int(ch)
            if ch in vals:
                raise ValueError(f"row {k} repeats layer {lid!r} channel {ch}")
            vals[ch] = float(score)
            run = (criterion, int(n), int(seed))
            if k == 1:
                table.criterion, table.n_samples, table.seed = run
            elif run != (table.criterion, table.n_samples, table.seed):
                raise ValueError(
                    f"row {k} has criterion, n_samples, seed {run}; row 1 "
                    f"has {(table.criterion, table.n_samples, table.seed)}")
        for lid, vals in per_layer.items():
            if sorted(vals) != list(range(len(vals))):
                raise ValueError(f"channels of layer {lid!r} are not 0..C-1")
            table.scores[lid] = np.array([vals[i] for i in range(len(vals))])
        return table.validate()
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad score table: {exc}") from exc


def plan_rows(pruning_plan):
    """Auditable plan listing: group, member slots, score, cumulative
    FLOPs% removed (predicted, linear in removal order)."""
    rows = []
    base = pruning_plan.baseline_flops
    total_removed = base - pruning_plan.predicted_flops
    n = len(pruning_plan.removals)
    for i, (grp, score) in enumerate(pruning_plan.removals):
        slots = ";".join(f"{lid}:{ch}" for lid, ch in
                         sorted(grp.slots, key=lambda s: (s[0], s[1])))
        cum = 100.0 * total_removed * (i + 1) / n / base if n else 0.0
        rows.append((grp.gid, slots, f"{score:.12g}", f"{cum:.3f}"))
    return rows


PLAN_HEADER = ("group", "slots", "score", "cum_flops_removed_pct")
