"""File formats: model manifest + tensor blob, datasets, configs, reports.

The manifest is JSON (topology, attributes, tensor index); tensors live
in a sidecar ``.bin`` blob, each serialized as u32 rank, u32 extents,
then row-major little-endian float32. Saving is deterministic, so
save(load(save(g))) is byte-identical.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .criteria import ScoreTable
from .graph import LayerNode, ModelGraph
from .linalg import read_blob, write_blob


class DataFormatError(ValueError):
    """A file does not match its expected format."""


def _read_text(path: Path, what: str) -> str:
    """The file's text; unreadable or non-UTF-8 files are data errors."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc


def _blob_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".bin")


def save_model(g: ModelGraph, path) -> None:
    path = Path(path)
    index = []
    buf = io.BytesIO()
    for nid, name, arr in g.parameters():
        index.append({"node": nid, "name": name, "offset": buf.tell()})
        write_blob(buf, arr)
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
    path.write_text(json.dumps(manifest, indent=1) + "\n")
    _blob_path(path).write_bytes(buf.getvalue())


def load_model(path) -> ModelGraph:
    path = Path(path)
    text = _read_text(path, "model manifest")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"cannot read model manifest {path}: {exc}") from exc
    if manifest.get("format") != "energyprune-model-v1":
        raise DataFormatError(f"{path}: not an energyprune model manifest")
    g = ModelGraph(manifest["input_shape"])
    for spec in manifest["nodes"]:
        g.add(LayerNode(spec["id"], spec["kind"], dict(spec["attrs"]),
                        {}, list(spec["inputs"])))
    g.set_output(manifest["output"])
    blob = _blob_path(path).read_bytes()
    fh = io.BytesIO(blob)
    for entry in manifest["tensors"]:
        fh.seek(entry["offset"])
        g.nodes[entry["node"]].params[entry["name"]] = read_blob(fh)
    return g


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
                shape = tuple(int(d) for d in line.split("shape=")[1].split(","))
            continue
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            xs.append([float(v) for v in parts[:-1]])
            ys.append(int(float(parts[-1])))
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad row {line[:60]!r}") from exc
    if not xs:
        raise DataFormatError(f"{path}: empty dataset")
    x = np.array(xs)
    y = np.array(ys, dtype=np.intp)
    if shape is not None:
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
    rows = [line.split("\t") for line in lines[1:] if line]
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
    channels 0..C-1 without a gap, with finite non-negative scores."""
    header, rows = read_tsv(path)
    if header != list(SCORE_HEADER):
        raise DataFormatError(f"{path}: not a score table")
    table = ScoreTable(criterion="unknown")
    per_layer: dict = {}
    try:
        for lid, ch, score, criterion, n, seed in rows:
            per_layer.setdefault(lid, {})[int(ch)] = float(score)
            table.criterion = criterion
            table.n_samples = int(n)
            table.seed = int(seed)
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
