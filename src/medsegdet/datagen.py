"""Synthetic dataset pipeline.

Generates grayscale images with one labeled object each, attaches the
eight question/answer pairs ``MockOracle`` derives from each record's
geometry, splits the records, and maps each one to and from its JSON form
(the CLI writes the JSONL files, ``read_jsonl`` reads them). Every step is
deterministic, so the whole pipeline is reproducible byte-for-byte.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .decoders import BBox
from .metrics import mask2box

CATEGORIES = (
    "lung", "heart", "liver", "kidney", "tumor",
    "cyst", "vertebra", "aorta", "spleen", "nodule",
)
MODALITIES = ("ct", "mri", "xray", "ultrasound")


class DataError(ValueError):
    """Malformed or inconsistent dataset content."""


@dataclass(frozen=True)
class QAPair:
    question: str
    answer: str
    perspective: str
    length: str


@dataclass
class ImageRecord:
    id: str
    image: np.ndarray  # H×W float grid in [0, 1]
    mask: np.ndarray  # H×W bool
    box: BBox
    label: str
    modality: str
    qa: list[QAPair] = field(default_factory=list)


def candidate_placeholders(n: int = 2) -> str:
    return " ".join(f"<c{k}>" for k in range(1, n + 1))


def _position_phrase(box: BBox) -> str:
    x1, y1, x2, y2 = box.as_floats()
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    horiz = "left" if cx < 1 / 3 else ("right" if cx > 2 / 3 else "center")
    vert = "upper" if cy < 1 / 3 else ("lower" if cy > 2 / 3 else "middle")
    if vert == "middle" and horiz == "center":
        return "center"
    return f"{vert}-{horiz}"


def _polarity(record: ImageRecord) -> str:
    inside = record.image[record.mask].mean()
    outside = record.image[~record.mask].mean()
    return "brighter" if inside >= outside else "darker"


class MockOracle:
    """Deterministic stand-in for an LLM annotator: a record's QA pairs are a
    pure function of its geometry and ``seed``."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def qa_pairs(self, record: ImageRecord) -> list[QAPair]:
        """Eight pairs: two phrasings, each attribute then location, each long then short."""
        polarity, pos, label = _polarity(record), _position_phrase(record.box), record.label
        descriptions = [
            ("attribute", "long", f"the region that appears {polarity} than its surroundings, "
                                  f"with the rounded outline typical of a {label}"),
            ("attribute", "short", f"the {polarity} {label}"),
            ("location", "long", f"the object situated in the {pos} of the image, "
                                 f"where the {label} is expected"),
            ("location", "short", f"the {label} in the {pos}"),
            ("attribute", "long", f"an area standing out as {polarity} than nearby tissue, "
                                  f"consistent with the appearance of a {label}"),
            ("attribute", "short", f"that {polarity} structure, a {label}"),
            ("location", "long", f"the structure occupying the {pos} portion of the scan, "
                                 f"which corresponds to the {label}"),
            ("location", "short", f"the {pos} {label}"),
        ]
        suffix = candidate_placeholders()
        pairs = []
        for perspective, length, text in descriptions:
            verb = "Identify and segment" if perspective == "attribute" else "Segment"
            if length == "long":
                variant = zlib.crc32(f"{self.seed}:{text}".encode()) % 2
                lead = "The structure in question" if variant else "The highlighted region"
                answer = f"{lead} is the {label}. {suffix}"
            else:
                answer = f"The {label}. {suffix}"
            pairs.append(QAPair(f"{verb} {text}.", answer, perspective, length))
        return pairs


# -- synthetic images ----------------------------------------------------------

def _object_mask(kind: str, X: np.ndarray, Y: np.ndarray, cx, cy, a, b, wobble, phase) -> np.ndarray:
    """Object of the given kind on the pixel-centre grid ``X``, ``Y``."""
    dx, dy = X - cx, Y - cy
    if kind == "rect":
        return (np.abs(dx) <= a) & (np.abs(dy) <= b)
    r2 = (dx / a) ** 2 + (dy / b) ** 2
    if kind == "ellipse":
        return r2 <= 1.0
    theta = np.arctan2(dy, dx)
    bound = 1.0 + wobble * np.sin(3 * theta + phase)
    return r2 <= bound**2


def synth_records(count: int, seed: int, hw: tuple[int, int] = (64, 64)) -> list[ImageRecord]:
    """Deterministic one-object-per-image corpus, categories round-robin."""
    if count < 1:
        raise ValueError("count must be >= 1")
    H, W = hw
    ys = (np.arange(H) + 0.5) / H
    xs = (np.arange(W) + 0.5) / W
    Y, X = np.meshgrid(ys, xs, indexing="ij")
    ramp = 0.45 + 0.15 * (X + Y - 1.0)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        label = CATEGORIES[i % len(CATEGORIES)]
        modality = MODALITIES[int(rng.integers(len(MODALITIES)))]
        kind = ("ellipse", "rect", "blob")[int(rng.integers(3))]
        cx, cy = rng.uniform(0.3, 0.7, 2)
        a, b = rng.uniform(0.1, 0.28, 2)
        wobble = rng.uniform(0.1, 0.25)
        phase = rng.uniform(0, 2 * np.pi)
        mask = _object_mask(kind, X, Y, cx, cy, a, b, wobble, phase)
        if not mask.any():  # geometry bounds keep this unreachable; belt and braces
            mask[H // 2, W // 2] = True
        background = ramp + 0.03 * rng.normal(size=(H, W))
        shift = rng.uniform(0.25, 0.45) * (1 if rng.uniform() < 0.5 else -1)
        image = np.clip(background + shift * mask, 0.0, 1.0)
        records.append(
            ImageRecord(
                id=f"rec{i:05d}",
                image=image,
                mask=mask,
                box=mask2box(mask),
                label=label,
                modality=modality,
            )
        )
    return records


# -- QA pipeline -----------------------------------------------------------------

def generate_pipeline(
    records: list[ImageRecord],
    oracle: MockOracle,
    threads: int = 1,
) -> list[ImageRecord]:
    """Every record with its QA pairs attached, sorted by id.

    Runs on one thread, as the oracle holds the GIL and gains nothing from
    more; ``threads`` must be 1.
    """
    if not records:
        raise ValueError("generate_pipeline: no records")
    if threads != 1:
        raise ValueError(f"generate_pipeline: runs on one thread, got threads={threads}")
    return sorted((replace(r, qa=oracle.qa_pairs(r)) for r in records), key=lambda r: r.id)


def training_ready(records: list[ImageRecord]) -> list[ImageRecord]:
    """Records that still carry at least one QA pair."""
    return [r for r in records if r.qa]


# -- splits and statistics ---------------------------------------------------------

def split_dataset(
    records: list[ImageRecord],
    ratios: tuple[float, float, float] = (0.80, 0.10, 0.10),
    seed: int = 0,
) -> tuple[list[ImageRecord], list[ImageRecord], list[ImageRecord]]:
    """Shuffled partition with largest-remainder sizing (within +/-1 of exact)."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios {ratios} do not sum to 1")
    if len(records) < 3:
        raise ValueError("need at least 3 records to split")
    order = np.random.default_rng(seed).permutation(len(records))
    shuffled = [records[i] for i in order]
    n = len(records)
    exact = [r * n for r in ratios]
    sizes = [int(e) for e in exact]
    # hand out leftover slots by largest fractional remainder, earliest first on ties
    remainders = sorted(
        range(3), key=lambda i: (-(exact[i] - sizes[i]), i)
    )
    for i in range(n - sum(sizes)):
        sizes[remainders[i]] += 1
    a, b = sizes[0], sizes[0] + sizes[1]
    return shuffled[:a], shuffled[a:b], shuffled[b:]


def dataset_stats(records: list[ImageRecord]) -> dict:
    """Per-category image and QA frequency tables plus totals."""
    images: dict[str, int] = {}
    qa: dict[str, int] = {}
    for r in records:
        images[r.label] = images.get(r.label, 0) + 1
        if r.qa:
            qa[r.label] = qa.get(r.label, 0) + len(r.qa)
    return {
        "images": dict(sorted(images.items())),
        "qa": dict(sorted(qa.items())),
        "total_images": len(records),
        "total_qa": sum(qa.values()),
    }


# -- serialization -------------------------------------------------------------------

def record_to_json(record: ImageRecord) -> dict:
    H, W = record.image.shape
    return {
        "id": record.id,
        "width": W,
        "height": H,
        "image_b64": base64.b64encode(record.image.astype("<f4").tobytes()).decode(),
        "mask_b64": base64.b64encode(
            np.packbits(record.mask.astype(np.uint8), axis=1).tobytes()
        ).decode(),
        "box": list(record.box.as_floats()),
        "label": record.label,
        "modality": record.modality,
        "qa": [vars(p) for p in record.qa],
    }


def record_from_json(obj: dict) -> ImageRecord:
    try:
        H, W = int(obj["height"]), int(obj["width"])
        image = np.frombuffer(base64.b64decode(obj["image_b64"]), dtype="<f4")
        if image.size != H * W:
            raise DataError(f"image payload holds {image.size} values, expected {H * W}")
        image = image.reshape(H, W).astype(np.float64)
        row_bytes = (W + 7) // 8
        packed = np.frombuffer(base64.b64decode(obj["mask_b64"]), dtype=np.uint8)
        if packed.size != H * row_bytes:
            raise DataError(f"mask payload holds {packed.size} bytes, expected {H * row_bytes}")
        mask = np.unpackbits(packed.reshape(H, row_bytes), axis=1)[:, :W].astype(bool)
        box = BBox(*[float(v) for v in obj["box"]])
        box.validate()
        qa = [QAPair(**p) for p in obj["qa"]]
        record = ImageRecord(
            id=str(obj["id"]),
            image=image,
            mask=mask,
            box=box,
            label=str(obj["label"]),
            modality=str(obj["modality"]),
            qa=qa,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed record: {exc}") from exc
    if not record.mask.any():
        raise DataError(f"record {record.id} has an empty mask")
    derived = mask2box(record.mask).as_floats()
    if any(abs(x - y) > 1e-9 for x, y in zip(derived, record.box.as_floats())):
        raise DataError(f"record {record.id} box does not match its mask")
    return record


def read_jsonl(path) -> list[ImageRecord]:
    """Every record of a JSONL file; a DataError names the file and the line at fault."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                if line.strip():
                    records.append(record_from_json(json.loads(line)))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
        except (json.JSONDecodeError, DataError) as exc:  # not JSON, or not a record
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return records
