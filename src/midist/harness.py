"""Datasets, the incremental classify-then-update run, and reporting.

At step t of a run the filters select attribute subsets from tables of
instances 0..t-1 and the classifier predicts instance t with each subset.
No prediction changes the counts, so every step's tables are an exclusive
prefix sum of one-hot instances, and a run is decided a chunk of steps per
call.  All filters share the run, so they see the identical instance order
by construction; the order is hashed into the report as evidence of pairing.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy import special

from .core import check_integer
from .errors import ConfigurationError, InputError, NumericalError
from .filters import FILTERS, FilterConfig, FilterDecision, decide_batch, records
from .nb import absorb, score_subsets
from .tables import _readonly

DEFAULT_MISSING_TOKEN = "?"
# attribute tables per decide_batch call: a 2000-step, 200-attribute run then
# peaks 7 MB above the per-step loop's RSS, against 21 MB at 32,768 tables
_CHUNK_TABLES = 8192


@dataclass(frozen=True, eq=False)
class Dataset:
    """Categorical instances with vocabularies resolved up front, as read-only int64 arrays.

    ``values[t, a]`` indexes attribute a's vocabulary and ``classes[t]`` the
    class vocabulary; -1 marks a missing cell or label.  Every field is copied at construction, into
    read-only arrays and tuples where it can be, and checked, so no run meets an unknown index.
    """

    attributes: tuple[str, ...]
    attribute_vocabs: tuple[tuple[str, ...], ...]
    class_vocab: tuple[str, ...]
    values: np.ndarray
    classes: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "attribute_vocabs", tuple(map(tuple, self.attribute_vocabs)))
        object.__setattr__(self, "class_vocab", tuple(self.class_vocab))
        object.__setattr__(self, "provenance", copy.deepcopy(self.provenance))
        values, classes = _indices(self.values, "value", "cell"), _indices(self.classes, "class", "label")
        sizes = np.array([len(vocab) for vocab in self.attribute_vocabs], dtype=np.int64)
        width = len(self.attributes)
        if classes.ndim != 1 or values.shape != (len(classes), width) or len(sizes) != width:
            shapes = f"values {values.shape}, classes {classes.shape} and {len(sizes)} vocabularies"
            raise InputError(f"{shapes} do not match {width} attributes: expected (N, {width}), (N,) and {width}")
        for t, a in np.argwhere((values < -1) | (values >= sizes))[:1]:
            raise InputError(f"instance {t}: attribute {a}: value index {values[t, a]} outside vocabulary of size {sizes[a]}")
        for t in np.flatnonzero((classes < -1) | (classes >= len(self.class_vocab)))[:1]:
            raise InputError(f"instance {t}: class index {classes[t]} outside [0, {len(self.class_vocab)})")
        object.__setattr__(self, "values", _readonly(np.array(values, dtype=np.int64, order="C")))
        object.__setattr__(self, "classes", _readonly(np.array(classes, dtype=np.int64)))

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def instances(self) -> list[tuple[tuple[int | None, ...], int | None]]:
        """(value tuple, class) pairs of Python ints, None where missing: the text ``order_hash`` hashes."""
        values, classes = self.values.astype(object), self.classes.astype(object)
        values[self.values < 0] = None
        classes[self.classes < 0] = None
        return list(zip(map(tuple, values.tolist()), classes.tolist()))

    @property
    def class_count(self) -> int:
        """The class vocabulary size; a class column with no observed value is an ``InputError``."""
        if not self.class_vocab:
            raise InputError(f"{self.provenance.get('path', 'dataset')}: the class column has no observed value")
        return len(self.class_vocab)

    @property
    def vocab_sizes(self) -> list[int]:
        """Each attribute's vocabulary size; an attribute with no observed value is an ``InputError``."""
        for name, vocab in zip(self.attributes, self.attribute_vocabs):
            if not vocab:
                raise InputError(f"{self.provenance.get('path', 'dataset')}: attribute {name!r} has no observed value")
        return [len(v) for v in self.attribute_vocabs]


def _indices(array, name: str, missing: str) -> np.ndarray:
    """``array`` as an integer array; ragged nesting and a bool, float, text or object dtype are each an ``InputError``."""
    try:
        out = np.asarray(array)
    except ValueError as exc:
        raise InputError(f"{name} indices must be integers in a regular array: {exc}") from None
    if out.dtype.kind not in "iu":
        raise InputError(f"{name} indices must be integers, -1 for a missing {missing}, got dtype {out.dtype}")
    return out


def read_rows(path, delimiter: str = ",", header: bool = True, class_column=None):
    """Column names, rows of stripped cells and the class column index of a CSV.

    Blank lines are skipped; without a header the names are col_0, col_1, ...
    ``class_column`` is a name or a 0-based index, by default the last column.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise InputError(f"delimiter must be one character, got {delimiter!r}")
    raw: list[tuple[int, list[str]]] = []
    try:
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
                if not row or all(cell.strip() == "" for cell in row):
                    continue
                raw.append((lineno, [cell.strip() for cell in row]))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid text: {exc}") from None
    if not raw:
        raise InputError(f"{path}: empty file")
    names, data = (raw[0][1], raw[1:]) if header else ([f"col_{i}" for i in range(len(raw[0][1]))], raw)
    width = len(names)
    for lineno, row in data:
        if len(row) != width:
            raise InputError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")

    if class_column is None:
        class_index = width - 1
    elif isinstance(class_column, int):
        class_index = class_column
    else:
        text = str(class_column)
        if text in names:
            class_index = names.index(text)
        elif text.lstrip("-").isdigit():
            class_index = int(text)
        else:
            raise InputError(f"{path}: class column {class_column!r} not found in header")
    if not 0 <= class_index < width:
        raise InputError(f"{path}: class column index {class_index} outside [0, {width})")
    return names, [row for _, row in data], class_index


def load_dataset(
    path,
    delimiter: str = ",",
    header: bool = True,
    class_column=None,
    missing_token: str = DEFAULT_MISSING_TOKEN,
) -> Dataset:
    """Parse a CSV of categorical data (``read_rows``) into a dataset.

    Vocabularies follow first appearance; cells equal to ``missing_token``
    become -1.
    """
    names, data, class_index = read_rows(path, delimiter, header, class_column)
    if not data:
        raise InputError(f"{path}: header only, no instances")
    attr_indices = [i for i in range(len(names)) if i != class_index]
    vocab_maps: list[dict[str, int]] = [{} for _ in attr_indices]
    class_map: dict[str, int] = {}

    def index(vocab: dict[str, int], token: str) -> int:
        return -1 if token == missing_token else vocab.setdefault(token, len(vocab))

    values = [[index(m, row[col]) for m, col in zip(vocab_maps, attr_indices)] for row in data]
    classes = [index(class_map, row[class_index]) for row in data]
    return Dataset(
        attributes=[names[i] for i in attr_indices],
        attribute_vocabs=[list(m) for m in vocab_maps],
        class_vocab=list(class_map),
        values=np.array(values, dtype=np.int64),
        classes=np.array(classes, dtype=np.int64),
        provenance={
            "path": str(path),
            "delimiter": delimiter,
            "header": header,
            "class_column": class_index,
            "missing_token": missing_token,
        },
    )


def prepare(dataset: Dataset, mode: str = "drop_missing", seed: int = 0) -> Dataset:
    """Resolve missing cells, then shuffle with the seed.

    drop_missing removes rows containing any missing cell.  keep_missing
    keeps rows with missing attribute values (they still inform the filter
    tables through the partial margins) but drops rows with a missing
    class, which could be neither scored nor learned from.
    """
    if mode not in ("drop_missing", "keep_missing"):
        raise InputError(f"mode must be drop_missing or keep_missing, got {mode!r}")
    check_integer("seed", seed, 0)
    keep = (dataset.classes >= 0) & ((mode == "keep_missing") | np.all(dataset.values >= 0, axis=1))
    kept = np.flatnonzero(keep)
    order = kept[np.random.default_rng(seed).permutation(len(kept))]
    prepared = {**dataset.provenance, "prepared": {"mode": mode, "seed": int(seed)}}
    return replace(dataset, values=dataset.values[order], classes=dataset.classes[order], provenance=prepared)


def decide_attributes(dataset: Dataset, cfg: FilterConfig) -> list[FilterDecision]:
    """Every keep rule for every attribute, decided on the full dataset's tally in one ``decide_batch`` call.

    Rows without a class label are skipped; a missing attribute value in a
    labelled row counts into that attribute's partial margin.
    """
    counts, class_counts, rows = _zero_tally(dataset)  # the counts are the tables
    labelled = dataset.classes >= 0
    values, classes = dataset.values[labelled], dataset.classes[labelled]
    t, a = np.nonzero(values >= 0)
    cells = (a * counts.shape[1] + values[t, a]) * counts.shape[2] + classes[t]  # flat (attribute, value, class)
    counts += np.bincount(cells, minlength=counts.size).reshape(counts.shape)
    class_counts += np.bincount(classes, minlength=len(class_counts))
    missing = class_counts - np.einsum("avs->as", counts)  # per attribute: labelled, value unobserved
    batch = _decide(dataset.attributes, None, counts, cfg, missing_feature=missing, rows=rows)
    return records(batch, dataset.attributes)


def _decide(attributes, first_step: int | None, *args, **kwargs) -> FilterDecision:
    """``decide_batch`` on a stack of steps by ``attributes``; its error names the failed table's attribute and step."""
    try:
        return decide_batch(*args, **kwargs)
    except NumericalError as exc:
        if exc.table is None:
            raise
        step, index = divmod(exc.table, len(attributes))
        where = f"attribute {attributes[index]!r}" + ("" if first_step is None else f", step {first_step + step}")
        raise type(exc)(f"{exc} ({where})", exc.table) from None


def _zero_tally(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero (A, R, s) counts padded to the largest vocabulary R, zero (s) class counts, and each attribute's rows."""
    rows = np.array(dataset.vocab_sizes, dtype=np.int64)
    shape = (len(rows), max(rows, default=1), dataset.class_count)
    return np.zeros(shape, dtype=np.int64), np.zeros(shape[-1], dtype=np.int64), rows


def _chunks(steps: int, attributes: int) -> list[slice]:
    """Consecutive step slices of at most ``_CHUNK_TABLES`` attribute tables, and at least one step, each."""
    size = max(1, _CHUNK_TABLES // max(attributes, 1))
    return [slice(start, start + size) for start in range(0, steps, size)]


@dataclass
class FilterRun:
    """One filter's trajectory over an incremental pass."""

    correct: list[int]
    running_accuracy: list[float]
    selected_counts: list[int]
    final_accuracy: float
    mean_selected: float
    selected_sets: list[list[int]] | None = None


@dataclass
class RunReport:
    """Everything an incremental run produced; JSON- and CSV-serialisable."""

    config: dict
    filters: list[str]
    instance_count: int
    order_hash: str
    runs: dict[str, FilterRun]
    pair_tests: dict[str, dict]
    fit_fallbacks: int = 0  # tables whose beta fit fell back to gamma; a run diagnostic, not serialised


def _order_hash(dataset: Dataset) -> str:
    return hashlib.sha256(repr(dataset.instances).encode()).hexdigest()


def _t_critical(n: int) -> np.ndarray:
    """Two-tailed 0.05 t quantiles for prefix lengths 1..n; inf at 1, which has no degrees of freedom."""
    return np.append(np.inf, special.stdtrit(np.arange(1, n), 0.975))


def _paired_t_curve(correct_a, correct_b, critical: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-k paired t statistics and two-tailed 0.05 significance flags of stacked (P, T) pairs.

    ``critical[k - 1]`` is the t quantile for prefix length k (inf at k = 1).
    All-equal differences give t = 0 when they are zero and an infinite,
    significant t otherwise; k = 1 is reported as (0, not significant).
    """
    d = np.asarray(correct_a, dtype=np.int64) - np.asarray(correct_b, dtype=np.int64)
    s1 = np.cumsum(d, axis=1)
    s2 = np.cumsum(d * d, axis=1)
    k = np.arange(1, d.shape[1] + 1)
    num = k * s2 - s1 * s1  # k(k-1) * sample variance, exact in integers
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(
            num > 0,
            s1 * np.sqrt((k - 1) / np.where(num > 0, num, 1)),
            np.where(s1 == 0, 0.0, np.sign(s1) * np.inf),
        )
    t[:, 0] = 0.0
    return t, np.abs(t) > critical


def paired_t_test(correct_a: Sequence[int], correct_b: Sequence[int], k: int) -> tuple[float, bool]:
    """Two-tailed paired t test at level 0.05 over the first k entries: the report's curve at k.

    Entries must be integers, such as 0/1 correctness flags.
    """
    if k < 2:
        raise InputError("paired t test needs k >= 2")
    if len(correct_a) < k or len(correct_b) < k:
        raise InputError(f"both sequences must have at least k = {k} entries")
    message = "paired t test needs integer entries, such as 0/1 correctness flags"
    try:
        pairs = np.asarray([correct_a[:k], correct_b[:k]], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{message}: {exc}") from None
    if not np.all(np.isfinite(pairs) & (pairs == np.round(pairs))):
        raise InputError(message)
    t, significant = _paired_t_curve(pairs[:1], pairs[1:], _t_critical(k))  # a stack of one pair
    return float(t[0, -1]), bool(significant[0, -1])


def run_incremental(
    dataset: Dataset,
    cfg: FilterConfig,
    filters: Sequence[str] = FILTERS,
    record_selected: bool = False,
) -> RunReport:
    """Classify-then-update pass over a prepared dataset.

    Step t decides every attribute from the counts of instances 0..t-1 and
    predicts instance t under each filter's subset from the same counts.
    Those are the exclusive prefix sums of the one-hot instances, so the run
    equals a loop that predicts, then absorbs, each instance; it is computed
    with one ``decide_batch`` and one ``score_subsets`` call per chunk of
    ``_CHUNK_TABLES`` tables.  A zero-weight prior raises ``ConfigurationError``
    up front: step 0 decides from empty tables, which it would leave with no
    positive cell.
    """
    filters = list(filters)
    if not filters or len(set(filters)) != len(filters):
        raise InputError("filters must be a non-empty list without duplicates")
    cfg.check_filters(filters)
    if cfg.prior.cell_weight(1, 1) == 0.0:
        raise ConfigurationError(
            f"run needs a positive prior weight: step 0 decides from empty tables, "
            f"and prior {cfg.prior.kind!r} leaves every one of their cells zero"
        )
    if len(dataset) < 1:
        raise InputError(f"{dataset.provenance.get('path', 'dataset')}: run needs at least one instance")
    values, classes = dataset.values, dataset.classes
    if np.any(classes < 0):
        raise InputError("run needs prepared data: instances without a class label remain")

    counts, class_counts, rows = _zero_tally(dataset)
    flags = [f"keep_{f}" for f in filters]
    keep, predicted, fallbacks = [], [], 0  # per chunk: (T, F, A) keep masks and (T, F) predictions
    for chunk in _chunks(len(classes), len(rows)):
        prefix, class_prefix = absorb(counts, class_counts, values[chunk], classes[chunk])
        steps, attributes, height, s = prefix.shape
        # einsum, as numpy's sum over the short value axis is slow; both are exact in int64
        missing = (class_prefix[:, None, :] - np.einsum("tavs->tas", prefix)).reshape(-1, s)
        stack = prefix.reshape(-1, height, s)
        batch = _decide(dataset.attributes, chunk.start, stack, cfg, missing_feature=missing, rows=np.tile(rows, steps))
        fallbacks += int(np.count_nonzero(batch.fit_fallback))
        keep.append(np.stack([getattr(batch, flag).reshape(steps, attributes) for flag in flags], axis=1))
        value_counts = prefix[np.arange(steps)[:, None], np.arange(attributes), np.maximum(values[chunk], 0)]
        predicted.append(score_subsets(value_counts, class_prefix, rows, keep[-1] & (values[chunk] >= 0)[:, None])[0])
    keep = np.concatenate(keep)
    hits = (np.concatenate(predicted).T == classes).astype(np.int64)  # (F, T)
    sizes = keep.sum(axis=2).T
    accuracy = np.cumsum(hits, axis=1) / np.arange(1, len(dataset) + 1)
    correct, running, counted = hits.tolist(), accuracy.tolist(), sizes.tolist()
    runs = {
        f: FilterRun(
            correct=correct[i],
            running_accuracy=running[i],
            selected_counts=counted[i],
            final_accuracy=running[i][-1],
            mean_selected=float(np.mean(sizes[i])),
            selected_sets=[np.flatnonzero(row).tolist() for row in keep[:, i]] if record_selected else None,
        )
        for i, f in enumerate(filters)
    }
    pairs = list(combinations(range(len(filters)), 2))
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    t, significant = _paired_t_curve(hits[a], hits[b], _t_critical(len(dataset)))  # one critical-value pass
    pair_tests = {
        f"{filters[i]}_vs_{filters[j]}": {"t": t_curve, "significant": sig_curve}
        for (i, j), t_curve, sig_curve in zip(pairs, t.tolist(), significant.tolist())
    }

    return RunReport(
        config={
            "epsilon": cfg.epsilon,
            "p_level": cfg.p_level,
            "family": cfg.family,
            "prior_kind": cfg.prior.kind,
            "prior_weight": cfg.prior.weight,
            "prepared": copy.deepcopy(dataset.provenance.get("prepared")),
        },
        filters=filters,
        instance_count=len(dataset),
        order_hash=_order_hash(dataset),
        runs=runs,
        pair_tests=pair_tests,
        fit_fallbacks=fallbacks,
    )


def report_to_dict(report: RunReport) -> dict:
    return {key: value for key, value in asdict(report).items() if key != "fit_fallbacks"}


def report_from_dict(payload: dict) -> RunReport:
    """The report ``report_to_dict`` gave ``payload``; a missing key or a mistyped field is an ``InputError``."""
    try:
        runs = {name: FilterRun(**body) for name, body in payload["runs"].items()}
        return RunReport(
            config=payload["config"],
            filters=list(payload["filters"]),
            instance_count=int(payload["instance_count"]),
            order_hash=payload["order_hash"],
            runs=runs,
            pair_tests=payload["pair_tests"],
        )
    except KeyError as exc:
        raise InputError(f"report is missing {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed report: {exc}") from None


def write_report(report: RunReport, path, format: str = "csv") -> None:
    """Emit per-instance curves as CSV or the full structure as JSON."""
    if format == "json":
        with open(path, "w") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
        return
    if format != "csv":
        raise InputError(f"format must be csv or json, got {format!r}")
    pairs = list(report.pair_tests)
    header = (
        ["instance"]
        + [f"accuracy_{f}" for f in report.filters]
        + [f"selected_{f}" for f in report.filters]
        + [f"significant_{p}" for p in pairs]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(report.instance_count):
            row = [i + 1]
            row += [repr(report.runs[f].running_accuracy[i]) for f in report.filters]
            row += [report.runs[f].selected_counts[i] for f in report.filters]
            row += [int(report.pair_tests[p]["significant"][i]) for p in pairs]
            writer.writerow(row)


def discretize_equal_frequency(values: Sequence[float], bins: int) -> list[str]:
    """Quantile-bin a numeric column into labels bin_0 .. bin_{B-1}.

    Boundaries are the 1/B .. (B-1)/B quantiles; a value equal to a
    boundary goes to the lower bin.  Fewer distinct values than bins falls
    back to one bin per distinct value.
    """
    if bins < 2:
        raise InputError("bin count must be >= 2")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InputError("column must be non-empty and numeric")
    distinct = np.unique(arr)
    if distinct.size < bins:
        indices = np.searchsorted(distinct, arr)
    else:
        indices = np.searchsorted(np.quantile(arr, np.arange(1, bins) / bins), arr, side="left")
    return [f"bin_{i}" for i in indices]


def synthetic_dataset(
    n_instances: int,
    informative: int = 5,
    noise: int = 5,
    seed: int = 0,
    flip: float = 0.2,
) -> Dataset:
    """Binary benchmark: the class copied into ``informative`` attributes
    with independent flips, plus ``noise`` attributes independent of it."""
    check_integer("n_instances", n_instances, 1)
    for name, value in (("informative", informative), ("noise", noise), ("seed", seed)):
        check_integer(name, value, 0)
    if not 0 <= flip <= 1:
        raise InputError(f"flip must be a probability in [0, 1], got {flip!r}")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n_instances)
    columns = [np.where(rng.random(n_instances) < flip, 1 - y, y) for _ in range(informative)]
    columns += [rng.integers(0, 2, size=n_instances) for _ in range(noise)]
    names = [f"dep_{k}" for k in range(informative)] + [f"noise_{k}" for k in range(noise)]
    return Dataset(
        attributes=names,
        attribute_vocabs=[["0", "1"] for _ in names],
        class_vocab=["0", "1"],
        values=np.array(columns, dtype=np.int64).reshape(len(names), n_instances).T,
        classes=y,
        provenance={"synthetic": {"n": n_instances, "informative": informative, "noise": noise, "seed": seed, "flip": flip}},
    )
