"""Crash-safe checkpoints of a run's live time window.

A checkpoint is everything needed to restart a killed run mid-history
with a bitwise-identical final grid: the full modular time buffer of
every registered :class:`~repro.language.array.PochoirArray` (all
``depth+1`` slots — the next block reads up to ``depth`` levels back),
the next timestep to compute, and the problem signature
(:func:`~repro.language.stencil.problem_signature`, the identity the
code caches, batches and the autotune registry also key on) and the
digest of the inputs the signature leaves out on purpose
(:func:`inputs_digest`: const-array values and ``PythonBoundary``
functions, which must not split a batch).  A checkpoint resumes only a
problem with the same signature and inputs: the same stencil, grid
sizes, kernel, parameter values and boundaries, boundary values
included, every float compared by its bits, and the same coefficients
and boundary functions.  Const arrays are *not* stored: they are
immutable inputs the resuming program reconstructs.

Checkpoints are only taken between top-level time blocks (the
resilience runner splits ``[t_start, t_end)`` at ``every_dt``
boundaries), where the grid is globally consistent — inside a
trapezoidal decomposition different space regions sit at different time
levels, so mid-walk state is never durable.  Because the trapezoidal
runtime computes every grid point exactly once, by the same kernel
clone, from the same input values, regardless of how the time range is
blocked, a resumed run's remaining blocks produce the same bits the
uninterrupted run would have (the equivalence the tier-1 cross-backend
tests pin down).

File format (version :data:`CHECKPOINT_SCHEMA_VERSION`)::

    MAGIC(8) | sha256(rest)(32) | header_len(8, LE) | header JSON | payloads

The digest covers everything after itself, so a torn write (power cut
mid-``write``), a truncated copy, or any flipped bit reads as
:class:`~repro.errors.CheckpointError` — never as silently wrong grid
values.  Files are streamed through
:func:`repro.util.atomic_write_chunks` (same-directory temp file, fsync
file and directory, atomic rename), so a crash *during* checkpointing
leaves the previous checkpoint intact; the loader falls back to the
newest file that validates.

Schema history: 1 — initial layout (this PR).  A version bump reads as
"unusable" with no migration, like the autotune registry: re-running
from the previous valid checkpoint (or cold) is always correct, whereas
misreading a stale layout is not.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import CheckpointError, SpecificationError
from repro.expr.nodes import py_float
from repro.language.boundary import PythonBoundary
from repro.language.stencil import problem_signature
from repro.resilience import degradations, faults
from repro.util import atomic_write_chunks

CHECKPOINT_SCHEMA_VERSION = 1

MAGIC = b"RPROCKPT"
_DIGEST_LEN = 32  # sha256
_LEN_BYTES = 8

#: ``ckpt-<sig12>-t<t_next>.rpck`` — the signature prefix scopes a
#: directory shared by several problems; the zero-padded timestep makes
#: lexicographic order equal time order.
_FILE_RE = re.compile(r"^ckpt-([0-9a-f]{12})-t(\d{10})\.rpck$")


@dataclass
class CheckpointPolicy:
    """When and where the resilience runner snapshots a run.

    ``dir``:
        directory for checkpoint files (created on first write).
    ``every_dt``:
        timesteps per checkpointed block.  The runner splits the run's
        time range at these boundaries; smaller values bound lost work
        at the cost of more (grid-sized) writes.
    ``keep``:
        newest checkpoints retained per problem signature; older ones
        are pruned after each successful write (``keep >= 2`` tolerates
        the newest file dying with the machine).
    """

    dir: str | Path
    every_dt: int = 64
    keep: int = 3

    def __post_init__(self) -> None:
        if int(self.every_dt) < 1:
            raise SpecificationError(
                f"checkpoint every_dt must be >= 1, got {self.every_dt}"
            )
        if int(self.keep) < 1:
            raise SpecificationError(
                f"checkpoint keep must be >= 1, got {self.keep}"
            )
        self.every_dt = int(self.every_dt)
        self.keep = int(self.keep)
        self.dir = Path(self.dir)


def _spell(obj) -> str:
    """A process-independent spelling of a boundary function's parts:
    floats by :func:`~repro.expr.nodes.py_float`, code objects by their
    bytecode, constants and names, anything else by ``repr`` (an object
    whose ``repr`` carries its address makes the checkpoint unresumable
    in another process, never wrongly resumable)."""
    if isinstance(obj, float):
        return py_float(obj)
    if isinstance(obj, (tuple, list)):
        return "(" + ", ".join(_spell(o) for o in obj) + ")"
    if isinstance(obj, types.CodeType):
        return _spell((obj.co_code, obj.co_consts, obj.co_names))
    return repr(obj)


def _spell_function(fn) -> str:
    if not isinstance(fn, types.FunctionType):
        return repr(fn)
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(cell.cell_contents)
        except ValueError:  # a cell not yet assigned
            cells.append(None)
    return _spell((fn.__code__, fn.__defaults__ or (), tuple(cells)))


def inputs_digest(problem) -> str | None:
    """Digest of what a run reads that :func:`problem_signature` leaves
    out so that batches stay value-free: each const array's bytes and
    each ``PythonBoundary`` function (its code, defaults and closure-cell
    contents).  None when the problem has neither — the value a header
    written before this field reads as."""
    consts = sorted(problem.const_arrays)
    functions = [
        (name, _spell_function(problem.arrays[name].boundary.fn))
        for name in sorted(problem.arrays)
        if isinstance(problem.arrays[name].boundary, PythonBoundary)
    ]
    if not consts and not functions:
        return None
    digest = hashlib.sha256(repr((consts, functions)).encode())
    for name in consts:
        values = problem.const_arrays[name].values
        digest.update(str(values.dtype).encode())
        digest.update(np.ascontiguousarray(values))
    return digest.hexdigest()[:32]


@dataclass
class Checkpoint:
    """One loaded (or about-to-be-written) checkpoint.

    ``arrays`` maps array name to the full modular buffer
    (``(slots, *sizes)``); ``t_next`` is the first time level the
    resumed run must compute; ``inputs`` is the written problem's
    :func:`inputs_digest`.
    """

    signature: str
    t_next: int
    arrays: dict[str, np.ndarray]
    path: Path | None = None
    schema: int = CHECKPOINT_SCHEMA_VERSION
    unix_time: float = 0.0
    meta: dict = field(default_factory=dict)
    inputs: str | None = None

    def resumes(self, problem) -> bool:
        """Whether this checkpoint was written from ``problem``'s
        signature and inputs."""
        return (
            self.signature == problem_signature(problem)
            and self.inputs == inputs_digest(problem)
        )

    def restore_into(self, problem) -> None:
        """Copy the snapshot back into the problem's live arrays.

        Copies **in place** (:meth:`PochoirArray.load`): a run in flight,
        or another process attached to a shared segment, holds the
        array's buffer itself, so rebinding ``arr.data`` would leave it
        on the dead one.
        """
        if not self.resumes(problem):
            raise CheckpointError(
                f"checkpoint {self.path or ''} was taken from a different "
                f"problem (signature {self.signature[:12]}, expected "
                f"{problem_signature(problem)[:12]}) or from other const-"
                f"array values or boundary functions: refusing to restore"
            )
        for name, arr in problem.arrays.items():
            stored = self.arrays.get(name)
            if stored is None:  # pragma: no cover - signature pins arrays
                raise CheckpointError(
                    f"checkpoint is missing array {name!r}"
                )
            arr.load(stored, latest=self.t_next - 1)


def checkpoint_filename(signature: str, t_next: int) -> str:
    return f"ckpt-{signature[:12]}-t{t_next:010d}.rpck"


def checkpoint_chunks(
    signature: str,
    arrays: dict[str, np.ndarray],
    t_next: int,
    inputs: str | None = None,
) -> list:
    """The on-disk representation as a list of buffers, in file order.

    Streaming is what makes checkpointing cheap: the digest is computed
    incrementally over the length prefix, header, and raw array buffers,
    and the chunks are handed to :func:`repro.util.atomic_write_chunks`
    verbatim — a multi-megabyte grid is never concatenated into one
    contiguous blob (the join + ``tobytes`` copies used to cost more
    than the hash and the write combined).
    """
    names = sorted(arrays)
    views = [np.ascontiguousarray(arrays[name]) for name in names]
    header = {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "signature": signature,
        "inputs": inputs,
        "t_next": int(t_next),
        "unix_time": time.time(),
        "arrays": [
            {
                "name": name,
                "shape": list(view.shape),
                "dtype": str(view.dtype),
            }
            for name, view in zip(names, views)
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    length = len(header_bytes).to_bytes(_LEN_BYTES, "little")
    digest = hashlib.sha256()
    digest.update(length)
    digest.update(header_bytes)
    for view in views:
        digest.update(view)
    return [MAGIC, digest.digest(), length, header_bytes, *views]


def write_checkpoint_arrays(
    directory: str | Path,
    signature: str,
    arrays: dict[str, np.ndarray],
    t_next: int,
    inputs: str | None = None,
) -> Path:
    """Durably stream one checkpoint from a name→buffer mapping.

    The core write path: callers that already hold a stable snapshot
    (the resilience runner's background writer) use this directly so the
    live arrays can keep mutating while the snapshot flushes.
    """
    path = Path(directory) / checkpoint_filename(signature, t_next)
    atomic_write_chunks(
        path, checkpoint_chunks(signature, arrays, t_next, inputs)
    )
    return path


def write_checkpoint(directory: str | Path, problem, t_next: int) -> Path:
    """Durably write one checkpoint of the live arrays; returns its path."""
    arrays = {name: arr.data for name, arr in problem.arrays.items()}
    return write_checkpoint_arrays(
        directory, problem_signature(problem), arrays, t_next,
        inputs_digest(problem),
    )


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and verify one checkpoint file.

    Raises :class:`CheckpointError` on *any* damage — wrong magic,
    checksum mismatch (torn/corrupt bytes), unknown schema, malformed
    header, short payload.  Never returns partially-restored data.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if faults.fire("checkpoint.corrupt") and len(raw) > MAGIC.__len__() + 48:
        # Flip bytes well inside the digested region: must read as torn.
        mid = len(raw) // 2
        raw = raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1 :]
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    digest = raw[len(MAGIC) : len(MAGIC) + _DIGEST_LEN]
    payload = raw[len(MAGIC) + _DIGEST_LEN :]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(
            f"{path} failed its checksum (torn or corrupt write)"
        )
    if len(payload) < _LEN_BYTES:
        raise CheckpointError(f"{path} is truncated")
    header_len = int.from_bytes(payload[:_LEN_BYTES], "little")
    header_end = _LEN_BYTES + header_len
    try:
        header = json.loads(payload[_LEN_BYTES:header_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path} has a malformed header: {exc}") from exc
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint schema {schema!r}, this build reads "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    for spec in header.get("arrays", []):
        shape = tuple(int(s) for s in spec["shape"])
        dtype = np.dtype(spec["dtype"])
        nbytes = int(np.prod(shape)) * dtype.itemsize
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(
                f"{path} payload is short for array {spec['name']!r}"
            )
        arrays[str(spec["name"])] = np.frombuffer(chunk, dtype=dtype).reshape(
            shape
        )
        offset += nbytes
    return Checkpoint(
        signature=str(header.get("signature", "")),
        t_next=int(header["t_next"]),
        arrays=arrays,
        path=path,
        schema=int(schema),
        unix_time=float(header.get("unix_time", 0.0)),
        inputs=header.get("inputs"),
    )


def list_checkpoints(
    directory: str | Path, signature: str | None = None
) -> list[Path]:
    """Checkpoint files in ``directory``, newest timestep first.

    ``signature`` (full or 12-hex prefix) filters to one problem.
    """
    directory = Path(directory)
    prefix = signature[:12] if signature else None
    found: list[tuple[int, Path]] = []
    try:
        names = sorted(p.name for p in directory.iterdir())
    except OSError:
        return []
    for name in names:
        m = _FILE_RE.match(name)
        if not m:
            continue
        if prefix is not None and m.group(1) != prefix:
            continue
        found.append((int(m.group(2)), directory / name))
    found.sort(key=lambda item: item[0], reverse=True)
    return [p for _, p in found]


def _iter_valid(
    directory: str | Path, signature: str | None
) -> Iterator[Checkpoint]:
    """Yield loadable checkpoints newest-first, noting skipped damage."""
    for path in list_checkpoints(directory, signature):
        try:
            yield load_checkpoint(path)
        except CheckpointError:
            degradations.note("checkpoint:corrupt-skipped")


def newest_valid(
    directory: str | Path, problem
) -> Checkpoint | None:
    """The newest checkpoint that can resume ``problem``, or ``None``.

    Valid means: loads (checksum + schema), matches the problem's
    signature and inputs (:meth:`Checkpoint.resumes`; a checkpoint of
    other const-array values or boundary functions is skipped), and its
    ``t_next`` lies inside ``(t_start, t_end]`` — a
    checkpoint at or before the run's own start would not save work,
    and one past its end belongs to a longer horizon.  ``t_next ==
    t_end`` means the whole run already completed: zero blocks remain.
    Damaged files are skipped (with a degradation note) in favor of the
    next-newest; no valid file reads as "cold start".
    """
    for ckpt in _iter_valid(directory, problem_signature(problem)):
        if ckpt.resumes(problem) and problem.t_start < ckpt.t_next <= problem.t_end:
            return ckpt
    return None


def prune(directory: str | Path, signature: str, keep: int) -> int:
    """Drop all but the ``keep`` newest checkpoints for ``signature``;
    returns how many files were removed.  Best-effort: an unremovable
    file is left behind rather than failing the run."""
    removed = 0
    for path in list_checkpoints(directory, signature)[keep:]:
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - defensive
            pass
    return removed


def resume(path: str | Path) -> Checkpoint:
    """Load a checkpoint for inspection or explicit resumption.

    ``path`` may be a checkpoint file or a checkpoint directory (the
    newest valid file wins; ties across problem signatures go to the
    highest timestep).  The result can be passed as
    ``RunOptions(resume_from=...)`` or examined directly
    (``.t_next``, ``.arrays``, ``.signature``).  Raises
    :class:`CheckpointError` when nothing valid is found.
    """
    path = Path(path)
    if path.is_dir():
        for ckpt in _iter_valid(path, None):
            return ckpt
        raise CheckpointError(f"no valid checkpoint found in {path}")
    return load_checkpoint(path)
