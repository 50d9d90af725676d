"""Persistent, delta-maintained entity columns for the feasibility kernels.

A :class:`ColumnarBatch` is rebuilt from Python entity objects every batch,
so object->array conversion cost grows with the *population*.  At 100k
entities with single-digit arrival waves that is almost entirely wasted
work: the overwhelming majority of rows are byte-identical to the previous
batch's.  :class:`ColumnStore` keeps the columns alive for the whole
process instead — an arena of ``array`` columns with free-list row slots —
and lets the engine *sync* only the delta (arrivals, departures, changed
records) before slicing out a kernel-compatible view.

Three pieces make the view bit-compatible with a fresh snapshot:

* :class:`SkillInterner` — an **append-only** skill -> ``(word, bit)``
  table.  Unlike the per-batch :func:`~repro.columnar.batch.intern_skills`
  (sorted union, re-packed every batch), positions here are stable for the
  process lifetime, so a worker's mask is packed once per *record change*
  rather than once per batch.  Bit layout does not affect kernel decisions
  — the kernels only ever test ``wskills[row * words + tword] & tbit``
  membership, never bit order — so the two tables are interchangeable.
* **Dirty-row tracking** — the store remembers the last record packed per
  entity id; worker/task records are frozen dataclasses with value
  equality, so ``stored == incoming`` detects every change the engine's
  own diffing can produce (arrive, depart, expire, assign, relocate).
* **Exact-length views** — :meth:`ColumnStore.view` gathers the requested
  rows into buffers of exactly ``n_rows * width`` items (the numpy backend
  reshapes buffers by row count, so arena slack must never leak out).
  When the request order is exactly the compact arena order the view
  aliases the arena arrays zero-copy instead of gathering.

:class:`InterningCache` serves the legacy rebuild path: it hoists the
per-batch ``sorted(universe)`` out of :func:`intern_skills`, re-sorting
only when the skill universe actually grows.

The process default (:func:`set_default_store`, surfaced as the CLI
``--store/--no-store`` flags) is **off**: the store is opt-in because it
trades memory residency for conversion work, which only pays at scale.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.columnar.batch import WORD_BITS, ColumnarBatch

try:  # pragma: no cover - exercised via the numpy-less CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Process-default persistent-store toggle: True / False, or None for the
#: default (off — the store is opt-in, see the module docstring).
_DEFAULT_STORE: Optional[bool] = None


def set_default_store(enabled: Optional[bool]) -> Optional[bool]:
    """Set the process-wide persistent-store default; returns the previous.

    ``None`` restores the default (off).  Mirrors
    :func:`repro.columnar.set_default_columnar`.
    """
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = enabled
    return previous


def default_store() -> bool:
    """The resolved process default (None -> off)."""
    return bool(_DEFAULT_STORE)


class SkillInterner:
    """Append-only skill -> ``(word, bit)`` interning table.

    New skills take the next free bit position and *never move*, so masks
    packed in earlier batches stay valid as the universe grows; crossing a
    64-skill boundary only widens the word count (the store re-strides its
    mask arena with zero padding, which changes no decisions).
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: Dict[int, Tuple[int, int]] = {}

    def intern(self, skill) -> Tuple[int, int]:
        position = self.table.get(skill)
        if position is None:
            position = divmod(len(self.table), WORD_BITS)
            self.table[skill] = position
        return position

    @property
    def n_words(self) -> int:
        return max(1, -(-len(self.table) // WORD_BITS))

    def __len__(self) -> int:
        return len(self.table)

    def __repr__(self) -> str:
        return f"SkillInterner(skills={len(self.table)}, words={self.n_words})"


class InterningCache:
    """Cached sorted interning table for the per-batch rebuild path.

    :func:`~repro.columnar.batch.intern_skills` re-sorts the whole skill
    universe every batch; consecutive batch populations overlap almost
    entirely, so the sort is repeated work.  This cache accumulates the
    union of every skill seen and re-sorts only when the universe actually
    grows.  The produced table is a *superset* of the per-batch one —
    harmless, because kernel decisions test mask membership and never
    depend on bit order or table width.
    """

    __slots__ = ("_universe", "_table")

    def __init__(self) -> None:
        self._universe: Set = set()
        self._table: Dict[int, Tuple[int, int]] = {}

    def table_for(self, workers: Sequence, tasks: Sequence) -> Dict[int, Tuple[int, int]]:
        universe = self._universe
        before = len(universe)
        for worker in workers:
            universe.update(worker.skills)
        for task in tasks:
            universe.add(task.skill)
        if len(universe) != before:
            self._table = {
                skill: divmod(position, WORD_BITS)
                for position, skill in enumerate(sorted(universe))
            }
        return self._table


def _gather_scalar(column: array, slots: List[int], typecode: str, dtype: str) -> array:
    if _np is not None and slots:
        src = _np.frombuffer(column, dtype=dtype)
        return array(typecode, src[_np.asarray(slots, dtype=_np.intp)].tobytes())
    return array(typecode, map(column.__getitem__, slots))


def _gather_words(column: array, slots: List[int], words: int) -> array:
    if _np is not None and slots:
        src = _np.frombuffer(column, dtype="uint64").reshape(-1, words)
        return array("Q", src[_np.asarray(slots, dtype=_np.intp)].tobytes())
    out = array("Q", bytes(8 * len(slots) * words))
    for row, slot in enumerate(slots):
        out[row * words : (row + 1) * words] = column[slot * words : (slot + 1) * words]
    return out


class ColumnStore:
    """Process-lifetime entity columns, maintained by deltas.

    The engine calls :meth:`sync` with each batch's (slice of the)
    populations — rows whose records are unchanged cost a dict probe, rows
    that changed are re-packed in place — then :meth:`view` to slice a
    :class:`ColumnarBatch`-compatible snapshot out of the arena.  Departed
    entities are released with :meth:`remove_worker` / :meth:`remove_task`
    (their slots go on a free list and are reused by later arrivals).

    A view is valid until the next store mutation; the engine consumes
    each view within the batch that produced it.
    """

    __slots__ = (
        "interner",
        "_wslot",
        "_wrec",
        "_wfree",
        "_wx",
        "_wy",
        "_wstart",
        "_wdeadline",
        "_wvelocity",
        "_wmax_distance",
        "_wskills",
        "_wstride",
        "_tslot",
        "_trec",
        "_tfree",
        "_tx",
        "_ty",
        "_tstart",
        "_tdeadline",
        "_tword",
        "_tbit",
    )

    def __init__(self) -> None:
        self.interner = SkillInterner()
        self._wslot: Dict[int, int] = {}
        self._wrec: Dict[int, object] = {}
        self._wfree: List[int] = []
        self._wx = array("d")
        self._wy = array("d")
        self._wstart = array("d")
        self._wdeadline = array("d")
        self._wvelocity = array("d")
        self._wmax_distance = array("d")
        self._wskills = array("Q")
        self._wstride = 1
        self._tslot: Dict[int, int] = {}
        self._trec: Dict[int, object] = {}
        self._tfree: List[int] = []
        self._tx = array("d")
        self._ty = array("d")
        self._tstart = array("d")
        self._tdeadline = array("d")
        self._tword = array("q")
        self._tbit = array("Q")

    # -- maintenance -------------------------------------------------------------

    def sync(self, workers: Sequence, tasks: Sequence) -> int:
        """Upsert both populations; returns the rows actually (re)packed.

        Unchanged entities cost a dict probe and touch no column.  Engines
        hand the *same* immutable record objects batch after batch, so the
        clean path is usually a pure identity check; a value-equal record
        under a new object is adopted by reference (no re-pack) so the next
        sync is back on the identity path.
        """
        touched = 0
        wrec = self._wrec
        for worker in workers:
            prev = wrec.get(worker.id)
            if prev is worker:
                continue
            if prev == worker:
                wrec[worker.id] = worker
                continue
            self._pack_worker(worker)
            touched += 1
        trec = self._trec
        for task in tasks:
            prev = trec.get(task.id)
            if prev is task:
                continue
            if prev == task:
                trec[task.id] = task
                continue
            self._pack_task(task)
            touched += 1
        return touched

    def remove_worker(self, worker_id: int) -> None:
        """Release a departed worker's row (no-op for unknown ids)."""
        slot = self._wslot.pop(worker_id, None)
        if slot is None:
            return
        del self._wrec[worker_id]
        self._wfree.append(slot)

    def remove_task(self, task_id: int) -> None:
        """Release an assigned/expired task's row (no-op for unknown ids)."""
        slot = self._tslot.pop(task_id, None)
        if slot is None:
            return
        del self._trec[task_id]
        self._tfree.append(slot)

    # -- views -------------------------------------------------------------------

    def view(self, workers: Sequence, tasks: Sequence) -> ColumnarBatch:
        """A kernel-ready :class:`ColumnarBatch` over the given populations.

        Every entity must have been :meth:`sync`-ed (a missing id raises
        ``KeyError`` — it would mean the engine skipped a sync).  Rows are
        gathered into exact-length buffers; when the request order is
        exactly the compact arena order, the arena arrays are aliased
        zero-copy instead.
        """
        if self.interner.n_words > self._wstride:
            self._grow_stride(self.interner.n_words)
        words = self._wstride
        wslots = [self._wslot[w.id] for w in workers]
        tslots = [self._tslot[t.id] for t in tasks]
        batch = ColumnarBatch.__new__(ColumnarBatch)
        batch.n_workers = len(workers)
        batch.n_tasks = len(tasks)
        batch.n_skill_words = words
        batch.skill_table = self.interner.table
        if not self._wfree and wslots == list(range(len(self._wx))):
            batch.wx = self._wx
            batch.wy = self._wy
            batch.wstart = self._wstart
            batch.wdeadline = self._wdeadline
            batch.wvelocity = self._wvelocity
            batch.wmax_distance = self._wmax_distance
            batch.wskills = self._wskills
        else:
            batch.wx = _gather_scalar(self._wx, wslots, "d", "float64")
            batch.wy = _gather_scalar(self._wy, wslots, "d", "float64")
            batch.wstart = _gather_scalar(self._wstart, wslots, "d", "float64")
            batch.wdeadline = _gather_scalar(self._wdeadline, wslots, "d", "float64")
            batch.wvelocity = _gather_scalar(self._wvelocity, wslots, "d", "float64")
            batch.wmax_distance = _gather_scalar(
                self._wmax_distance, wslots, "d", "float64"
            )
            batch.wskills = _gather_words(self._wskills, wslots, words)
        batch.worker_ids = [w.id for w in workers]
        if not self._tfree and tslots == list(range(len(self._tx))):
            batch.tx = self._tx
            batch.ty = self._ty
            batch.tstart = self._tstart
            batch.tdeadline = self._tdeadline
            batch.tskill_word = self._tword
            batch.tskill_bitmask = self._tbit
        else:
            batch.tx = _gather_scalar(self._tx, tslots, "d", "float64")
            batch.ty = _gather_scalar(self._ty, tslots, "d", "float64")
            batch.tstart = _gather_scalar(self._tstart, tslots, "d", "float64")
            batch.tdeadline = _gather_scalar(self._tdeadline, tslots, "d", "float64")
            batch.tskill_word = _gather_scalar(self._tword, tslots, "q", "int64")
            batch.tskill_bitmask = _gather_scalar(self._tbit, tslots, "Q", "uint64")
        batch.task_ids = [t.id for t in tasks]
        return batch

    # -- introspection -----------------------------------------------------------

    @property
    def n_worker_rows(self) -> int:
        """Allocated worker arena rows (live + free-listed)."""
        return len(self._wx)

    @property
    def n_task_rows(self) -> int:
        return len(self._tx)

    @property
    def free_worker_rows(self) -> int:
        return len(self._wfree)

    @property
    def free_task_rows(self) -> int:
        return len(self._tfree)

    def __repr__(self) -> str:
        return (
            f"ColumnStore(workers={len(self._wslot)}/{len(self._wx)}, "
            f"tasks={len(self._tslot)}/{len(self._tx)}, "
            f"skills={len(self.interner)}, words={self._wstride})"
        )

    # -- packing -----------------------------------------------------------------

    def _pack_worker(self, worker) -> None:
        # Dirty detection happens in sync(); this packs unconditionally.
        interner = self.interner
        positions = [interner.intern(skill) for skill in worker.skills]
        if interner.n_words > self._wstride:
            self._grow_stride(interner.n_words)
        stride = self._wstride
        slot = self._wslot.get(worker.id)
        if slot is None:
            slot = self._wfree.pop() if self._wfree else self._new_worker_row()
            self._wslot[worker.id] = slot
        self._wx[slot] = worker.location[0]
        self._wy[slot] = worker.location[1]
        self._wstart[slot] = worker.start
        self._wdeadline[slot] = worker.deadline
        self._wvelocity[slot] = worker.velocity
        self._wmax_distance[slot] = worker.max_distance
        base = slot * stride
        self._wskills[base : base + stride] = array("Q", bytes(8 * stride))
        for word, bit in positions:
            self._wskills[base + word] |= 1 << bit
        self._wrec[worker.id] = worker

    def _pack_task(self, task) -> None:
        word, bit = self.interner.intern(task.skill)
        slot = self._tslot.get(task.id)
        if slot is None:
            slot = self._tfree.pop() if self._tfree else self._new_task_row()
            self._tslot[task.id] = slot
        self._tx[slot] = task.location[0]
        self._ty[slot] = task.location[1]
        self._tstart[slot] = task.start
        self._tdeadline[slot] = task.deadline
        self._tword[slot] = word
        self._tbit[slot] = 1 << bit
        self._trec[task.id] = task

    def _new_worker_row(self) -> int:
        slot = len(self._wx)
        self._wx.append(0.0)
        self._wy.append(0.0)
        self._wstart.append(0.0)
        self._wdeadline.append(0.0)
        self._wvelocity.append(0.0)
        self._wmax_distance.append(0.0)
        self._wskills.frombytes(bytes(8 * self._wstride))
        return slot

    def _new_task_row(self) -> int:
        slot = len(self._tx)
        self._tx.append(0.0)
        self._ty.append(0.0)
        self._tstart.append(0.0)
        self._tdeadline.append(0.0)
        self._tword.append(0)
        self._tbit.append(0)
        return slot

    def _grow_stride(self, new: int) -> None:
        # Re-stride the mask arena with zero padding: existing bits keep
        # their (word, bit) positions, so no re-pack and no touched rows.
        old = self._wstride
        rows = len(self._wx)
        fresh = array("Q", bytes(8 * rows * new))
        for row in range(rows):
            fresh[row * new : row * new + old] = self._wskills[row * old : (row + 1) * old]
        self._wskills = fresh
        self._wstride = new
