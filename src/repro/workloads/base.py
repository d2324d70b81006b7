"""What every registered scenario provides: a structure and its binding.

The original system hard-wired one scenario (the ``icsd_t2_7``
subroutine) through the facade, the experiments, and the service. The
workload SDK replaces that monopoly with a small contract: anything
that can lower itself to barrier-separated lists of
:class:`~repro.tce.subroutine.Subroutine` chain IR runs on *all seven
runtimes* (legacy, the five PTG variants, DTD), under chaos fault
injection, and inside ``-j N`` sweeps — for free, because every layer
above the IR is workload-agnostic.

A workload comes in two halves, the split of the paper's
inspector-executor (Section III-B):

- a :class:`Structure` — everything that depends only on what the
  workload *is*: its tensors (names, layouts, where their contents come
  from), its levels of chain IR with their ``structure_token`` (the
  inspection identity), its output, its dense-NumPy reference and its
  one-line description. Pure data: no cluster, no array, no seed, so one
  structure serves every run of it in a process and pickles;
- the **bind** (:meth:`Structure.bind`), the same for every workload:
  create the run's Global Arrays in the structure's order, adopt each
  input's seeded draw, leave the output at zero — which yields a
  :class:`BoundWorkload`, the object every runtime executes.

A bound workload owns:

- a **canonical token** (``workload_id``, e.g. ``"rbgs:tiny"``) and a
  short ``name`` used in reports;
- the **cluster**, the **GA runtime** and the **arrays** its tensors
  live in, and the **seed** its inputs were drawn with;
- ``levels()`` — one :class:`~repro.tce.subroutine.Subroutine` per
  barrier-separated work level, whose block references name tensors
  that the runtimes resolve through the run's arrays;
- the **output tensor** (``output``) whose flat contents are the
  run's result, and
- ``reference_values()`` — an independent dense-NumPy result for
  equivalence checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.rng import seeded_normal

if TYPE_CHECKING:
    import numpy as np

    from repro.tce.subroutine import Subroutine

__all__ = ["BoundTensor", "BoundWorkload", "Structure"]


class BoundTensor:
    """A structure's tensor bound to the Global Array of one run."""

    def __init__(self, tensor, array) -> None:
        #: the pure layout (``BlockTensor``, ``GridTensor``, ...)
        self.tensor = tensor
        self.array = array

    @property
    def name(self) -> str:
        return self.tensor.name

    @property
    def total(self) -> int:
        return self.tensor.total

    def block_range(self, key: tuple) -> tuple[int, int]:
        return self.tensor.block_range(key)

    def block_shape(self, key: tuple) -> tuple:
        return self.tensor.block_shape(key)

    def flat_values(self) -> "np.ndarray":
        """Copy of the whole flat tensor contents."""
        return self.array.gather()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundTensor({self.tensor!r})"


class Structure:
    """The inspector half of a workload: what it is, before any machine.

    A subclass sets, in its ``__init__``:

    - ``name`` — the report label;
    - ``tensors`` — every tensor in creation order. Each has ``name``
      and ``total``, ``stream`` (the seeded standard-normal draw an input
      is filled from, else None) and ``values`` (constant contents as a
      read-only array, else None); a tensor with neither starts at zero;
    - ``levels`` — the barrier-separated :class:`Subroutine` IR;
    - ``output`` — the result tensor (one of ``tensors``);

    and implements :meth:`reference` and :meth:`describe`. Nothing in a
    structure may be mutated once built: the process memo hands one
    structure to every run of it, from several threads.
    """

    name: str
    tensors: tuple
    levels: tuple
    output: object

    @property
    def n_gemms(self) -> int:
        return sum(level.n_gemms for level in self.levels)

    def bind(self, ga, seed: int, cache=None) -> "BoundWorkload":
        """This structure on the machine of ``ga`` (a run's
        ``GlobalArrays``), with inputs drawn from ``seed``.

        The arrays are created in ``tensors`` order, so handles and
        engine sequence numbers depend only on the structure. An input
        adopts its draw (:meth:`~repro.ga.array.GlobalArray.adopt`) —
        ``cache``'s when given (an
        :class:`~repro.core.inspector.InspectionCache`, which keeps the
        read-only draw for the next run), else a fresh one the run owns.
        """
        draw = seeded_normal if cache is None else cache.draw
        arrays = {}
        for tensor in self.tensors:
            array = arrays[tensor.name] = ga.create(tensor.name, tensor.total)
            if not array.holds_data:
                continue
            if tensor.stream is not None:
                array.adopt(draw(seed, tensor.stream, tensor.total))
            elif tensor.values is not None:
                array.adopt(tensor.values)
        return BoundWorkload(self, ga, seed, arrays)

    def reference(self, arrays: dict) -> "np.ndarray":
        """Dense result for the output, from the inputs in ``arrays``
        (tensor name -> GlobalArray; REAL mode)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class BoundWorkload:
    """A :class:`Structure` bound to one run's cluster, GA runtime and seed.

    The workload owns its arrays (``arrays``, tensor name ->
    ``GlobalArray``); the GA runtime only knows them by name, weakly, so
    they die with the last reference to the workload. Attributes it does
    not define are read from the structure, a tensor bound to this run's
    array (``workload.i2.flat_values()``, ``workload.subroutine``).
    """

    def __init__(self, structure: Structure, ga, seed: int, arrays: dict):
        self.structure = structure
        self.cluster = ga.cluster
        self.ga = ga
        self.seed = seed
        self.arrays = arrays
        #: the registry stamps its canonical token over the report label
        self.workload_id = structure.name
        self.output = self._bound(structure.output)

    def _bound(self, tensor) -> BoundTensor:
        return BoundTensor(tensor, self.arrays[tensor.name])

    def __getattr__(self, name: str):
        if name == "structure" or name.startswith("__"):
            raise AttributeError(name)
        value = getattr(self.structure, name)
        if any(value is tensor for tensor in self.structure.tensors):
            return self._bound(value)
        return value

    @property
    def name(self) -> str:
        """Short label for reports (e.g. ``"icsd_t2_7"``, ``"rbgs"``)."""
        return self.structure.name

    def levels(self) -> "list[Subroutine]":
        """Barrier-separated work levels, in execution order: the
        runtimes place an explicit synchronization (and its overhead
        charge) between consecutive levels, as the legacy application
        does."""
        return list(self.structure.levels)

    def reference_values(self) -> "np.ndarray":
        return self.structure.reference(self.arrays)

    def describe(self) -> str:
        return self.structure.describe()
