"""Former home of the columnar feasibility kernels.

Feasibility is decided by one scalar link loop
(:meth:`repro.engine.engine.AllocationEngine._link`) and best response by
one scalar path, so the kernels and their struct-of-arrays snapshots are
gone (DESIGN.md §17, §26).  Two stubs stay for readers that stamp which
paths a run took: :func:`repro.columnar.kernels.numpy_available` and
:func:`repro.columnar.game_kernels.default_game_kernels`.
"""
