"""Simulation engine selection.

``simulate_trace`` carries two equivalent inner loops (engines):

``traced``
    The reference loop — one ``hierarchy.access`` per demand access,
    through the per-method cache layers, per-access counter updates,
    one tracer record per access.  Always used when a tracer is active.
``batch``
    The scalar access kernel (:func:`repro.sim.batch.scalar_kernel`):
    the demand path inlined over hoisted columns, with counters batched
    and flushed once, run over the whole trace as one span.

Multi-program mixes (:func:`repro.sim.multi_core.simulate_mix`) follow
the same selection: ``traced`` keeps the per-access loop as the
reference, and ``batch`` runs each thread's scalar kernel.  Both are
proven byte-identical — results *and* serialised observations — by
``tests/sim/test_engine_equivalence.py``,
``tests/sim/test_batch_equivalence.py`` and
``tests/sim/test_mix_equivalence.py``.

Selection order: explicit argument > ``$REPRO_ENGINE`` > ``batch``.
The CLI's ``--engine`` writes the environment variable so parallel
sweep workers (fork or spawn, see :mod:`repro.sim.parallel`) inherit
the choice.  Any other name is an error; every CLI subcommand that
takes ``--engine`` checks ``$REPRO_ENGINE`` before it does any work.
"""

from __future__ import annotations

import os

#: Environment variable selecting the engine for a whole process tree.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid engine names, fastest first.
ENGINES = ("batch", "traced")

DEFAULT_ENGINE = "batch"


def resolve_engine(explicit: str | None = None) -> str:
    """Resolve the requested engine name: explicit > env > default.

    Raises :class:`ValueError` for unknown names from either source so a
    typo in ``--engine``/``$REPRO_ENGINE`` fails the run instead of
    silently simulating with the default.
    """
    requested = explicit
    source = ""
    if requested is None:
        requested = os.environ.get(ENGINE_ENV, "").strip() or DEFAULT_ENGINE
        source = f" in ${ENGINE_ENV}"
    if requested not in ENGINES:
        raise ValueError(
            f"unknown engine {requested!r}{source}; "
            f"expected one of {', '.join(ENGINES)}"
        )
    return requested
