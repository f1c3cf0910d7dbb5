"""AMPI: Adaptive MPI — MPI programs virtualized as chares.

The paper (§II-A) notes that automatic overlap "can also be achieved with
Adaptive MPI (AMPI) ... MPI processes are virtualized as chare objects,
allowing an arbitrary number of 'processes' to be run on a set number of
PEs", and leaves its exploration as future work.  This subpackage is that
exploration: the :mod:`repro.mpi` programming surface (``isend``/``irecv``/
``waitall``/``sync``/collectives), but each *virtual rank* is a chare on
the Charm++-like runtime — so a rank blocked in ``MPI_Wait`` yields the PE
to other ranks instead of spinning, and ranks can be overdecomposed.
"""

from .world import AmpiProcess, AmpiWorld

__all__ = ["AmpiProcess", "AmpiWorld"]
