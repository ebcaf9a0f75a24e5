"""Fixture: ungated shm allocation / errno-blind handlers (SPMD007)."""

import errno
from multiprocessing import shared_memory

from repro.mpi.process_transport import create_segment


def direct_shared_memory(nbytes):
    # Allocating outside the transport bypasses the fault gate and the
    # crash audit's pid-prefixed naming.
    return shared_memory.SharedMemory(create=True, size=nbytes)


def direct_create_segment(nbytes):
    return create_segment(nbytes)


def blind_oserror_handler(nbytes):
    try:
        return create_segment(nbytes)
    except OSError:
        # Swallows ENOSPC/ENOMEM: the degradation ladder never sees it.
        return None


def errno_routed_handler_is_fine(nbytes):
    try:
        return create_segment(nbytes)
    except OSError as exc:
        if exc.errno not in (errno.ENOSPC, errno.ENOMEM):
            raise
        return None


def narrow_subclass_is_fine(name):
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=64)
    except FileExistsError:
        return None


def attach_by_name_is_fine(name):
    # Attaching reserves nothing; only create=True allocates.
    return shared_memory.SharedMemory(name=name)
