"""Charm++-like asynchronous task runtime on the simulated cluster.

Core pieces:

* :class:`CharmRuntime` — schedulers, arrays, routing, quiescence.
* :class:`Chare` — user task objects with SDAG-style generator entry
  methods; commands in :mod:`repro.runtime.commands`.
* :class:`Channel` — GPU-aware two-sided communication (Channel API).
* :func:`gpu_message_send` — the older GPU Messaging API.
* :class:`RuntimeCosts`, :class:`MsgPriority` — overhead calibration.
"""

from .array import ChareArray
from .channel import Channel
from .checkpoint import Checkpoint, restore_array, take_checkpoint
from .chare import Chare, Frame
from .commands import Await, Launch, LaunchGraph, When, Work
from .costs import MsgPriority, RuntimeCosts
from .gpu_messaging import gpu_message_send, install_gm_post
from .mapping import all_indices, block_map, linearize
from .messages import EntryMessage, Resume
from .reductions import REDUCERS, ReductionManager
from .runtime import CharmRuntime
from .scheduler import Scheduler
from .taskspace import TaskRecord, TaskSpace

install_gm_post(Chare)

__all__ = [
    "Checkpoint",
    "restore_array",
    "take_checkpoint",
    "ChareArray",
    "Channel",
    "Chare",
    "Frame",
    "Await",
    "Launch",
    "LaunchGraph",
    "When",
    "Work",
    "MsgPriority",
    "RuntimeCosts",
    "gpu_message_send",
    "install_gm_post",
    "all_indices",
    "block_map",
    "linearize",
    "EntryMessage",
    "Resume",
    "REDUCERS",
    "ReductionManager",
    "CharmRuntime",
    "Scheduler",
    "TaskRecord",
    "TaskSpace",
]
