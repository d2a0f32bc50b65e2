"""The paper's primary contribution.

Two mechanisms reduce the cost of secure multi-GPU communication:

* :class:`DynamicOtpAllocator` (§IV-B) — per interval ``T``, repartition a
  processor's fixed pool of OTP buffer entries across (direction × peer)
  pad streams using EWMA-smoothed request counts (Formulas 1–4).
* :class:`BatchingController` (§IV-C) — amortize security metadata over
  batches of data blocks: one batched MsgMAC and one ACK per ``n`` blocks,
  with lazy integrity verification at the receiver.
"""

from repro.core.ewma import Ewma
from repro.core.dynamic_allocator import AllocationPlan, DynamicOtpAllocator
from repro.core.batching import BatchingController, BlockGrant

__all__ = [
    "Ewma",
    "AllocationPlan",
    "DynamicOtpAllocator",
    "BatchingController",
    "BlockGrant",
]
