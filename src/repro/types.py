"""Shared scalar types, dtypes and enumerations.

The paper stores node ids, link ids and properties as 32-bit values
(Section 6.1).  We keep node ids as 32-bit integers (``VID_DTYPE``) to match
that memory footprint, but default node *properties* to ``float64`` so that
algorithm results can be compared against dense references at tight
tolerances.  ``EID_DTYPE`` is 64-bit because edge counts can exceed 2**31 in
scaled-up synthetic runs.
"""

from __future__ import annotations

import enum

import numpy as np

#: dtype used for node (vertex) identifiers.
VID_DTYPE = np.int32

#: dtype used for edge offsets/counts (CSR index pointers).
EID_DTYPE = np.int64

#: default dtype for node properties (rank scores, levels, ...).
VALUE_DTYPE = np.float64

#: byte size of one property element used by the machine model; the paper's
#: evaluation uses 32-bit properties (Section 6.1).
PROPERTY_BYTES = 4

#: sentinel "unreached" level for traversal algorithms.
UNREACHED = np.iinfo(np.int64).max


class NodeClass(enum.IntEnum):
    """Connectivity class of a node (Section 2.1 of the paper).

    * ``REGULAR`` -- has both incoming and outgoing links.
    * ``SEED`` -- has only outgoing links (conventionally "source" nodes; the
      paper renames them to avoid clashing with message-direction wording).
    * ``SINK`` -- has only incoming links.
    * ``ISOLATED`` -- has no links at all.

    The integer values double as the relabeling sort key used by Mixen's
    filtering step: regular nodes first, then seed, sink and isolated nodes.
    """

    REGULAR = 0
    SEED = 1
    SINK = 2
    ISOLATED = 3


#: number of distinct node classes.
NUM_NODE_CLASSES = len(NodeClass)


def as_vids(values, *, copy: bool = False) -> np.ndarray:
    """Return ``values`` as a 1-D contiguous array of node ids."""
    arr = np.asarray(values)
    if arr.dtype != VID_DTYPE:
        arr = arr.astype(VID_DTYPE)
    elif copy:
        arr = arr.copy()
    return np.ascontiguousarray(arr)
