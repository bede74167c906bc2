"""Enumeration kernels behind the alpha-tensor and brute-force MIS routines.

Both kernels list the independent configurations of a small graph given as
per-vertex adjacency bitmasks (bit i of a configuration is local vertex i).
The list starts as ``[0]``; step v appends, with bit v set, every listed
configuration that holds no neighbour of v.  Every configuration listed
before step v is below 2^v and every one it appends is at least 2^v, so the
list stays ascending.  Work and memory are O(number of independent
configurations) rather than O(2^width): a dense width-25 region costs a few
thousand entries, and only a near-edgeless region approaches the 2^width of
a full sweep.  The list is written into one int32 buffer from ``np.empty``
of min(2^width, ``MAX_CONFIGS``) entries; the operating system backs only
the pages written, so the resident memory follows the list's length.  A
list that would pass ``MAX_CONFIGS`` raises ``CapacityError`` instead.  The
cap is the most a connected graph of ``ENUMERATION_LIMIT`` vertices can
have, reached by a star: 2^25 + 1 configurations, 128 MB of int32.  Every
region the search selects is connected and at most that wide, so only a
disconnected region (from ``discover``) can pass it, such as 26 edgeless
vertices with their 2^26 configurations.  Widths up to 31 fit in int32.
The alpha table of ``config_scan`` has one entry per boundary configuration,
2^boundary in all; ``table.alpha_tensor`` refuses a region with more than
``BOUNDARY_LIMIT`` boundary vertices, and the search never selects one.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

MAX_WIDTH = 31

# the widest region the search selects and the alpha tensor enumerates
ENUMERATION_LIMIT = 26

# the most boundary vertices a region the alpha tensor enumerates may have
BOUNDARY_LIMIT = 16

# a star's count: the most independent configurations of a connected
# graph on ENUMERATION_LIMIT vertices
MAX_CONFIGS = (1 << (ENUMERATION_LIMIT - 1)) + 1


def _independent_configs(width, adj_masks):
    """Every independent configuration, ascending, as an int32 array."""
    if len(adj_masks) != width:
        raise ValueError("adjacency mask array must have one entry per vertex")
    if width > MAX_WIDTH:
        raise CapacityError(f"cannot enumerate {width} vertices, above {MAX_WIDTH}")
    out = np.empty(min(1 << width, MAX_CONFIGS), dtype=np.int32)
    out[0] = 0
    n = 1
    for v, adj in enumerate(adj_masks):
        lower = int(adj) & ((1 << v) - 1)
        listed = out[:n]
        grown = listed[(listed & lower) == 0] if lower else listed
        if n + grown.size > out.size:
            raise CapacityError(f"{width} vertices have more than {MAX_CONFIGS} "
                                "independent configurations")
        np.bitwise_or(grown, 1 << v, out=out[n:n + grown.size])
        n += grown.size
    return out[:n]


def config_scan(width, adj_masks, boundary_positions):
    """Enumerate the independent configurations of a local graph.

    Returns ``(configs, pop, key, alpha)``: ``configs`` lists every
    independent configuration in ascending order, ``pop`` holds their
    popcounts, ``key`` packs their bits at the ascending
    ``boundary_positions`` (position j becomes bit j of the key), and
    ``alpha[k]`` is the largest popcount with boundary key ``k`` (-1 where no
    independent configuration has it).
    """
    configs = _independent_configs(width, adj_masks)
    pop = np.bitwise_count(configs)
    key = np.zeros_like(configs)
    bit = np.empty_like(configs)
    for j, p in enumerate(boundary_positions):
        np.right_shift(configs, p - j, out=bit)
        bit &= 1 << j
        key |= bit
    # alpha + 1 in pop's own dtype keeps np.maximum.at on its fast path
    lifted = np.zeros(1 << len(boundary_positions), dtype=np.uint8)
    np.maximum.at(lifted, key, pop + 1)
    return configs, pop, key, lifted.astype(np.int32) - 1


def max_independent(width, adj_masks):
    """Size and smallest argmax configuration of a maximum independent set."""
    configs = _independent_configs(width, adj_masks)
    pop = np.bitwise_count(configs)
    best = int(np.argmax(pop))
    return int(pop[best]), int(configs[best])
