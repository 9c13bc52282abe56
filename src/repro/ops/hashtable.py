"""Bucketed open-addressing hash table, GPU-style (paper §III-C2).

WholeGraph's AppendUnique op de-duplicates sampled neighbors with a GPU hash
table rather than the sort used by other frameworks, borrowing the parallel
hashing scheme of Warpcore (Jünger et al., HiPC'20).  The table here keeps
the GPU execution shape:

- slots are grouped into fixed-size *buckets* (the unit over which the
  AppendUnique ID-assignment scan runs);
- keys hash to a bucket and linear-probe within it, overflowing to the next
  bucket — the cooperative-group probing of Warpcore flattened to a data-
  parallel loop over *probe rounds*: in each round every unresolved key
  attempts one slot, exactly one winner per slot is committed (the CAS), and
  losers continue;
- insertion is idempotent: re-inserting an existing key finds it and reports
  ``found``.

Because conflicts are resolved per-round with a deterministic winner
(lowest input index, mirroring a CAS race that some lane wins), the table
contents are reproducible, which the tests rely on.  The race is emulated
without a sort: every lane bidding for an empty slot scatter-mins its lane
index into a per-insert ``claim`` buffer (``np.minimum.at``), and the lane
that reads its own index back owns the slot — O(n) per round.

Layout contract: for a given ``(capacity, bucket_size, seed)`` and input
order, every key's slot, ``found`` and the round count are fixed.
AppendUnique numbers neighbors in (bucket, slot) order, so this layout
decides the next sampling layer's target order and with it every
downstream random draw; the golden manifests pin it.
"""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import splitmix64

EMPTY_KEY = np.int64(-1)
#: an insert with at most this many pending lanes finishes lane by lane:
#: a vectorised round costs about twenty NumPy calls whatever its width,
#: which a handful of scalar probes undercuts
PROBE_TAIL_LANES = 16


class GpuHashTable:
    """Open-addressing table with bucket structure and round-based probing."""

    def __init__(self, capacity: int, bucket_size: int = 128, seed: int = 0):
        """``capacity`` is rounded up to a whole number of buckets.

        Size the table at ~2x the expected key count to keep probe chains
        short (standard open-addressing practice; the CUDA op does the same).
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.bucket_size = int(bucket_size)
        self.num_buckets = -(-int(capacity) // self.bucket_size)
        self.capacity = self.num_buckets * self.bucket_size
        self.seed = seed
        self.keys = np.full(self.capacity, EMPTY_KEY, dtype=np.int64)
        self.values = np.full(self.capacity, EMPTY_KEY, dtype=np.int64)
        self.size = 0

    # -- hashing ----------------------------------------------------------------

    def _home_slot(self, keys: np.ndarray) -> np.ndarray:
        # the seed's golden-ratio multiple wraps mod 2**64, as in uint64 C
        salt = (self.seed * 0x9E3779B97F4A7C15) % (1 << 64)
        h = splitmix64(keys.astype(np.uint64) ^ np.uint64(salt))
        return (h % np.uint64(self.capacity)).astype(np.int64)

    # -- core probe/insert loop ----------------------------------------------------

    def insert(self, keys, values) -> tuple[np.ndarray, np.ndarray, int]:
        """Insert key/value pairs; existing keys keep their stored value.

        Returns ``(slots, found, probe_rounds)``: the slot of each input key,
        whether the key already existed *before this call or earlier in this
        batch*, and the number of probe rounds the batch needed (the cost
        model multiplies work by this).

        Duplicate keys *within* the batch resolve like the CUDA kernel: one
        lane wins the CAS and inserts, the rest subsequently find the key.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.int64)
        if values.ndim:
            values = np.broadcast_to(values, keys.shape)
        if np.any(keys == EMPTY_KEY):
            raise ValueError("-1 is the reserved empty key")
        n = keys.shape[0]
        slots_out = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return slots_out, np.zeros(0, dtype=bool), 0

        cap = self.capacity
        # CAS arbitration: per slot, the lowest lane that bid for it; ``n``
        # means "no bid".  Every bid slot gets a winner and stays occupied,
        # so no slot is bid on twice and ``claim`` ends up naming the lane
        # that inserted each slot's key.
        claim = np.full(cap, n, dtype=np.int64)
        lanes = np.arange(n, dtype=np.int64)
        # per pending lane: its input index, its key and the slot it probes
        # this round (carried along, so no round re-gathers them by index)
        pending = lanes
        lane_keys = keys
        cur = self._home_slot(keys)
        # a lane advances at most once per two rounds (CAS-loss retries
        # revisit the slot), so 2·capacity rounds without resolution means
        # every slot was visited and held a foreign key
        max_rounds = 2 * cap + 4
        rounds = 0
        while cur.size and rounds < max_rounds:
            if cur.size <= PROBE_TAIL_LANES:
                rounds, cur = self._probe_tail(
                    keys, pending, cur, claim, slots_out, rounds, max_rounds
                )
                break
            rounds += 1
            slot_keys = self.keys[cur]
            # lanes whose probed slot already holds their key: hit.
            resolved = slot_keys == lane_keys
            # lanes probing an empty slot race to CAS it: the lowest lane per
            # slot wins (a scatter-min); losers on the same key hit it next
            # round.
            empty = slot_keys == EMPTY_KEY
            cand_pos = empty.nonzero()[0]
            if cand_pos.size:
                cand_slots = cur[cand_pos]
                cand = pending[cand_pos]
                np.minimum.at(claim, cand_slots, cand)
                won = claim[cand_slots] == cand
                self.keys[cand_slots[won]] = keys[cand[won]]
                resolved[cand_pos[won]] = True
            done = resolved.nonzero()[0]
            slots_out[pending[done]] = cur[done]

            # Unresolved lanes that probed an *occupied foreign* slot advance;
            # lanes that lost the CAS race on an empty slot retry the same
            # slot (it may now hold their own key — the failed-CAS re-read of
            # the CUDA kernel).
            keep = (~resolved).nonzero()[0]
            pending = pending[keep]
            lane_keys = lane_keys[keep]
            cur = cur[keep] + ~empty[keep]
            cur[cur == cap] = 0
        # every lane that did not insert its key found it (or, on a full
        # table, is still unresolved)
        found = claim[slots_out] != lanes
        inserted = (~found).nonzero()[0]
        self.values[slots_out[inserted]] = (
            values[inserted] if values.ndim else values
        )
        self.size += inserted.size
        if cur.size:
            raise RuntimeError("hash table is full (probe loop exhausted)")
        return slots_out, found, rounds

    def _probe_tail(self, keys, pending, cur, claim, slots_out, rounds,
                    max_rounds):
        """Finish an insert's last few lanes with scalar probe rounds.

        The rounds are the vectorised loop's: every lane reads its slot at
        the start of the round, the lowest lane wins an empty slot (and is
        recorded in ``claim``), losers retry the same slot, lanes on a
        foreign key advance one slot with wrap-around, and the writes land
        at the end of the round.  Returns the round count and the slots of
        the lanes still unresolved when ``max_rounds`` ran out.
        """
        table = self.keys
        cap = self.capacity
        empty = int(EMPTY_KEY)
        lanes = list(zip(pending.tolist(), keys[pending].tolist(),
                         cur.tolist()))
        while lanes and rounds < max_rounds:
            rounds += 1
            won: dict[int, tuple[int, int]] = {}
            retry = []
            for lane, key, slot in lanes:  # ascending lane order
                held = table.item(slot)
                if held == key:
                    slots_out[lane] = slot
                elif held != empty:
                    retry.append((lane, key, slot + 1 if slot + 1 < cap else 0))
                elif slot in won:
                    retry.append((lane, key, slot))
                else:
                    won[slot] = (lane, key)
                    slots_out[lane] = slot
            for slot, (lane, key) in won.items():
                table[slot] = key
                claim[slot] = lane
            lanes = retry
        return rounds, np.array([s for _, _, s in lanes], dtype=np.int64)

    def lookup(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, found)`` per key; missing keys get value -1.

        Probes a whole bucket-sized window per round instead of one slot:
        each pending key gathers ``W`` consecutive slots and resolves at
        the *first* slot along its chain holding its own key (hit) or the
        empty sentinel (definitive absence).  The table does not mutate
        during lookup, so first-stop-along-the-chain gives exactly the
        slot-at-a-time answer — in ``capacity / W`` rounds instead of up to
        ``capacity``.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        vals = np.full(keys.shape[0], EMPTY_KEY, dtype=np.int64)
        found = np.zeros(keys.shape[0], dtype=bool)
        if keys.size == 0:
            return vals, found
        w = min(self.bucket_size, self.capacity)
        offsets = np.arange(w, dtype=np.int64)
        pending = np.arange(keys.shape[0], dtype=np.int64)
        probe = self._home_slot(keys)
        for _ in range(-(-self.capacity // w)):
            if pending.size == 0:
                break
            window = (probe[pending, None] + offsets[None, :]) % self.capacity
            slot_keys = self.keys[window]
            hit = slot_keys == keys[pending, None]
            stop = hit | (slot_keys == EMPTY_KEY)
            has_stop = stop.any(axis=1)
            idx = np.flatnonzero(has_stop)
            if idx.size:
                cols = stop[idx].argmax(axis=1)
                hit_idx = idx[hit[idx, cols]]
                if hit_idx.size:
                    slots = window[hit_idx, stop[hit_idx].argmax(axis=1)]
                    vals[pending[hit_idx]] = self.values[slots]
                    found[pending[hit_idx]] = True
            # keys with no hit and no empty slot in the window probe on
            pending = pending[~has_stop]
            probe[pending] = (probe[pending] + w) % self.capacity
        return vals, found

    def set_value(self, slots, values) -> None:
        """Overwrite the value of occupied slots (AppendUnique's ID fill)."""
        slots = np.asarray(slots, dtype=np.int64)
        if np.any(self.keys[slots] == EMPTY_KEY):
            raise ValueError("cannot set value of an empty slot")
        self.values[slots] = np.asarray(values, dtype=np.int64)

    # -- bucket views (AppendUnique's scan domain) ------------------------------------

    def bucket_of_slot(self, slots) -> np.ndarray:
        return np.asarray(slots, dtype=np.int64) // self.bucket_size

    def occupied_slots(self) -> np.ndarray:
        """All occupied slot indices, in (bucket, slot) order."""
        return np.flatnonzero(self.keys != EMPTY_KEY).astype(np.int64)
