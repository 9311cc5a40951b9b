//! Per-worker embedding cache: a deterministic LRU over fetched remote
//! rows plus a pinned hot set that eviction never touches.
//!
//! The service caches *projected* rows `H^{L-1}·W^{L-1}`, `C` floats each,
//! whichever of `H` or `P` the fetch shipped: a row fetched as `H` is
//! projected before it is cached, so a hit never needs a product.
//!
//! Layout: one slab of `f32`s holds every resident row — LRU slots
//! `0..capacity` first, pinned slots after them — a dense `id → slot` index
//! answers a lookup with one load, and the eviction order is an intrusive
//! doubly-linked list threaded through the LRU slots (oldest at the head).
//! A hit, a fill and an eviction are a few index writes and one row copy;
//! nothing is allocated once the slab stands.
//!
//! Determinism: recency is the list order, which only lookups and inserts
//! move, so two runs that issue the same calls evict the same rows in the
//! same order — no wall clock, no hash-order iteration.
//!
//! Coherence: every entry is implicitly tagged with the store version the
//! whole cache is at; [`EmbeddingCache::reset_to_version`] drops everything
//! when the checkpoint refreshes. There is no per-entry staleness — a cache
//! either serves one version or is empty (DESIGN.md §10).

/// "No slot" / "no neighbour" in the index and the recency links.
const NONE: u32 = u32::MAX;

/// LRU + pinned-hot-set cache of equally wide embedding rows.
#[derive(Clone, Debug)]
pub struct EmbeddingCache {
    /// Max resident LRU rows (pinned rows do not count). 0 disables the
    /// LRU part entirely; pinning still works.
    capacity: usize,
    /// Store version the resident rows belong to.
    version: u32,
    /// Floats per row; 0 until [`Self::with_shape`] or the first row says.
    dim: usize,
    /// Slot `s` is `slab[s * dim..][..dim]`: LRU slots `0..capacity`, then
    /// one slot per pinned row in pinning order.
    slab: Vec<f32>,
    /// id → slot, [`NONE`] when not resident (ids past the end likewise).
    slot_of: Vec<u32>,
    /// Per LRU slot: the id it holds and its neighbours in recency order.
    held: Vec<u32>,
    older: Vec<u32>,
    newer: Vec<u32>,
    /// Least and most recently used LRU slots.
    oldest: u32,
    newest: u32,
    /// Unused LRU slots (popped from the back, so slots fill in order).
    free: Vec<u32>,
    /// Pinned slot `capacity + i` holds `pinned[i]`.
    pinned: Vec<u32>,
    /// Lookups answered from a pinned or an LRU slot.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
}

impl EmbeddingCache {
    /// A cache holding at most `capacity` LRU rows. The row width is taken
    /// from the first row stored and the id index grows on demand;
    /// [`Self::with_shape`] sizes both up front.
    pub fn new(capacity: usize) -> Self {
        Self::with_shape(capacity, 0, 0, 0)
    }

    /// A cache of `capacity` LRU rows with everything allocated now: the
    /// slab for `capacity + pinned` rows of `dim` floats and the index for
    /// ids `0..num_ids`.
    pub fn with_shape(capacity: usize, pinned: usize, dim: usize, num_ids: usize) -> Self {
        let mut slab = Vec::with_capacity((capacity + pinned) * dim);
        slab.resize(capacity * dim, 0.0);
        Self {
            capacity,
            version: 0,
            dim,
            slab,
            slot_of: vec![NONE; num_ids],
            held: vec![NONE; capacity],
            older: vec![NONE; capacity],
            newer: vec![NONE; capacity],
            oldest: NONE,
            newest: NONE,
            free: (0..capacity as u32).rev().collect(),
            pinned: Vec::with_capacity(pinned),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Store version the resident rows belong to.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Resident LRU rows (excluding pinned).
    pub fn len(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// True when no LRU rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pinned rows.
    pub fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Invalidates *everything* — LRU rows and pinned rows — and moves the
    /// cache to `version`. Called on checkpoint refresh; the caller re-pins
    /// the hot set afterwards (and pays the fetch traffic for it).
    pub fn reset_to_version(&mut self, version: u32) {
        self.version = version;
        let mut slot = self.oldest;
        while slot != NONE {
            self.slot_of[self.held[slot as usize] as usize] = NONE;
            slot = self.newer[slot as usize];
        }
        for &id in &self.pinned {
            self.slot_of[id as usize] = NONE;
        }
        self.pinned.clear();
        self.slab.truncate(self.capacity * self.dim);
        self.free.clear();
        self.free.extend((0..self.capacity as u32).rev());
        self.oldest = NONE;
        self.newest = NONE;
    }

    /// Pins `row` for `id`: always resident, never evicted, not counted
    /// against `capacity`. A pinned id shadows any LRU entry.
    pub fn pin(&mut self, id: u32, row: &[f32]) {
        self.fix_shape(id, row.len());
        let slot = self.slot_of[id as usize];
        if slot != NONE && slot as usize >= self.capacity {
            self.row_mut(slot).copy_from_slice(row);
            return;
        }
        if slot != NONE {
            self.unlink(slot);
            self.free.push(slot);
        }
        self.slot_of[id as usize] = (self.capacity + self.pinned.len()) as u32;
        self.pinned.push(id);
        self.slab.extend_from_slice(row);
    }

    /// Looks `id` up, bumping its recency and the hit/miss counters.
    pub fn get(&mut self, id: u32) -> Option<&[f32]> {
        let slot = self.slot_of.get(id as usize).copied().unwrap_or(NONE);
        if slot == NONE {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        if (slot as usize) < self.capacity && slot != self.newest {
            self.unlink(slot);
            self.link_newest(slot);
        }
        Some(&self.slab[slot as usize * self.dim..][..self.dim])
    }

    /// Inserts a fetched row (copied into the slab), evicting the
    /// least-recently-used row when at capacity. A `capacity` of 0 makes
    /// this a no-op; re-inserting an id refreshes its payload and recency.
    /// Takes anything that derefs to a row so that callers holding a `Vec`
    /// and callers holding a slice of an arena both pass what they have.
    pub fn insert(&mut self, id: u32, row: impl AsRef<[f32]>) {
        let row = row.as_ref();
        if self.capacity == 0 {
            return;
        }
        self.fix_shape(id, row.len());
        let mut slot = self.slot_of[id as usize];
        if slot != NONE && slot as usize >= self.capacity {
            return; // pinned rows shadow the LRU
        }
        if slot != NONE {
            self.unlink(slot);
        } else if let Some(unused) = self.free.pop() {
            slot = unused;
        } else {
            slot = self.oldest;
            self.unlink(slot);
            self.slot_of[self.held[slot as usize] as usize] = NONE;
            self.evictions += 1;
        }
        self.held[slot as usize] = id;
        self.slot_of[id as usize] = slot;
        self.link_newest(slot);
        self.row_mut(slot).copy_from_slice(row);
    }

    /// Makes `id` indexable and fixes the row width on first use.
    ///
    /// # Panics
    /// Panics when `len` differs from the width of the rows already held:
    /// one cache holds one kind of row.
    fn fix_shape(&mut self, id: u32, len: usize) {
        if self.dim == 0 {
            self.dim = len;
            self.slab.resize(self.capacity * len, 0.0);
        }
        assert_eq!(len, self.dim, "cache rows must share one width");
        if id as usize >= self.slot_of.len() {
            self.slot_of.resize(id as usize + 1, NONE);
        }
    }

    fn row_mut(&mut self, slot: u32) -> &mut [f32] {
        &mut self.slab[slot as usize * self.dim..][..self.dim]
    }

    /// Takes LRU slot `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let (older, newer) = (self.older[slot as usize], self.newer[slot as usize]);
        match older {
            NONE => self.oldest = newer,
            _ => self.newer[older as usize] = newer,
        }
        match newer {
            NONE => self.newest = older,
            _ => self.older[newer as usize] = older,
        }
    }

    /// Appends LRU slot `slot` (not in the list) as the most recent.
    fn link_newest(&mut self, slot: u32) {
        self.older[slot as usize] = self.newest;
        self.newer[slot as usize] = NONE;
        match self.newest {
            NONE => self.oldest = slot,
            newest => self.newer[newest as usize] = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The cache as it stood before the slab: two stamp-keyed `BTreeMap`s
    /// and a `Vec` per row. Kept as the model the slab is held to.
    struct ModelCache {
        capacity: usize,
        pinned: BTreeMap<u32, Vec<f32>>,
        rows: BTreeMap<u32, (u64, Vec<f32>)>,
        lru: BTreeMap<u64, u32>,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ModelCache {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                pinned: BTreeMap::new(),
                rows: BTreeMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn reset(&mut self) {
            self.pinned.clear();
            self.rows.clear();
            self.lru.clear();
        }

        fn pin(&mut self, id: u32, row: Vec<f32>) {
            if let Some((stamp, _)) = self.rows.remove(&id) {
                self.lru.remove(&stamp);
            }
            self.pinned.insert(id, row);
        }

        fn get(&mut self, id: u32) -> Option<&[f32]> {
            if self.pinned.contains_key(&id) {
                self.hits += 1;
                return self.pinned.get(&id).map(Vec::as_slice);
            }
            let Some(entry) = self.rows.get_mut(&id) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            self.tick += 1;
            self.lru.remove(&entry.0);
            entry.0 = self.tick;
            self.lru.insert(self.tick, id);
            Some(entry.1.as_slice())
        }

        fn insert(&mut self, id: u32, row: Vec<f32>) {
            if self.capacity == 0 || self.pinned.contains_key(&id) {
                return;
            }
            self.tick += 1;
            if let Some((stamp, _)) = self.rows.remove(&id) {
                self.lru.remove(&stamp);
            } else if self.rows.len() >= self.capacity {
                if let Some((stamp, victim)) = self.lru.pop_first() {
                    debug_assert!(stamp < self.tick);
                    self.rows.remove(&victim);
                    self.evictions += 1;
                }
            }
            self.rows.insert(id, (self.tick, row));
            self.lru.insert(self.tick, id);
        }
    }

    fn row(v: f32) -> Vec<f32> {
        vec![v; 3]
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = EmbeddingCache::new(2);
        c.insert(1, row(1.0));
        c.insert(2, row(2.0));
        assert!(c.get(1).is_some()); // 1 is now the most recent
        c.insert(3, row(3.0)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pinned_rows_survive_eviction_pressure() {
        let mut c = EmbeddingCache::new(1);
        c.pin(7, &row(7.0));
        for i in 0..10 {
            c.insert(i, row(i as f32));
        }
        assert!(c.get(7).is_some(), "pinned row must never be evicted");
        assert_eq!(c.len(), 1, "LRU part stays within capacity");
    }

    #[test]
    fn zero_capacity_disables_the_lru_but_not_pinning() {
        let mut c = EmbeddingCache::new(0);
        c.insert(1, row(1.0));
        assert!(c.get(1).is_none());
        c.pin(2, &row(2.0));
        assert!(c.get(2).is_some());
    }

    #[test]
    fn reset_drops_everything_and_moves_the_version() {
        let mut c = EmbeddingCache::new(4);
        c.insert(1, row(1.0));
        c.pin(2, &row(2.0));
        c.reset_to_version(5);
        assert_eq!(c.version(), 5);
        assert!(c.is_empty());
        assert_eq!(c.pinned_len(), 0);
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_none());
    }

    #[test]
    fn reinsert_refreshes_payload() {
        let mut c = EmbeddingCache::new(2);
        c.insert(1, row(1.0));
        c.insert(1, row(9.0));
        assert_eq!(c.get(1), Some(row(9.0).as_slice()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_shaped_cache_never_reallocates() {
        let mut c = EmbeddingCache::with_shape(2, 1, 3, 10);
        let (slab, index) = (c.slab.as_ptr(), c.slot_of.as_ptr());
        c.pin(9, &row(9.0));
        for i in 0..8 {
            c.insert(i, row(i as f32));
        }
        c.reset_to_version(1);
        c.pin(8, &row(8.0));
        c.insert(3, row(3.0));
        assert_eq!((c.slab.as_ptr(), c.slot_of.as_ptr()), (slab, index));
        assert_eq!(c.get(8), Some(row(8.0).as_slice()));
        assert_eq!(c.get(3), Some(row(3.0).as_slice()));
    }

    proptest! {
        /// The slab and the `BTreeMap` model agree on every return value
        /// and every counter under arbitrary call sequences — capacity 0,
        /// re-inserts and a pin over a resident LRU row included — whether
        /// the slab was shaped up front or grows lazily.
        #[test]
        fn slab_cache_matches_the_btreemap_model(
            capacity in 0usize..6,
            shaped in any::<bool>(),
            // (kind, id, payload): ids from a range a little wider than the
            // largest capacity, so sequences hit, evict, re-insert and pin
            // over resident rows; lookups and inserts twice as likely.
            ops in proptest::collection::vec((0u8..6, 0u32..12, -4.0f32..4.0), 0..120),
        ) {
            let mut slab = if shaped {
                EmbeddingCache::with_shape(capacity, 2, 3, 12)
            } else {
                EmbeddingCache::new(capacity)
            };
            let mut model = ModelCache::new(capacity);
            for (kind, id, v) in ops {
                match kind {
                    0 | 1 => {
                        let want = model.get(id).map(<[f32]>::to_vec);
                        prop_assert_eq!(slab.get(id).map(<[f32]>::to_vec), want);
                    }
                    2 | 3 => {
                        model.insert(id, row(v));
                        slab.insert(id, row(v));
                    }
                    4 => {
                        model.pin(id, row(v));
                        slab.pin(id, &row(v));
                    }
                    _ => {
                        model.reset();
                        slab.reset_to_version(id + 1);
                        prop_assert_eq!(slab.version(), id + 1);
                    }
                }
                prop_assert_eq!(
                    (slab.hits, slab.misses, slab.evictions),
                    (model.hits, model.misses, model.evictions)
                );
                prop_assert_eq!(slab.len(), model.rows.len());
                prop_assert_eq!(slab.is_empty(), model.rows.is_empty());
                prop_assert_eq!(slab.pinned_len(), model.pinned.len());
            }
            // What is resident, and with which payload, without touching
            // recency on either side.
            for id in 0..12u32 {
                let want = model.pinned.get(&id).or_else(|| model.rows.get(&id).map(|e| &e.1));
                let slot = slab.slot_of.get(id as usize).copied().unwrap_or(NONE);
                let got = (slot != NONE).then(|| &slab.slab[slot as usize * slab.dim..][..slab.dim]);
                prop_assert_eq!(got, want.map(Vec::as_slice));
            }
        }
    }
}
