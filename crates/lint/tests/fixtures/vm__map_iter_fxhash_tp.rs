//! TP: `FxHashMap` iteration is hash-order iteration too — its order is an
//! artifact of the hash function, not of the simulated machine. Both the
//! field and the `let` binding are tracked.

use itpx_types::FxHashMap;

pub struct Table {
    map: FxHashMap<u64, u64>,
}

impl Table {
    pub fn first_key(&self) -> Option<u64> {
        self.map.keys().next().copied()
    }

    pub fn rebuild(&mut self) -> u64 {
        let mut fresh = FxHashMap::default();
        fresh.insert(1u64, 2u64);
        let mut acc = 0;
        for (_k, v) in fresh.drain() {
            acc += v;
        }
        acc
    }
}
