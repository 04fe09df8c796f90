//! Set-associative cache model with true-LRU replacement.
//!
//! The model tracks tags only (the simulator keeps real data in host memory),
//! which is all the timing model needs: it answers "would this line have hit?"
//! and maintains access/miss counters. It takes line numbers
//! (byte address / [`LINE_BYTES`](crate::LINE_BYTES)), never byte addresses.

use crate::config::CacheGeometry;

/// A set-associative, true-LRU, tag-only cache model.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: usize,
    set_mask: u64,
    /// `sets * ways` tags; within each set, index 0 is most-recently-used.
    /// A tag is the line number plus one, so 0 marks an empty way for every
    /// line, line 0 included, and the zeroed (lazily mapped) tag array is an
    /// empty cache.
    tags: Box<[u64]>,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache from its geometry. Panics if the geometry is not a
    /// power-of-two number of sets or has zero ways.
    pub fn new(geo: CacheGeometry) -> Self {
        let sets = geo.sets();
        assert!(geo.ways > 0, "cache must have at least one way");
        assert!(sets.is_power_of_two(), "cache sets must be a power of two (got {sets})");
        Self {
            ways: geo.ways,
            set_mask: (sets - 1) as u64,
            tags: vec![0u64; sets * geo.ways].into_boxed_slice(),
            accesses: 0,
            misses: 0,
        }
    }

    /// Access one line: returns `true` on hit. On miss the line is filled,
    /// evicting the LRU way of its set.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.accesses += 1;
        let tag = line + 1;
        let set = (line & self.set_mask) as usize;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        // Streaming kernels touch the same line back to back, so the MRU
        // way answers most hits without reordering anything.
        if ways[0] == tag {
            return true;
        }
        // MRU-ordered linear probe: short (<=16 ways) so a scan beats
        // fancier structures. A hit at `pos` (or a miss, which evicts the
        // last way) shifts the more recent ways down by one and puts the
        // line at the MRU slot: exact true LRU.
        let (hit, pos) = match ways[1..].iter().position(|&t| t == tag) {
            Some(p) => (true, p + 1),
            None => (false, ways.len() - 1),
        };
        for i in (1..=pos).rev() {
            ways[i] = ways[i - 1];
        }
        ways[0] = tag;
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Probe without filling or counting (used by tests and the prefetcher
    /// to ask "is this resident?").
    pub fn probe(&self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&(line + 1))
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Forget all contents and counters.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn tiny(ways: usize, sets: usize) -> Cache {
        Cache::new(CacheGeometry { size_bytes: sets * ways * 64, ways })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2, 4);
        assert!(!c.access_line(0x1000));
        assert!(c.access_line(0x1000));
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 1); // one set, two ways
        c.access_line(1);
        c.access_line(2);
        c.access_line(1); // 1 becomes MRU
        assert!(!c.access_line(3)); // evicts 2
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny(1, 2); // direct-mapped, two sets
        c.access_line(0); // set 0
        c.access_line(1); // set 1
        assert!(c.probe(0));
        assert!(c.probe(1));
        c.access_line(2); // set 0 again: evicts 0
        assert!(!c.probe(0));
        assert!(c.probe(1));
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses_second_pass() {
        let mut c = tiny(4, 16); // 64 lines capacity
        for l in 0..128u64 {
            c.access_line(l);
        }
        let misses_before = c.misses();
        for l in 0..128u64 {
            c.access_line(l);
        }
        // LRU streaming: everything was evicted before reuse.
        assert_eq!(c.misses() - misses_before, 128);
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_pass() {
        let mut c = tiny(4, 16);
        for l in 0..64u64 {
            c.access_line(l);
        }
        let misses_before = c.misses();
        for l in 0..64u64 {
            c.access_line(l);
        }
        assert_eq!(c.misses(), misses_before);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny(2, 2);
        c.access_line(7);
        c.reset();
        assert!(!c.probe(7));
        assert_eq!(c.accesses(), 0);
    }

    /// Regression: empty ways used to hold tag 0 while tags were raw line
    /// numbers, so a cold cache reported line 0 as resident and hit on it.
    #[test]
    fn cold_line_zero_misses() {
        let mut c = tiny(2, 4);
        assert!(!c.probe(0), "a cold cache holds nothing");
        assert!(!c.access_line(0), "first touch of line 0 must miss");
        assert_eq!(c.misses(), 1);
        assert!(c.probe(0));
        assert!(c.access_line(0));
        c.reset();
        assert!(!c.probe(0));
    }

    /// Plain true-LRU reference: per set, a `Vec` of lines, most recent
    /// first, at most `ways` long.
    struct RefLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
        accesses: u64,
        misses: u64,
    }

    impl RefLru {
        fn new(ways: usize, sets: usize) -> Self {
            Self { sets: vec![Vec::new(); sets], ways, accesses: 0, misses: 0 }
        }

        fn set(&self, line: u64) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        fn access(&mut self, line: u64) -> bool {
            self.accesses += 1;
            let ways = self.ways;
            let set = self.set(line);
            let lru = &mut self.sets[set];
            let hit = match lru.iter().position(|&l| l == line) {
                Some(p) => {
                    lru.remove(p);
                    true
                }
                None => {
                    self.misses += 1;
                    lru.truncate(ways - 1);
                    false
                }
            };
            lru.insert(0, line);
            hit
        }

        fn probe(&self, line: u64) -> bool {
            self.sets[self.set(line)].contains(&line)
        }
    }

    /// Seeded differential test of `access_line`, `probe` and the counters
    /// against [`RefLru`], over streams mixing a small hot range (line 0
    /// included, so the MRU and shift paths both run) with far lines.
    #[test]
    fn matches_reference_true_lru() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for ways in [1usize, 2, 4, 8, 16] {
            for sets in [1usize, 2, 8, 64] {
                let mut c = tiny(ways, sets);
                let mut r = RefLru::new(ways, sets);
                let hot = (2 * ways * sets) as u64;
                for step in 0..4000 {
                    let line = match next() % 8 {
                        0 => 0,
                        1 => next() >> 20,
                        2 if step > 0 => r.sets[0].first().copied().unwrap_or(0),
                        _ => next() % hot,
                    };
                    let probe = next() % hot;
                    assert_eq!(c.probe(probe), r.probe(probe), "probe {probe} ({ways}w x {sets}s)");
                    assert_eq!(
                        c.access_line(line),
                        r.access(line),
                        "line {line} at step {step} ({ways}w x {sets}s)"
                    );
                    assert_eq!((c.accesses(), c.misses()), (r.accesses, r.misses));
                }
                assert!(r.misses > 0 && r.misses < r.accesses, "stream exercises hits and misses");
            }
        }
    }
}
