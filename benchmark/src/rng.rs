//! The benchmark's own generator PRNG (splitmix64), seeded from `--seed`.
//! The program under test never sees it: it receives only the operations
//! generated from it.

#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// An independent stream for one named part of a workload, so adding
    /// draws to one part does not shift another.
    pub fn fork(&self, label: u64) -> SplitMix {
        let mut child = SplitMix(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let root = SplitMix::new(7);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_ne!(SplitMix::new(7).next_u64(), SplitMix::new(8).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }
}
