//! Test-only RNG wrappers shared by the sampler tests.

use rand::RngCore;

/// Counts the words drawn from the generator it wraps.
pub struct Counting<R> {
    inner: R,
    pub words: u64,
}

impl<R: RngCore> Counting<R> {
    pub fn new(inner: R) -> Self {
        Counting { inner, words: 0 }
    }
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest)
    }
}
