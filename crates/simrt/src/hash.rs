//! The hasher of the simulator's private integer-keyed maps (CCT
//! interning, message channels, lock tables).
//!
//! Their keys are small tuples of ids the simulator itself hands out, so
//! SipHash's protection against crafted keys buys nothing and costs most
//! of a probe. Iteration order of these maps never reaches an output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over integer words.
#[derive(Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

/// A `HashMap` hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // The multiply mixes upwards; the table indexes by the low bits.
        self.0.rotate_left(26)
    }
}
