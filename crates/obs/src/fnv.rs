//! The workspace's one byte-wise FNV-1a hasher: value/pass fingerprints
//! in `core`, report and checkpoint digests in `driver`, and the trace
//! digest here all fold bytes through it (no external dependencies,
//! stable across platforms).

/// Incremental 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a word as its little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
