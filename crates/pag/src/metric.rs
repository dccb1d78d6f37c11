//! Columnar (SoA) metric storage with interned keys.
//!
//! Every pass touches vertex metrics in its hot loop, so each numeric key
//! is interned into a dense [`KeyId`] and its values live in one *column*
//! per key: a `Vec<f64>` plus a presence
//! bitmap for scalars, a `Vec<Option<Arc<[f64]>>>` for per-process vectors.
//! A metric read is then two array indexings — no string comparison, no
//! per-vertex binary search — and a whole-column scan (`sum`, hotspot
//! ranking, NaN audits) is a linear walk over contiguous `f64`s.
//!
//! Key space: the well-known numeric keys of [`crate::props::keys`] occupy a
//! fixed *global* table (stable `KeyId`s, see [`keys`]); user-defined keys
//! are interned per-PAG starting at [`GLOBAL_KEYS`]`.len()`. String-valued
//! properties (names, debug info) stay in a per-vertex sorted string list,
//! addressed by wire name ([`Pag::vstr`](crate::Pag::vstr)).

use std::collections::HashMap;
use std::sync::Arc;

/// Interned metric key: a dense index into a PAG's metric columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub u32);

impl KeyId {
    /// The key's column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True if this key is one of the well-known global keys (same id in
    /// every PAG); false for per-PAG user keys.
    #[inline]
    pub fn is_global(self) -> bool {
        (self.0 as usize) < GLOBAL_KEYS.len()
    }
}

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Value shape of a metric key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Scalar floating-point measurement.
    F64,
    /// Scalar integer counter (stored as `f64`, read back through
    /// [`Pag::metric_i64`](crate::Pag::metric_i64)).
    I64,
    /// Dense per-process / per-sample vector.
    VecF64,
}

use crate::props::keys as skeys;

/// The global key table: wire name and kind per well-known numeric key.
/// Order defines the stable `KeyId` values in [`keys`] — append only.
pub const GLOBAL_KEYS: &[(&str, MetricKind)] = &[
    (skeys::TIME, MetricKind::F64),
    (skeys::SELF_TIME, MetricKind::F64),
    (skeys::COUNT, MetricKind::I64),
    (skeys::PMU_INSTRUCTIONS, MetricKind::F64),
    (skeys::PMU_CYCLES, MetricKind::F64),
    (skeys::PMU_CACHE_MISSES, MetricKind::F64),
    (skeys::COMM_BYTES, MetricKind::I64),
    (skeys::COMM_TIME, MetricKind::F64),
    (skeys::WAIT_TIME, MetricKind::F64),
    (skeys::PROC, MetricKind::I64),
    (skeys::THREAD, MetricKind::I64),
    (skeys::TOPDOWN_VERTEX, MetricKind::I64),
    (skeys::IMBALANCE, MetricKind::F64),
    (skeys::DIFF_TIME, MetricKind::F64),
    (skeys::DROPPED_SAMPLES, MetricKind::I64),
    (skeys::DROPPED_SPANS, MetricKind::I64),
    (skeys::COMPLETENESS, MetricKind::F64),
    (skeys::TIME_PER_PROC, MetricKind::VecF64),
    (skeys::BYTES_PER_PROC, MetricKind::VecF64),
    (skeys::WAIT_PER_PROC, MetricKind::VecF64),
    (skeys::COMPLETENESS_PER_PROC, MetricKind::VecF64),
];

/// Typed ids for the well-known metric keys. Same order as [`GLOBAL_KEYS`].
pub mod keys {
    use super::KeyId;

    /// Inclusive execution time in seconds.
    pub const TIME: KeyId = KeyId(0);
    /// Exclusive (self) execution time in seconds.
    pub const SELF_TIME: KeyId = KeyId(1);
    /// Number of times the snippet was entered.
    pub const COUNT: KeyId = KeyId(2);
    /// Estimated instruction count (PMU model).
    pub const PMU_INSTRUCTIONS: KeyId = KeyId(3);
    /// Estimated cycle count (PMU model).
    pub const PMU_CYCLES: KeyId = KeyId(4);
    /// Estimated cache misses (PMU model).
    pub const PMU_CACHE_MISSES: KeyId = KeyId(5);
    /// Total bytes communicated by a comm call vertex.
    pub const COMM_BYTES: KeyId = KeyId(6);
    /// Exact aggregate operation time of a comm call vertex.
    pub const COMM_TIME: KeyId = KeyId(7);
    /// Time spent waiting (blocked) inside a comm/lock call.
    pub const WAIT_TIME: KeyId = KeyId(8);
    /// Process (rank) a parallel-view vertex belongs to.
    pub const PROC: KeyId = KeyId(9);
    /// Thread a parallel-view vertex belongs to.
    pub const THREAD: KeyId = KeyId(10);
    /// Id of the corresponding top-down vertex (parallel view only).
    pub const TOPDOWN_VERTEX: KeyId = KeyId(11);
    /// Imbalance score attached by the imbalance-analysis pass.
    pub const IMBALANCE: KeyId = KeyId(12);
    /// Per-metric difference attached by the differential-analysis pass.
    pub const DIFF_TIME: KeyId = KeyId(13);
    /// Profiling samples lost at this vertex (degraded collection).
    pub const DROPPED_SAMPLES: KeyId = KeyId(14);
    /// Observation spans lost to the recorder's span cap.
    pub const DROPPED_SPANS: KeyId = KeyId(15);
    /// Fraction of fired samples actually recorded, in `[0, 1]`.
    pub const COMPLETENESS: KeyId = KeyId(16);
    /// Per-process inclusive time vector (top-down view only).
    pub const TIME_PER_PROC: KeyId = KeyId(17);
    /// Per-process communicated-bytes vector (comm vertices, top-down).
    pub const BYTES_PER_PROC: KeyId = KeyId(18);
    /// Per-process wait-time vector (comm vertices, top-down).
    pub const WAIT_PER_PROC: KeyId = KeyId(19);
    /// Per-process completeness vector (root vertex of a degraded run).
    pub const COMPLETENESS_PER_PROC: KeyId = KeyId(20);
}

fn global_index(name: &str) -> Option<u32> {
    static INDEX: std::sync::OnceLock<HashMap<&'static str, u32>> = std::sync::OnceLock::new();
    INDEX
        .get_or_init(|| {
            GLOBAL_KEYS
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, i as u32))
                .collect()
        })
        .get(name)
        .copied()
}

/// Per-PAG key interner: global keys plus user keys first-seen in this PAG.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    user: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl KeyTable {
    /// Empty table (global keys are always resolvable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of interned keys (global + user).
    pub fn len(&self) -> usize {
        GLOBAL_KEYS.len() + self.user.len()
    }

    /// True if no user keys have been interned.
    pub fn is_empty(&self) -> bool {
        self.user.is_empty()
    }

    /// Resolve a wire name to its `KeyId` without interning.
    pub fn resolve(&self, name: &str) -> Option<KeyId> {
        if let Some(i) = global_index(name) {
            return Some(KeyId(i));
        }
        self.index
            .get(name)
            .map(|&i| KeyId(GLOBAL_KEYS.len() as u32 + i))
    }

    /// Resolve a wire name, interning it as a user key if unknown.
    pub fn intern(&mut self, name: &str) -> KeyId {
        if let Some(k) = self.resolve(name) {
            return k;
        }
        let arc: Arc<str> = Arc::from(name);
        let i = self.user.len() as u32;
        self.user.push(arc.clone());
        self.index.insert(arc, i);
        KeyId(GLOBAL_KEYS.len() as u32 + i)
    }

    /// Wire name of a key.
    pub fn name(&self, k: KeyId) -> &str {
        let i = k.index();
        if i < GLOBAL_KEYS.len() {
            GLOBAL_KEYS[i].0
        } else {
            &self.user[i - GLOBAL_KEYS.len()]
        }
    }
}

/// One scalar metric column: dense values plus a presence bitmap (NaN is a
/// legal value — absence is tracked explicitly, never by sentinel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalarCol {
    data: Vec<f64>,
    present: Vec<u64>,
    /// True if this column holds an integer-kinded metric; rendering then
    /// surfaces values as [`PropValue::Int`](crate::PropValue::Int).
    pub is_int: bool,
}

impl ScalarCol {
    #[inline]
    fn has(&self, row: usize) -> bool {
        // `get` rather than indexing: a presence bitmap shorter than the
        // value vector (audit fault `PresenceLen`) must read as "absent",
        // not panic — the checker still has to walk such a store to
        // report it.
        row < self.data.len()
            && self
                .present
                .get(row >> 6)
                .is_some_and(|w| w & (1u64 << (row & 63)) != 0)
    }

    #[inline]
    fn grow_to(&mut self, row: usize) {
        if row >= self.data.len() {
            self.data.resize(row + 1, 0.0);
            self.present.resize(row / 64 + 1, 0);
        }
    }

    /// Raw value slice (absent rows hold `0.0`; shorter than the row count
    /// when the column tail was never written).
    pub fn values(&self) -> &[f64] {
        &self.data
    }
}

/// One vector metric column.
#[derive(Debug, Clone, Default, PartialEq)]
struct VecCol {
    data: Vec<Option<Arc<[f64]>>>,
}

/// A structural fault in the columnar store, found by
/// [`MetricColumns::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnFault {
    /// A scalar column's presence bitmap has the wrong number of words
    /// for its value count (memory corruption or a buggy mutation path).
    PresenceLen {
        /// The affected column.
        key: KeyId,
        /// Number of stored values.
        data_len: usize,
        /// Number of 64-bit presence words actually held.
        present_words: usize,
    },
    /// A column exists at an index the owning key table never interned.
    UnknownKey {
        /// The orphaned column id.
        key: KeyId,
        /// `"scalar"` or `"vector"`.
        column: &'static str,
    },
}

/// Columnar metric storage for one id space (vertices or edges) of a PAG.
#[derive(Debug, Clone, Default)]
pub struct MetricColumns {
    rows: usize,
    scalars: Vec<Option<ScalarCol>>,
    vecs: Vec<Option<VecCol>>,
}

impl MetricColumns {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (== vertices or edges of the owning PAG).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Append one all-absent row (called by `add_vertex`/`add_edge`).
    /// Columns grow lazily on write, so this is O(1).
    #[inline]
    pub fn push_row(&mut self) {
        self.rows += 1;
    }

    #[inline]
    fn scalar(&self, key: KeyId) -> Option<&ScalarCol> {
        self.scalars.get(key.index())?.as_ref()
    }

    fn scalar_mut(&mut self, key: KeyId, is_int: bool) -> &mut ScalarCol {
        let i = key.index();
        if i >= self.scalars.len() {
            self.scalars.resize(i + 1, None);
        }
        self.scalars[i].get_or_insert_with(|| ScalarCol {
            is_int,
            ..ScalarCol::default()
        })
    }

    /// Scalar read: `None` if the metric was never set on this row.
    #[inline]
    pub fn get(&self, key: KeyId, row: usize) -> Option<f64> {
        let col = self.scalar(key)?;
        col.has(row).then(|| col.data[row])
    }

    /// True if a scalar value is present on this row.
    #[inline]
    pub fn has(&self, key: KeyId, row: usize) -> bool {
        self.scalar(key).is_some_and(|c| c.has(row))
    }

    /// Scalar write (replaces any vector value under the same key).
    pub fn set(&mut self, key: KeyId, row: usize, value: f64, is_int: bool) {
        debug_assert!(row < self.rows, "metric row {row} out of range");
        if let Some(Some(vc)) = self.vecs.get_mut(key.index()) {
            if row < vc.data.len() {
                vc.data[row] = None;
            }
        }
        let col = self.scalar_mut(key, is_int);
        col.grow_to(row);
        col.data[row] = value;
        col.present[row >> 6] |= 1u64 << (row & 63);
        col.is_int = is_int;
    }

    /// Add `delta` to a scalar (absent counts as zero).
    pub fn add(&mut self, key: KeyId, row: usize, delta: f64, is_int: bool) {
        let cur = self.get(key, row).unwrap_or(0.0);
        self.set(key, row, cur + delta, is_int);
    }

    /// Vector read.
    #[inline]
    pub fn get_vec(&self, key: KeyId, row: usize) -> Option<&Arc<[f64]>> {
        self.vecs
            .get(key.index())?
            .as_ref()?
            .data
            .get(row)?
            .as_ref()
    }

    /// Vector write (replaces any scalar value under the same key).
    pub fn set_vec(&mut self, key: KeyId, row: usize, value: Arc<[f64]>) {
        debug_assert!(row < self.rows, "metric row {row} out of range");
        if let Some(Some(sc)) = self.scalars.get_mut(key.index()) {
            if row < sc.data.len() {
                sc.present[row >> 6] &= !(1u64 << (row & 63));
            }
        }
        let i = key.index();
        if i >= self.vecs.len() {
            self.vecs.resize(i + 1, None);
        }
        let vc = self.vecs[i].get_or_insert_with(VecCol::default);
        if row >= vc.data.len() {
            vc.data.resize(row + 1, None);
        }
        vc.data[row] = Some(value);
    }

    /// Direct access to a scalar column, if it exists.
    pub fn scalar_col(&self, key: KeyId) -> Option<&ScalarCol> {
        self.scalar(key)
    }

    /// Visit every present scalar value as `(key, is_int, row, value)`, in
    /// (key, row) order. Used by serialization and metric audits.
    pub fn for_each_scalar(&self, mut f: impl FnMut(KeyId, bool, usize, f64)) {
        for (ki, col) in self.scalars.iter().enumerate() {
            let Some(col) = col else { continue };
            for (row, &x) in col.data.iter().enumerate() {
                if col.present[row >> 6] & (1u64 << (row & 63)) != 0 {
                    f(KeyId(ki as u32), col.is_int, row, x);
                }
            }
        }
    }

    /// Visit every present vector value as `(key, row, values)`, in
    /// (key, row) order.
    pub fn for_each_vec(&self, mut f: impl FnMut(KeyId, usize, &Arc<[f64]>)) {
        for (ki, col) in self.vecs.iter().enumerate() {
            let Some(col) = col else { continue };
            for (row, v) in col.data.iter().enumerate() {
                if let Some(v) = v {
                    f(KeyId(ki as u32), row, v);
                }
            }
        }
    }

    /// Audit the store's structural invariants against a key table of
    /// `known_keys` entries. Returns every fault found; used by
    /// `verify::check_pag` (PF0111 / PF0112).
    pub fn audit(&self, known_keys: usize) -> Vec<ColumnFault> {
        let mut faults = Vec::new();
        for (ki, col) in self.scalars.iter().enumerate() {
            let Some(col) = col else { continue };
            let expected = col.data.len().div_ceil(64);
            if col.present.len() != expected {
                faults.push(ColumnFault::PresenceLen {
                    key: KeyId(ki as u32),
                    data_len: col.data.len(),
                    present_words: col.present.len(),
                });
            }
            if ki >= known_keys {
                faults.push(ColumnFault::UnknownKey {
                    key: KeyId(ki as u32),
                    column: "scalar",
                });
            }
        }
        for (ki, col) in self.vecs.iter().enumerate() {
            if col.is_some() && ki >= known_keys {
                faults.push(ColumnFault::UnknownKey {
                    key: KeyId(ki as u32),
                    column: "vector",
                });
            }
        }
        faults
    }

    /// Test-only hook: truncate a scalar column's presence bitmap so the
    /// PF0111 invariant check has something to fire on. Hidden because
    /// no real code path can produce this state.
    #[doc(hidden)]
    pub fn corrupt_presence_for_test(&mut self, key: KeyId) {
        if let Some(Some(col)) = self.scalars.get_mut(key.index()) {
            col.present.pop();
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn mem_footprint(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.scalars.capacity() * size_of::<Option<ScalarCol>>()
            + self.vecs.capacity() * size_of::<Option<VecCol>>();
        for col in self.scalars.iter().flatten() {
            bytes += col.data.capacity() * size_of::<f64>();
            bytes += col.present.capacity() * size_of::<u64>();
        }
        for col in self.vecs.iter().flatten() {
            bytes += col.data.capacity() * size_of::<Option<Arc<[f64]>>>();
            bytes += col
                .data
                .iter()
                .flatten()
                .map(|v| v.len() * size_of::<f64>())
                .sum::<usize>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_constants_match_table() {
        // The typed constants in `keys` must agree with GLOBAL_KEYS order.
        let pairs = [
            (keys::TIME, skeys::TIME),
            (keys::SELF_TIME, skeys::SELF_TIME),
            (keys::COUNT, skeys::COUNT),
            (keys::PMU_INSTRUCTIONS, skeys::PMU_INSTRUCTIONS),
            (keys::PMU_CYCLES, skeys::PMU_CYCLES),
            (keys::PMU_CACHE_MISSES, skeys::PMU_CACHE_MISSES),
            (keys::COMM_BYTES, skeys::COMM_BYTES),
            (keys::COMM_TIME, skeys::COMM_TIME),
            (keys::WAIT_TIME, skeys::WAIT_TIME),
            (keys::PROC, skeys::PROC),
            (keys::THREAD, skeys::THREAD),
            (keys::TOPDOWN_VERTEX, skeys::TOPDOWN_VERTEX),
            (keys::IMBALANCE, skeys::IMBALANCE),
            (keys::DIFF_TIME, skeys::DIFF_TIME),
            (keys::DROPPED_SAMPLES, skeys::DROPPED_SAMPLES),
            (keys::DROPPED_SPANS, skeys::DROPPED_SPANS),
            (keys::COMPLETENESS, skeys::COMPLETENESS),
            (keys::TIME_PER_PROC, skeys::TIME_PER_PROC),
            (keys::BYTES_PER_PROC, skeys::BYTES_PER_PROC),
            (keys::WAIT_PER_PROC, skeys::WAIT_PER_PROC),
            (keys::COMPLETENESS_PER_PROC, skeys::COMPLETENESS_PER_PROC),
        ];
        assert_eq!(pairs.len(), GLOBAL_KEYS.len());
        for (id, name) in pairs {
            assert_eq!(GLOBAL_KEYS[id.index()].0, name, "key {id} out of order");
            assert!(id.is_global());
        }
    }

    #[test]
    fn intern_resolves_global_then_user() {
        let mut t = KeyTable::new();
        assert_eq!(t.resolve("time"), Some(keys::TIME));
        assert_eq!(t.resolve("custom"), None);
        let k = t.intern("custom");
        assert_eq!(k.index(), GLOBAL_KEYS.len());
        assert!(!k.is_global());
        assert_eq!(t.intern("custom"), k);
        assert_eq!(t.resolve("custom"), Some(k));
        assert_eq!(t.name(k), "custom");
        assert_eq!(t.name(keys::WAIT_TIME), "wait-time");
        assert_eq!(t.len(), GLOBAL_KEYS.len() + 1);
    }

    #[test]
    fn scalar_presence_and_nan() {
        let mut c = MetricColumns::new();
        for _ in 0..130 {
            c.push_row();
        }
        assert_eq!(c.get(keys::TIME, 0), None);
        c.set(keys::TIME, 129, f64::NAN, false);
        c.set(keys::TIME, 0, 1.5, false);
        assert!(c.get(keys::TIME, 129).unwrap().is_nan());
        assert_eq!(c.get(keys::TIME, 1), None); // 0.0-filled gap stays absent
        assert_eq!(c.get(keys::TIME, 0), Some(1.5));
        assert!(c.has(keys::TIME, 129));
        assert!(!c.has(keys::TIME, 64));
        c.add(keys::COUNT, 5, 2.0, true);
        c.add(keys::COUNT, 5, 3.0, true);
        assert_eq!(c.get(keys::COUNT, 5), Some(5.0));
        assert!(c.scalar_col(keys::COUNT).unwrap().is_int);
    }

    #[test]
    fn vec_and_scalar_replace_each_other() {
        let mut c = MetricColumns::new();
        c.push_row();
        c.set(keys::TIME, 0, 1.0, false);
        c.set_vec(keys::TIME, 0, Arc::from(vec![1.0, 2.0].into_boxed_slice()));
        assert_eq!(c.get(keys::TIME, 0), None);
        assert_eq!(c.get_vec(keys::TIME, 0).unwrap().as_ref(), &[1.0, 2.0]);
        c.set(keys::TIME, 0, 3.0, false);
        assert_eq!(c.get_vec(keys::TIME, 0), None);
        assert_eq!(c.get(keys::TIME, 0), Some(3.0));
    }
}
