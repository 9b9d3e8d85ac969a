//! Dense Q-tables in FP32 and fixed-point INT32.
//!
//! Q-tables store the quality value of every `(state, action)` pair in
//! row-major order. The byte encodings here are the exact layouts the PIM
//! kernels read from and write to MRAM, and [`QTable::mean_of`] is the
//! host-side aggregation SwiftRL performs at every synchronization round
//! ("the final aggregated Q-estimate as the average of all local
//! Q-tables", §4.2).

use crate::fixed::FixedScale;
use std::ops::Range;
use swiftrl_env::{Action, State};

/// A dense FP32 Q-table.
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    num_states: usize,
    num_actions: usize,
    values: Vec<f32>,
}

impl QTable {
    /// Creates a zero-initialized table (the paper initializes Q-tables
    /// with zeros/arbitrary values; zero is the reproducible choice).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(num_states: usize, num_actions: usize) -> Self {
        Self::filled(num_states, num_actions, 0.0)
    }

    /// Creates a table initialized to a constant value. Pessimistic
    /// initialization (below the minimum return) is useful for offline
    /// training on all-negative-reward environments, where zero-init is
    /// optimistic and draws the greedy policy toward unvisited pairs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(num_states: usize, num_actions: usize, value: f32) -> Self {
        assert!(num_states > 0 && num_actions > 0, "empty Q-table");
        Self {
            num_states,
            num_actions,
            values: vec![value; num_states * num_actions],
        }
    }

    /// Number of states (rows).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions (columns).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    #[inline]
    fn idx(&self, s: State, a: Action) -> usize {
        debug_assert!(s.index() < self.num_states && a.index() < self.num_actions);
        s.index() * self.num_actions + a.index()
    }

    /// Q-value of `(s, a)`.
    #[inline]
    pub fn get(&self, s: State, a: Action) -> f32 {
        self.values[self.idx(s, a)]
    }

    /// Sets the Q-value of `(s, a)`.
    #[inline]
    pub fn set(&mut self, s: State, a: Action, v: f32) {
        let i = self.idx(s, a);
        self.values[i] = v;
    }

    /// The action row for `s`.
    pub fn row(&self, s: State) -> &[f32] {
        let start = s.index() * self.num_actions;
        &self.values[start..start + self.num_actions]
    }

    /// Maximum Q-value over actions in `s` (the `max_a' Q(s', a')` term).
    pub fn max_value(&self, s: State) -> f32 {
        self.row(s).iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Greedy action in `s` (first maximum wins ties, matching the
    /// kernels' deterministic argmax).
    pub fn greedy_action(&self, s: State) -> Action {
        let row = self.row(s);
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate().skip(1) {
            if v > row[best] {
                best = i;
            }
        }
        Action(best as u32)
    }

    /// Raw values (row-major).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Serializes as little-endian f32 bits (the MRAM layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.values.len() * 4];
        for (o, v) in out.chunks_exact_mut(4).zip(&self.values) {
            o.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    /// Deserializes from the MRAM layout.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != num_states * num_actions * 4`.
    pub fn from_bytes(num_states: usize, num_actions: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), num_states * num_actions * 4, "bad Q-table size");
        let values = bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect();
        Self {
            num_states,
            num_actions,
            values,
        }
    }

    /// Element-wise mean of several same-shape tables: the host-side
    /// aggregation step.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or shapes differ.
    pub fn mean_of(tables: &[QTable]) -> QTable {
        assert!(!tables.is_empty(), "cannot average zero Q-tables");
        let mut sum = QTableSum::new(tables[0].num_states, tables[0].num_actions);
        for t in tables {
            sum.add(t);
        }
        sum.mean()
    }

    /// Converts to fixed point with the given scale.
    pub fn to_fixed(&self, scale: FixedScale) -> FixedQTable {
        FixedQTable {
            num_states: self.num_states,
            num_actions: self.num_actions,
            scale,
            values: self.values.iter().map(|&v| scale.to_fixed(v)).collect(),
        }
    }

    /// Largest absolute difference with another same-shape table.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &QTable) -> f32 {
        assert_eq!(
            (self.num_states, self.num_actions),
            (other.num_states, other.num_actions),
            "shape mismatch"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Element-wise running sum of same-shape FP32 Q-tables, in the order
/// they are added: the one definition of the host-side averaging order.
/// Sums start at `0.0` and [`Self::mean`] divides each by the table
/// count as `f32`. [`QTable::mean_of`] folds a slice through it; a sync
/// loop folds each DPU's gathered MRAM bytes straight in with
/// [`Self::add_bytes`], without materialising a per-DPU table.
#[derive(Debug)]
pub struct QTableSum {
    num_states: usize,
    num_actions: usize,
    sums: Vec<f32>,
    tables: usize,
}

impl QTableSum {
    /// An empty sum over `num_states × num_actions` tables.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_states: usize, num_actions: usize) -> Self {
        assert!(num_states > 0 && num_actions > 0, "empty Q-table");
        Self {
            num_states,
            num_actions,
            sums: vec![0.0; num_states * num_actions],
            tables: 0,
        }
    }

    /// Tables added since construction or the last [`Self::clear`].
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Adds one table.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn add(&mut self, table: &QTable) {
        assert_eq!(
            (table.num_states, table.num_actions),
            (self.num_states, self.num_actions),
            "shape mismatch"
        );
        for (o, v) in self.sums.iter_mut().zip(&table.values) {
            *o += v;
        }
        self.tables += 1;
    }

    /// Adds one table given in the MRAM layout ([`QTable::to_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != num_states * num_actions * 4`.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        add_f32_bytes(&mut self.sums, bytes);
        self.tables += 1;
    }

    /// Counts `tables` more tables and cuts the sum into at most `parts`
    /// element ranges for a fold split by range: the caller then adds
    /// each of those tables' bytes of a range to that range, in table
    /// order ([`QTableSumRange::add_bytes`]). Every element so sees the
    /// additions of `tables` calls of [`Self::add_bytes`] in the same
    /// order, and the sum is bit for bit theirs however the ranges are
    /// shared between threads.
    pub fn ranges_mut(&mut self, tables: usize, parts: usize) -> Vec<QTableSumRange<'_>> {
        self.tables += tables;
        // Whole 64-byte lines per range, so no two ranges share one.
        let per = self.sums.len().div_ceil(parts.max(1)).next_multiple_of(16);
        self.sums
            .chunks_mut(per)
            .enumerate()
            .map(|(i, sums)| QTableSumRange { start: i * per, sums })
            .collect()
    }

    /// The element-wise mean of the tables added so far.
    ///
    /// # Panics
    ///
    /// Panics if no table was added.
    pub fn mean(&self) -> QTable {
        assert!(self.tables > 0, "cannot average zero Q-tables");
        let n = self.tables as f32;
        QTable {
            num_states: self.num_states,
            num_actions: self.num_actions,
            values: self.sums.iter().map(|&s| s / n).collect(),
        }
    }

    /// Empties the sum, keeping its allocation.
    pub fn clear(&mut self) {
        self.sums.fill(0.0);
        self.tables = 0;
    }
}

/// One element range of a [`QTableSum`], from [`QTableSum::ranges_mut`].
#[derive(Debug)]
pub struct QTableSumRange<'a> {
    start: usize,
    sums: &'a mut [f32],
}

impl QTableSumRange<'_> {
    /// The bytes of a table in the MRAM layout ([`QTable::to_bytes`])
    /// that this range covers.
    pub fn bytes(&self) -> Range<usize> {
        self.start * 4..(self.start + self.sums.len()) * 4
    }

    /// Adds one table's [`Self::bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not as long as the range's bytes.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        add_f32_bytes(self.sums, bytes);
    }
}

/// Adds the little-endian `f32`s of `bytes` to `sums`, element-wise.
fn add_f32_bytes(sums: &mut [f32], bytes: &[u8]) {
    assert_eq!(bytes.len(), sums.len() * 4, "bad Q-table size");
    for (o, c) in sums.iter_mut().zip(bytes.chunks_exact(4)) {
        *o += f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
}

/// A dense fixed-point (INT32) Q-table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedQTable {
    num_states: usize,
    num_actions: usize,
    scale: FixedScale,
    values: Vec<i32>,
}

impl FixedQTable {
    /// Creates a zero-initialized fixed-point table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(num_states: usize, num_actions: usize, scale: FixedScale) -> Self {
        Self::filled(num_states, num_actions, scale, 0)
    }

    /// Creates a table initialized to a constant scaled value.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(num_states: usize, num_actions: usize, scale: FixedScale, value: i32) -> Self {
        assert!(num_states > 0 && num_actions > 0, "empty Q-table");
        Self {
            num_states,
            num_actions,
            scale,
            values: vec![value; num_states * num_actions],
        }
    }

    /// Number of states (rows).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions (columns).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// The fixed-point format.
    pub fn scale(&self) -> FixedScale {
        self.scale
    }

    #[inline]
    fn idx(&self, s: State, a: Action) -> usize {
        debug_assert!(s.index() < self.num_states && a.index() < self.num_actions);
        s.index() * self.num_actions + a.index()
    }

    /// Scaled Q-value of `(s, a)`.
    #[inline]
    pub fn get(&self, s: State, a: Action) -> i32 {
        self.values[self.idx(s, a)]
    }

    /// Sets the scaled Q-value of `(s, a)`.
    #[inline]
    pub fn set(&mut self, s: State, a: Action, v: i32) {
        let i = self.idx(s, a);
        self.values[i] = v;
    }

    /// The action row for `s`.
    pub fn row(&self, s: State) -> &[i32] {
        let start = s.index() * self.num_actions;
        &self.values[start..start + self.num_actions]
    }

    /// Maximum scaled Q-value over actions in `s`. Rows are non-empty by
    /// construction; an empty row would yield `i32::MIN`.
    pub fn max_value(&self, s: State) -> i32 {
        self.row(s).iter().copied().fold(i32::MIN, i32::max)
    }

    /// Greedy action in `s` (first maximum wins ties).
    pub fn greedy_action(&self, s: State) -> Action {
        let row = self.row(s);
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate().skip(1) {
            if v > row[best] {
                best = i;
            }
        }
        Action(best as u32)
    }

    /// Serializes as little-endian i32 (the MRAM layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.values.len() * 4];
        for (o, v) in out.chunks_exact_mut(4).zip(&self.values) {
            o.copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes from the MRAM layout.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != num_states * num_actions * 4`.
    pub fn from_bytes(
        num_states: usize,
        num_actions: usize,
        scale: FixedScale,
        bytes: &[u8],
    ) -> Self {
        assert_eq!(bytes.len(), num_states * num_actions * 4, "bad Q-table size");
        let values = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Self {
            num_states,
            num_actions,
            scale,
            values,
        }
    }

    /// Element-wise mean (computed in i64 to avoid overflow).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or shapes/scales differ.
    pub fn mean_of(tables: &[FixedQTable]) -> FixedQTable {
        assert!(!tables.is_empty(), "cannot average zero Q-tables");
        let first = &tables[0];
        let mut sum = FixedQTableSum::new(first.num_states, first.num_actions, first.scale);
        for t in tables {
            sum.add(t);
        }
        sum.mean()
    }

    /// Converts back to FP32 (the descaling done before PIM→CPU transfer).
    pub fn to_float(&self) -> QTable {
        QTable {
            num_states: self.num_states,
            num_actions: self.num_actions,
            values: self.values.iter().map(|&v| self.scale.to_float(v)).collect(),
        }
    }
}

/// [`QTableSum`] for fixed-point tables: sums in `i64`, so no realistic
/// table count overflows, and [`Self::mean`] truncates each `sum / n`
/// toward zero back to `i32`. Unlike the FP32 sum it does not depend on
/// the order of its tables, so partial sums combine with [`Self::merge`],
/// and tables that differ from a common base in a few entries can be
/// added as those entries' differences ([`Self::add_written`]) plus the
/// base once per table ([`Self::add_base`]).
#[derive(Debug)]
pub struct FixedQTableSum {
    num_states: usize,
    num_actions: usize,
    scale: FixedScale,
    sums: Vec<i64>,
    tables: usize,
}

impl FixedQTableSum {
    /// An empty sum over `num_states × num_actions` tables at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_states: usize, num_actions: usize, scale: FixedScale) -> Self {
        assert!(num_states > 0 && num_actions > 0, "empty Q-table");
        Self {
            num_states,
            num_actions,
            scale,
            sums: vec![0; num_states * num_actions],
            tables: 0,
        }
    }

    /// Tables added since construction or the last [`Self::clear`].
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Adds one table.
    ///
    /// # Panics
    ///
    /// Panics if the shape or scale differs.
    pub fn add(&mut self, table: &FixedQTable) {
        assert_eq!(
            (table.num_states, table.num_actions),
            (self.num_states, self.num_actions),
            "shape mismatch"
        );
        assert_eq!(table.scale, self.scale, "scale mismatch");
        for (o, v) in self.sums.iter_mut().zip(&table.values) {
            *o += *v as i64;
        }
        self.tables += 1;
    }

    /// Adds one table given in the MRAM layout ([`FixedQTable::to_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != num_states * num_actions * 4`.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.sums.len() * 4, "bad Q-table size");
        for (o, c) in self.sums.iter_mut().zip(bytes.chunks_exact(4)) {
            *o += i32::from_le_bytes([c[0], c[1], c[2], c[3]]) as i64;
        }
        self.tables += 1;
    }

    /// Adds one table in the MRAM layout that equals `base` except at
    /// the entry indices `written`, touching only those entries: each
    /// gets `table − base`, and the table is counted. The base itself is
    /// left to [`Self::add_base`], once for all such tables, so
    /// `add_written(t, b, w)` then `add_base(b, 1)` equals
    /// `add_bytes(t)` whenever `t` and `b` agree outside `w`. `written`
    /// must be distinct; an entry listed twice is added twice.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `base` is not `num_states * num_actions * 4`
    /// bytes, or an entry lies outside the table.
    pub fn add_written(&mut self, table: &[u8], base: &[u8], written: &[u32]) {
        assert_eq!(table.len(), self.sums.len() * 4, "bad Q-table size");
        assert_eq!(base.len(), table.len(), "bad base size");
        let ((table, _), (base, _)) = (table.as_chunks::<4>(), base.as_chunks::<4>());
        for &e in written {
            let e = e as usize;
            self.sums[e] += i32::from_le_bytes(table[e]) as i64 - i32::from_le_bytes(base[e]) as i64;
        }
        self.tables += 1;
    }

    /// Adds `copies` times the table `base` (MRAM layout) without
    /// counting any table: the common term of the tables that
    /// [`Self::add_written`] added relative to `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base.len() != num_states * num_actions * 4`.
    pub fn add_base(&mut self, base: &[u8], copies: usize) {
        assert_eq!(base.len(), self.sums.len() * 4, "bad base size");
        let copies = copies as i64;
        for (o, c) in self.sums.iter_mut().zip(base.chunks_exact(4)) {
            *o += copies * i32::from_le_bytes([c[0], c[1], c[2], c[3]]) as i64;
        }
    }

    /// Adds every table `other` holds. Integer sums are exact, so
    /// partial sums merged in any order equal the sequential adds bit
    /// for bit; this is what lets engine workers fold disjoint sets of
    /// tables in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the shape or scale differs.
    pub fn merge(&mut self, other: &FixedQTableSum) {
        assert_eq!(
            (other.num_states, other.num_actions),
            (self.num_states, self.num_actions),
            "shape mismatch"
        );
        assert_eq!(other.scale, self.scale, "scale mismatch");
        for (o, v) in self.sums.iter_mut().zip(&other.sums) {
            *o += v;
        }
        self.tables += other.tables;
    }

    /// The element-wise mean of the tables added so far.
    ///
    /// # Panics
    ///
    /// Panics if no table was added.
    pub fn mean(&self) -> FixedQTable {
        assert!(self.tables > 0, "cannot average zero Q-tables");
        let n = self.tables as i64;
        FixedQTable {
            num_states: self.num_states,
            num_actions: self.num_actions,
            scale: self.scale,
            values: self.sums.iter().map(|&s| (s / n) as i32).collect(),
        }
    }

    /// Empties the sum, keeping its allocation.
    pub fn clear(&mut self) {
        self.sums.fill(0);
        self.tables = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> State {
        State(i)
    }
    fn a(i: u32) -> Action {
        Action(i)
    }

    #[test]
    fn zeros_and_get_set() {
        let mut q = QTable::zeros(16, 4);
        assert_eq!(q.get(s(3), a(2)), 0.0);
        q.set(s(3), a(2), 1.5);
        assert_eq!(q.get(s(3), a(2)), 1.5);
        assert_eq!(q.get(s(3), a(1)), 0.0);
        assert_eq!(q.values().len(), 64);
    }

    #[test]
    fn greedy_and_max_with_ties() {
        let mut q = QTable::zeros(2, 3);
        q.set(s(0), a(1), 2.0);
        q.set(s(0), a(2), 2.0);
        assert_eq!(q.greedy_action(s(0)), a(1), "first max wins");
        assert_eq!(q.max_value(s(0)), 2.0);
        // All-zero row: action 0.
        assert_eq!(q.greedy_action(s(1)), a(0));
    }

    #[test]
    fn bytes_round_trip() {
        let mut q = QTable::zeros(4, 2);
        q.set(s(1), a(0), -0.25);
        q.set(s(3), a(1), 7.0);
        let q2 = QTable::from_bytes(4, 2, &q.to_bytes());
        assert_eq!(q, q2);
    }

    #[test]
    fn mean_of_averages() {
        let mut q1 = QTable::zeros(2, 2);
        let mut q2 = QTable::zeros(2, 2);
        q1.set(s(0), a(0), 1.0);
        q2.set(s(0), a(0), 3.0);
        q2.set(s(1), a(1), 4.0);
        let m = QTable::mean_of(&[q1, q2]);
        assert_eq!(m.get(s(0), a(0)), 2.0);
        assert_eq!(m.get(s(1), a(1)), 2.0);
        assert_eq!(m.get(s(0), a(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero Q-tables")]
    fn mean_of_empty_panics() {
        QTable::mean_of(&[]);
    }

    #[test]
    fn fixed_round_trip_via_float() {
        let scale = FixedScale::paper();
        let mut q = QTable::zeros(3, 2);
        q.set(s(0), a(1), 0.7312);
        q.set(s(2), a(0), -8.6);
        let f = q.to_fixed(scale);
        assert_eq!(f.get(s(0), a(1)), 7_312);
        let back = f.to_float();
        assert!(back.max_abs_diff(&q) <= scale.resolution());
    }

    #[test]
    fn fixed_bytes_round_trip() {
        let scale = FixedScale::paper();
        let mut q = FixedQTable::zeros(4, 3, scale);
        q.set(s(2), a(2), -12_345);
        let q2 = FixedQTable::from_bytes(4, 3, scale, &q.to_bytes());
        assert_eq!(q, q2);
    }

    #[test]
    fn fixed_mean_no_overflow() {
        let scale = FixedScale::paper();
        let mut q1 = FixedQTable::zeros(1, 1, scale);
        let mut q2 = FixedQTable::zeros(1, 1, scale);
        q1.set(s(0), a(0), i32::MAX);
        q2.set(s(0), a(0), i32::MAX - 1);
        let m = FixedQTable::mean_of(&[q1, q2]);
        assert_eq!(m.get(s(0), a(0)), i32::MAX - 1);
    }

    /// SplitMix64 finaliser: a deterministic pick stream for the fold
    /// tests.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The averaging as it stood before the fold existed: parse every
    /// blob into its own table, sum from `+0.0` in slice order, divide by
    /// the count. Kept verbatim as the oracle for the accumulator.
    fn parse_then_mean_fp32(blobs: &[Vec<u8>], ns: usize, na: usize) -> Vec<u8> {
        let mut out = vec![0.0f32; ns * na];
        for b in blobs {
            let t = QTable::from_bytes(ns, na, b);
            for (o, v) in out.iter_mut().zip(t.values()) {
                *o += v;
            }
        }
        let n = blobs.len() as f32;
        for o in &mut out {
            *o /= n;
        }
        out.iter().flat_map(|o| o.to_bits().to_le_bytes()).collect()
    }

    fn parse_then_mean_int32(blobs: &[Vec<u8>], ns: usize, na: usize) -> Vec<u8> {
        let mut sums = vec![0i64; ns * na];
        for b in blobs {
            for (o, c) in sums.iter_mut().zip(b.chunks_exact(4)) {
                *o += i32::from_le_bytes([c[0], c[1], c[2], c[3]]) as i64;
            }
        }
        let n = blobs.len() as i64;
        sums.iter().flat_map(|&s| ((s / n) as i32).to_le_bytes()).collect()
    }

    #[test]
    fn fold_matches_parse_then_mean_bit_for_bit() {
        // Entry e of every table draws from value class e % 6, so each
        // class survives 2,524 tables instead of drowning in NaN. Which
        // operand's payload an IEEE add keeps when both are NaN is up to
        // the compiler, so each NaN entry carries one payload: quiet or
        // signalling, of either sign.
        const FP_CLASSES: [&[u32]; 6] = [
            &[0x0000_0000, 0x8000_0000], // ±0.0
            // Subnormals of both signs and the smallest normal.
            &[0x0000_0001, 0x8000_0001, 0x007F_FFFF, 0x807F_FFFF, 0x0080_0000],
            // Normals, ±f32::MAX (sums overflow) and ±infinity.
            &[0x3F80_0000, 0xBDCC_CCCD, 0x7F7F_FFFF, 0xFF7F_FFFF, 0x7F80_0000, 0xFF80_0000],
            &[0x3F80_0000, 0x7FC0_0001],
            &[0xBF80_0000, 0xFFC0_1234],
            &[0x0000_0001, 0x7F80_0001],
        ];
        const INT_LATTICE: [i32; 7] = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        let (ns, na) = (3, 6);
        let scale = FixedScale::paper();
        for n in [1usize, 2_524] {
            let pick = |t: usize, e: usize| mix((t * ns * na + e) as u64 ^ n as u64) as usize;
            let fp: Vec<Vec<u8>> = (0..n)
                .map(|t| {
                    (0..ns * na)
                        .flat_map(|e| {
                            let class = FP_CLASSES[e % FP_CLASSES.len()];
                            class[pick(t, e) % class.len()].to_le_bytes()
                        })
                        .collect()
                })
                .collect();
            let int: Vec<Vec<u8>> = (0..n)
                .map(|t| {
                    (0..ns * na)
                        .flat_map(|e| INT_LATTICE[pick(t, e) % INT_LATTICE.len()].to_le_bytes())
                        .collect()
                })
                .collect();

            let oracle = parse_then_mean_fp32(&fp, ns, na);
            let mut sum = QTableSum::new(ns, na);
            fp.iter().for_each(|b| sum.add_bytes(b));
            assert_eq!(sum.tables(), n);
            assert_eq!(sum.mean().to_bytes(), oracle, "FP32 fold, {n} tables");
            let parsed: Vec<QTable> = fp.iter().map(|b| QTable::from_bytes(ns, na, b)).collect();
            assert_eq!(QTable::mean_of(&parsed).to_bytes(), oracle, "FP32 mean_of, {n} tables");

            let oracle = parse_then_mean_int32(&int, ns, na);
            let mut sum = FixedQTableSum::new(ns, na, scale);
            int.iter().for_each(|b| sum.add_bytes(b));
            assert_eq!(sum.mean().to_bytes(), oracle, "INT32 fold, {n} tables");
            let parsed: Vec<FixedQTable> = int
                .iter()
                .map(|b| FixedQTable::from_bytes(ns, na, scale, b))
                .collect();
            assert_eq!(
                FixedQTable::mean_of(&parsed).to_bytes(),
                oracle,
                "INT32 mean_of, {n} tables"
            );

            // A cleared sum starts over.
            sum.clear();
            sum.add_bytes(&int[0]);
            assert_eq!(sum.mean().to_bytes(), int[0]);
        }
    }

    #[test]
    fn fixed_merge_at_every_split_point_equals_the_sequential_adds() {
        let (ns, na) = (2, 3);
        let scale = FixedScale::paper();
        let n = 40;
        // Full-range values, extremes included, so partial sums cross
        // the i32 range in both directions.
        let tables: Vec<Vec<u8>> = (0..n)
            .map(|t| {
                (0..ns * na)
                    .flat_map(|e| match mix((t * ns * na + e) as u64) % 5 {
                        0 => i32::MIN,
                        1 => i32::MAX,
                        _ => mix((t * 97 + e) as u64) as i32,
                    }
                    .to_le_bytes())
                    .collect()
            })
            .collect();
        let fold = |blobs: &[Vec<u8>]| {
            let mut sum = FixedQTableSum::new(ns, na, scale);
            blobs.iter().for_each(|b| sum.add_bytes(b));
            sum
        };
        let sequential = fold(&tables);
        for k in 0..=n {
            let (head, tail) = tables.split_at(k);
            let mut front = fold(head);
            front.merge(&fold(tail));
            let mut back = fold(tail);
            back.merge(&fold(head));
            for merged in [&front, &back] {
                assert_eq!(merged.sums, sequential.sums, "split at {k}");
                assert_eq!(merged.tables(), n, "split at {k}");
                assert_eq!(merged.mean(), sequential.mean(), "split at {k}");
            }
        }
    }

    #[test]
    fn written_entries_plus_the_base_equal_the_dense_adds() {
        let (ns, na) = (5, 6);
        let scale = FixedScale::paper();
        let n = 24;
        let value = |r: u64| match r % 4 {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => (r >> 8) as i32,
        };
        let to_bytes = |values: &[i32]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
        let base: Vec<i32> = (0..ns * na).map(|e| value(mix(e as u64 ^ 0xBA5E))).collect();
        assert!(base.iter().any(|&v| v != 0));
        // Table t equals the base outside a pseudo-random set of entries;
        // table 0 writes none (an empty DPU) and table 1 writes them all.
        let tables: Vec<(Vec<u8>, Vec<u32>)> = (0..n)
            .map(|t| {
                let written: Vec<u32> = (0..ns * na)
                    .filter(|&e| t == 1 || (t > 1 && mix((t * ns * na + e) as u64).is_multiple_of(5)))
                    .map(|e| e as u32)
                    .collect();
                let mut values = base.clone();
                for &e in &written {
                    values[e as usize] = value(mix((t * 131 + e as usize) as u64 ^ 0x517E));
                }
                (to_bytes(&values), written)
            })
            .collect();
        let base = to_bytes(&base);
        let dense = |tables: &[(Vec<u8>, Vec<u32>)]| {
            let mut sum = FixedQTableSum::new(ns, na, scale);
            tables.iter().for_each(|(t, _)| sum.add_bytes(t));
            sum
        };
        let sparse = |tables: &[(Vec<u8>, Vec<u32>)]| {
            let mut sum = FixedQTableSum::new(ns, na, scale);
            tables.iter().for_each(|(t, w)| sum.add_written(t, &base, w));
            sum.add_base(&base, tables.len());
            sum
        };
        let all = dense(&tables);
        assert_eq!(sparse(&tables).sums, all.sums);
        assert_eq!(sparse(&tables[..1]).mean().to_bytes(), base, "an empty DPU keeps the base");
        for k in 0..=n {
            let (head, tail) = tables.split_at(k);
            let mut front = sparse(head);
            front.merge(&sparse(tail));
            let mut back = sparse(tail);
            back.merge(&sparse(head));
            for merged in [&front, &back] {
                assert_eq!(merged.sums, all.sums, "split at {k}");
                assert_eq!(merged.tables(), n, "split at {k}");
                assert_eq!(merged.mean(), all.mean(), "split at {k}");
            }
        }
    }

    #[test]
    fn range_fold_equals_the_sequential_adds_bit_for_bit() {
        let (ns, na) = (7, 9);
        let n = 30;
        // Mixed magnitudes and signs, so the f32 sums round differently
        // in any other order.
        let tables: Vec<Vec<u8>> = (0..n)
            .map(|t| {
                (0..ns * na)
                    .flat_map(|e| {
                        let r = mix((t * ns * na + e) as u64);
                        let v = (r % 2_000_001) as f32 / 1_000.0 - 1_000.0;
                        (v * [1.0, 1e-3, 1e3][(r % 3) as usize]).to_le_bytes()
                    })
                    .collect()
            })
            .collect();
        let mut sequential = QTableSum::new(ns, na);
        tables.iter().for_each(|b| sequential.add_bytes(b));
        for parts in [1, 2, 3, 4, 64] {
            let mut sum = QTableSum::new(ns, na);
            let mut ranges = sum.ranges_mut(n, parts);
            assert!(ranges.len() <= parts, "{parts} parts");
            // Range by range, as a worker would take them.
            for range in ranges.iter_mut().rev() {
                for table in &tables {
                    range.add_bytes(&table[range.bytes()]);
                }
            }
            assert_eq!(sum.mean().to_bytes(), sequential.mean().to_bytes(), "{parts} parts");
            assert_eq!(sum.tables(), n);
        }
    }

    #[test]
    fn fixed_greedy_matches_float_greedy() {
        let mut q = QTable::zeros(4, 4);
        q.set(s(1), a(3), 0.9);
        q.set(s(1), a(0), 0.2);
        let f = q.to_fixed(FixedScale::paper());
        for st in 0..4 {
            assert_eq!(q.greedy_action(s(st)), f.greedy_action(s(st)));
        }
    }

    #[test]
    #[should_panic(expected = "empty Q-table")]
    fn empty_table_rejected() {
        QTable::zeros(0, 4);
    }
}
