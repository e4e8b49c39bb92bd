//! Typed column-major table storage: the engine's only copy of a table.
//!
//! [`Table::push_row`] appends each validated value straight into a typed
//! column builder (`i64` / `f64` / `bool` / `i32` vectors with a null bit
//! per row; strings interned into an insertion-order dictionary), and
//! [`Table::seal`] — called by [`crate::Catalog::register`] — turns the
//! builders into a [`ColumnarTable`]. No row-major copy is ever built. The
//! columnar executor (`exec_columnar`) scans the typed vectors
//! directly, and the reference interpreter reads the same storage a row at
//! a time through the [`ColumnarTable::rows`] cursor.
//!
//! Storage layout (the 10M-row upgrades):
//!
//! * **Dictionary-encoded strings** — a string column stores `u32` codes
//!   into a lexicographically sorted dictionary (sealing sorts the
//!   insertion-order dictionary and remaps the codes), so code order equals
//!   string order and predicates compare integers instead of strings.
//! * **Bit-packed null masks** — nulls cost one bit per row ([`BitMask`]),
//!   and the same structure backs the executor's selection masks so a
//!   pruned block is 64 rows per word write, not 64 bool writes.
//! * **Zone maps** — every column is summarized in [`BLOCK_ROWS`]-row
//!   blocks carrying min/max and a null count ([`ZoneMap`]), letting the
//!   executor skip whole blocks whose value range cannot intersect a
//!   predicate.
//!
//! Per-column [`ColumnStats`] are computed lazily from the typed storage
//! (sorting primitives, or just reading the dictionary).
//!
//! [`Table::push_row`]: crate::Table::push_row
//! [`Table::seal`]: crate::Table::seal

use crate::schema::{Field, Schema};
use crate::stats::{ColumnStats, DISTINCT_SAMPLE_CAP};
use crate::value::{DataType, Value};
use pi2_sql::Date;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Rows per zone-map block. 4096 keeps zone metadata tiny (a 10M-row
/// column carries ~2.4k blocks) while making a pruned block worth 64
/// whole words of skipped mask writes.
pub const BLOCK_ROWS: usize = 4096;

/// Number of zone-map blocks covering `len` rows.
#[inline]
pub fn block_count(len: usize) -> usize {
    len.div_ceil(BLOCK_ROWS)
}

/// The row range of block `b` in a column of `len` rows.
#[inline]
pub fn block_range(b: usize, len: usize) -> Range<usize> {
    let start = b * BLOCK_ROWS;
    start..((start + BLOCK_ROWS).min(len))
}

/// A fixed-length bit set over row indices: one bit per row, packed 64 per
/// word. Used both for column null masks and for the executor's selection
/// masks. Bits at positions `>= len` are kept zero so word-granular
/// operations (`count_ones`, [`BitMask::iter_ones`]) need no tail special
/// case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// A mask of `len` bits, all set to `fill`.
    pub fn new(len: usize, fill: bool) -> BitMask {
        let words = len.div_ceil(64);
        let mut m = BitMask { words: vec![if fill { !0u64 } else { 0 }; words], len };
        m.trim_tail();
        m
    }

    /// Append one bit (how a column builder grows its null mask).
    pub fn push(&mut self, bit: bool) {
        if self.len & 63 == 0 {
            self.words.push(0);
        }
        self.len += 1;
        if bit {
            self.set(self.len - 1);
        }
    }

    /// Number of bits (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Set the bit at `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Set or clear all bits in `range`, word-at-a-time where possible.
    pub fn fill_range(&mut self, range: Range<usize>, fill: bool) {
        debug_assert!(range.end <= self.len);
        for (w, m) in word_masks(range) {
            if fill {
                self.words[w] |= m;
            } else {
                self.words[w] &= !m;
            }
        }
    }

    /// Copy the bits in `range` from `other` (same length masks).
    pub fn copy_range_from(&mut self, other: &BitMask, range: Range<usize>) {
        debug_assert_eq!(self.len, other.len);
        debug_assert!(range.end <= self.len);
        for (w, m) in word_masks(range) {
            self.words[w] = (self.words[w] & !m) | (other.words[w] & m);
        }
    }

    /// Clear each set bit in `range` whose row `keep` rejects, visiting only
    /// the set bits, a word at a time. Returns whether any bit in `range` is
    /// still set. The first error stops the walk; bits visited before it
    /// keep their new values.
    pub fn retain_in<E>(
        &mut self,
        range: Range<usize>,
        mut keep: impl FnMut(usize) -> std::result::Result<bool, E>,
    ) -> std::result::Result<bool, E> {
        debug_assert!(range.end <= self.len);
        let mut any = false;
        for (w, m) in word_masks(range) {
            let mut bits = self.words[w] & m;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                if !keep((w << 6) | bit as usize)? {
                    self.words[w] &= !(1u64 << bit);
                }
            }
            any |= self.words[w] & m != 0;
        }
        Ok(any)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the indices of set bits in ascending order, skipping zero
    /// words 64 rows at a time.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Zero any bits at positions `>= len` in the last word.
    fn trim_tail(&mut self) {
        let tail = self.len & 63;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// The words that `range` touches, each with the mask of its bits that
/// fall inside the range.
fn word_masks(range: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let (start, end) = (range.start, range.end);
    let words = if start < end { (start >> 6)..(((end - 1) >> 6) + 1) } else { 0..0 };
    words.map(move |w| {
        let lo = if w == start >> 6 { start & 63 } else { 0 };
        let hi = if w == (end - 1) >> 6 { ((end - 1) & 63) + 1 } else { 64 };
        let above = if hi == 64 { !0u64 } else { (1u64 << hi) - 1 };
        (w, above & !((1u64 << lo) - 1))
    })
}

/// Iterator over set bit positions of a [`BitMask`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word_idx << 6) | bit)
    }
}

/// A dictionary-encoded string column: `codes[i]` indexes into `dict`,
/// which is sorted lexicographically so **code order equals string order**
/// — comparisons against a constant become integer comparisons against the
/// constant's rank. Null rows hold a placeholder code and are tracked by
/// the enclosing [`Column::nulls`] mask.
#[derive(Debug, Clone)]
pub struct DictColumn {
    /// Per-row dictionary codes.
    pub codes: Vec<u32>,
    /// Distinct non-null strings, sorted ascending.
    pub dict: Vec<String>,
}

impl DictColumn {
    /// The string at row `i` (caller must ensure the row is non-null).
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.dict[self.codes[i] as usize]
    }

    /// The rank of `s` in the dictionary: `Ok(code)` when present,
    /// `Err(insertion point)` when absent. Comparing a row's code against
    /// this rank reproduces the string comparison exactly.
    pub fn rank(&self, s: &str) -> std::result::Result<u32, u32> {
        match self.dict.binary_search_by(|d| d.as_str().cmp(s)) {
            Ok(i) => Ok(i as u32),
            Err(i) => Err(i as u32),
        }
    }
}

/// Typed storage for one column. Null slots hold a placeholder (0 / a code
/// / epoch) and are tracked by the enclosing [`Column::nulls`] mask. A
/// NULL-declared column, which can only hold NULLs, is stored as an
/// all-null `Bool` column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded strings.
    Str(DictColumn),
    /// Dates as day numbers.
    Date(Vec<i32>),
}

/// Zone-map summary of one [`BLOCK_ROWS`]-row block of a column: the
/// min/max over non-null rows (as [`Value`]s, whose total order matches
/// the typed comparison loops) and how many rows are null.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// NULL rows in this block.
    pub null_count: u32,
    /// `(min, max)` over the block's non-null rows; `None` when every row
    /// in the block is null.
    pub min_max: Option<(Value, Value)>,
}

/// One column of a [`ColumnarTable`]: typed data, an optional bit-packed
/// null mask (absent when the column contains no NULLs, the common case),
/// and per-block zone maps.
#[derive(Debug, Clone)]
pub struct Column {
    /// The values.
    pub data: ColumnData,
    /// Set bit = row is NULL; `None` means no NULLs.
    pub nulls: Option<BitMask>,
    /// Per-block zone maps.
    pub zones: Vec<ZoneMap>,
}

impl Column {
    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(i))
    }

    /// Materialize row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(d) => Value::Str(d.get(i).to_string()),
            ColumnData::Date(v) => Value::Date(Date(v[i])),
        }
    }

    /// Append the values of `rows` to `into`: one loop per storage type,
    /// with a null test per row only when the column has NULLs.
    pub(crate) fn gather(&self, rows: &[usize], into: &mut Vec<Value>) {
        fn typed(
            rows: &[usize],
            nulls: Option<&BitMask>,
            into: &mut Vec<Value>,
            get: impl Fn(usize) -> Value,
        ) {
            match nulls {
                None => into.extend(rows.iter().map(|&r| get(r))),
                Some(n) => {
                    into.extend(rows.iter().map(|&r| if n.get(r) { Value::Null } else { get(r) }))
                }
            }
        }
        let nulls = self.nulls.as_ref();
        match &self.data {
            ColumnData::Int(v) => typed(rows, nulls, into, |r| Value::Int(v[r])),
            ColumnData::Float(v) => typed(rows, nulls, into, |r| Value::Float(v[r])),
            ColumnData::Bool(v) => typed(rows, nulls, into, |r| Value::Bool(v[r])),
            ColumnData::Str(d) => typed(rows, nulls, into, |r| Value::Str(d.get(r).to_string())),
            ColumnData::Date(v) => typed(rows, nulls, into, |r| Value::Date(Date(v[r]))),
        }
    }
}

/// Append-only typed storage for one column of a [`crate::Table`] under
/// construction. Strings are interned into an insertion-order dictionary:
/// `interned` maps each distinct string to its code, and [`Self::seal`]
/// sorts it.
#[derive(Debug, Clone)]
pub(crate) struct ColumnBuilder {
    data: ColumnData,
    nulls: BitMask,
    interned: HashMap<String, u32>,
}

impl ColumnBuilder {
    /// An empty builder for a column declared as `declared`.
    pub(crate) fn new(declared: DataType) -> ColumnBuilder {
        let data = match declared {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Bool | DataType::Null => ColumnData::Bool(Vec::new()),
            DataType::Str => ColumnData::Str(DictColumn { codes: Vec::new(), dict: Vec::new() }),
            DataType::Date => ColumnData::Date(Vec::new()),
        };
        ColumnBuilder { data, nulls: BitMask::new(0, false), interned: HashMap::new() }
    }

    /// Append one value that `Table::push_row` has validated against the
    /// declared type (so it is NULL or of the storage type).
    pub(crate) fn push(&mut self, value: Value) {
        self.nulls.push(value.is_null());
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
            (ColumnData::Date(v), Value::Date(x)) => v.push(x.0),
            (ColumnData::Str(d), Value::Str(s)) => {
                let next = self.interned.len() as u32;
                d.codes.push(*self.interned.entry(s).or_insert(next));
            }
            (data, value) => {
                debug_assert!(value.is_null(), "unvalidated {value:?} in {data:?}");
                match data {
                    ColumnData::Int(v) => v.push(0),
                    ColumnData::Float(v) => v.push(0.0),
                    ColumnData::Bool(v) => v.push(false),
                    ColumnData::Date(v) => v.push(0),
                    ColumnData::Str(d) => d.codes.push(0),
                }
            }
        }
    }

    /// Seal into an immutable [`Column`]: sort the dictionary and remap the
    /// codes so code order is string order, drop a null mask with no bit
    /// set, and build the zone maps.
    pub(crate) fn seal(self) -> Column {
        let ColumnBuilder { mut data, nulls, interned } = self;
        if let ColumnData::Str(d) = &mut data {
            let mut entries: Vec<(String, u32)> = interned.into_iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut remap = vec![0u32; entries.len()];
            for (code, (_, first_seen)) in entries.iter().enumerate() {
                remap[*first_seen as usize] = code as u32;
            }
            // Null rows' placeholder code 0 stays in range (or the column
            // is all NULL and the dictionary empty).
            for c in &mut d.codes {
                *c = remap.get(*c as usize).copied().unwrap_or(0);
            }
            d.dict = entries.into_iter().map(|(s, _)| s).collect();
        }
        let len = nulls.len();
        let nulls = (nulls.count_ones() > 0).then_some(nulls);
        let zones = build_zones(&data, nulls.as_ref(), len);
        Column { data, nulls, zones }
    }
}

/// Compute per-block zone maps for typed storage. The min/max are stored
/// as [`Value`]s because `Value`'s total order agrees with every typed
/// comparison loop in the executor (ints exactly, floats via `total_cmp`,
/// strings via the sorted dictionary).
fn build_zones(data: &ColumnData, nulls: Option<&BitMask>, len: usize) -> Vec<ZoneMap> {
    fn typed<T: Copy>(
        vals: &[T],
        nulls: Option<&BitMask>,
        len: usize,
        cmp: impl Fn(&T, &T) -> Ordering,
        to_value: impl Fn(T) -> Value,
    ) -> Vec<ZoneMap> {
        (0..block_count(len))
            .map(|b| {
                let range = block_range(b, len);
                let mut min: Option<T> = None;
                let mut max: Option<T> = None;
                let mut null_count = 0u32;
                for i in range {
                    if nulls.is_some_and(|n| n.get(i)) {
                        null_count += 1;
                        continue;
                    }
                    let x = vals[i];
                    if min.as_ref().is_none_or(|m| cmp(&x, m) == Ordering::Less) {
                        min = Some(x);
                    }
                    if max.as_ref().is_none_or(|m| cmp(&x, m) == Ordering::Greater) {
                        max = Some(x);
                    }
                }
                let min_max = min.zip(max).map(|(a, b)| (to_value(a), to_value(b)));
                ZoneMap { null_count, min_max }
            })
            .collect()
    }

    match data {
        ColumnData::Int(v) => typed(v, nulls, len, i64::cmp, Value::Int),
        ColumnData::Float(v) => typed(v, nulls, len, |a, b| a.total_cmp(b), Value::Float),
        ColumnData::Bool(v) => typed(v, nulls, len, bool::cmp, Value::Bool),
        ColumnData::Date(v) => typed(v, nulls, len, i32::cmp, |d| Value::Date(Date(d))),
        ColumnData::Str(d) => {
            typed(&d.codes, nulls, len, u32::cmp, |c| Value::Str(d.dict[c as usize].clone()))
        }
    }
}

/// A sealed base table: its schema, typed columns, lazily computed
/// statistics, and a row cursor ([`Self::rows`]) for row-at-a-time readers.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    /// The name.
    pub name: String,
    /// The schema.
    pub schema: Schema,
    /// Number of rows.
    pub len: usize,
    /// Columns, in schema order.
    pub columns: Vec<Column>,
    /// Per-column statistics, computed from typed storage on first use.
    stats: Vec<OnceLock<ColumnStats>>,
    /// Wall-clock time spent sealing the column builders, in nanoseconds.
    build_nanos: u64,
}

impl ColumnarTable {
    /// Assemble a sealed table; `build_nanos` is the time the seal took.
    pub(crate) fn new(
        name: String,
        schema: Schema,
        len: usize,
        columns: Vec<Column>,
        build_nanos: u64,
    ) -> ColumnarTable {
        let stats = columns.iter().map(|_| OnceLock::new()).collect();
        ColumnarTable { name, schema, len, columns, stats, build_nanos }
    }

    /// Row `i`, each cell decoded to a [`Value`], in schema order.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Every row in storage order, decoded one at a time: the scan the
    /// reference interpreter filters, so it never holds the whole table.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Wall-clock nanoseconds spent sealing this table.
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos
    }

    /// Statistics for column `idx`, computed from typed storage on first
    /// use and cached. Matches [`ColumnStats::compute`] value-for-value.
    pub fn column_stats(&self, idx: usize) -> &ColumnStats {
        self.stats[idx]
            .get_or_init(|| compute_stats(&self.schema.fields[idx], &self.columns[idx], self.len))
    }

    /// Position of `name` in the schema (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }
}

/// Compute [`ColumnStats`] from typed columnar storage: sort-and-dedup for
/// primitives (exactly the order `Value`'s `Ord` gives them) and a
/// dictionary read for strings.
fn compute_stats(field: &Field, col: &Column, len: usize) -> ColumnStats {
    fn sorted_stats<T: Copy>(
        vals: &[T],
        nulls: Option<&BitMask>,
        cmp: impl Fn(&T, &T) -> Ordering + Copy,
        to_value: impl Fn(T) -> Value,
    ) -> (usize, Option<Value>, Option<Value>, Option<Vec<Value>>) {
        let mut non_null: Vec<T> = match nulls {
            None => vals.to_vec(),
            Some(mask) => {
                vals.iter().enumerate().filter(|(i, _)| !mask.get(*i)).map(|(_, v)| *v).collect()
            }
        };
        non_null.sort_unstable_by(cmp);
        non_null.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
        let min = non_null.first().map(|v| to_value(*v));
        let max = non_null.last().map(|v| to_value(*v));
        let distinct_count = non_null.len();
        let distinct_values = (distinct_count <= DISTINCT_SAMPLE_CAP)
            .then(|| non_null.into_iter().map(to_value).collect());
        (distinct_count, min, max, distinct_values)
    }

    let null_count = col.nulls.as_ref().map_or(0, BitMask::count_ones);
    let nulls = col.nulls.as_ref();
    let (distinct_count, min, max, distinct_values) = match &col.data {
        ColumnData::Int(v) => sorted_stats(v, nulls, |a, b| a.cmp(b), Value::Int),
        ColumnData::Float(v) => sorted_stats(v, nulls, |a, b| a.total_cmp(b), Value::Float),
        ColumnData::Bool(v) => sorted_stats(v, nulls, |a, b| a.cmp(b), Value::Bool),
        ColumnData::Date(v) => sorted_stats(v, nulls, |a, b| a.cmp(b), |d| Value::Date(Date(d))),
        ColumnData::Str(d) => {
            // The dictionary is the distinct set, already sorted.
            let distinct_count = d.dict.len();
            let min = d.dict.first().map(|s| Value::Str(s.clone()));
            let max = d.dict.last().map(|s| Value::Str(s.clone()));
            let distinct_values = (distinct_count <= DISTINCT_SAMPLE_CAP)
                .then(|| d.dict.iter().map(|s| Value::Str(s.clone())).collect());
            (distinct_count, min, max, distinct_values)
        }
    };
    ColumnStats {
        name: field.name.clone(),
        data_type: field.data_type,
        row_count: len,
        null_count,
        distinct_count,
        min,
        max,
        distinct_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn sample_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::str("x"), Value::Float(0.5)],
            vec![Value::Null, Value::str("y"), Value::Null],
            vec![Value::Int(3), Value::Null, Value::Float(2.5)],
        ]
    }

    fn sample() -> Table {
        let mut t = Table::builder("t")
            .column("a", DataType::Int)
            .column("b", DataType::Str)
            .column("c", DataType::Float)
            .build();
        for row in sample_rows() {
            t.push_row(row).unwrap();
        }
        t
    }

    #[test]
    fn cursor_roundtrips_values() {
        let c = sample().seal();
        assert_eq!(c.len, 3);
        assert_eq!(c.rows().collect::<Vec<_>>(), sample_rows());
        assert_eq!(c.row(1), sample_rows()[1]);
    }

    #[test]
    fn typed_storage_and_null_masks() {
        let c = sample().seal();
        assert!(matches!(c.columns[0].data, ColumnData::Int(_)));
        assert!(matches!(c.columns[1].data, ColumnData::Str(_)));
        assert!(matches!(c.columns[2].data, ColumnData::Float(_)));
        assert!(c.columns[0].is_null(1));
        assert!(!c.columns[0].is_null(0));
        assert!(c.columns[1].is_null(2));
    }

    #[test]
    fn no_nulls_means_no_mask() {
        let mut t = Table::builder("t").column("a", DataType::Int).build();
        t.push_row(vec![Value::Int(1)]).unwrap();
        let c = t.seal();
        assert!(c.columns[0].nulls.is_none());
    }

    #[test]
    fn null_declared_column_is_stored_all_null() {
        let mut t = Table::builder("t").column("n", DataType::Null).build();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        let c = t.seal();
        assert_eq!(c.columns[0].nulls.as_ref().map(BitMask::count_ones), Some(2));
        assert_eq!(c.rows().collect::<Vec<_>>(), vec![vec![Value::Null]; 2]);
        assert_eq!(c.column_stats(0).distinct_count, 0);
    }

    #[test]
    fn dictionary_is_sorted_and_roundtrips() {
        let mut t = Table::builder("t").column("s", DataType::Str).build();
        for s in ["pear", "apple", "pear", "fig", "apple", "apple"] {
            t.push_row(vec![Value::str(s)]).unwrap();
        }
        let c = t.seal();
        let ColumnData::Str(d) = &c.columns[0].data else { panic!("expected dict column") };
        assert_eq!(d.dict, vec!["apple", "fig", "pear"]);
        assert_eq!(d.codes, vec![2, 0, 2, 1, 0, 0]);
        assert_eq!(d.rank("fig"), Ok(1));
        assert_eq!(d.rank("grape"), Err(2));
        assert_eq!(d.rank("aaa"), Err(0));
        for (i, s) in ["pear", "apple", "pear", "fig", "apple", "apple"].iter().enumerate() {
            assert_eq!(c.columns[0].value(i), Value::str(*s));
        }
    }

    #[test]
    fn zone_maps_summarize_blocks() {
        let mut t = Table::builder("t").column("x", DataType::Int).build();
        for i in 0..(BLOCK_ROWS as i64 + 10) {
            t.push_row(vec![Value::Int(i)]).unwrap();
        }
        let c = t.seal();
        let zones = &c.columns[0].zones;
        assert_eq!(zones.len(), 2);
        assert_eq!(zones[0].min_max, Some((Value::Int(0), Value::Int(BLOCK_ROWS as i64 - 1))));
        assert_eq!(
            zones[1].min_max,
            Some((Value::Int(BLOCK_ROWS as i64), Value::Int(BLOCK_ROWS as i64 + 9)))
        );
        assert_eq!(zones[0].null_count, 0);
    }

    #[test]
    fn all_null_block_has_no_min_max() {
        let mut t = Table::builder("t").column("x", DataType::Int).build();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let c = t.seal();
        assert_eq!(c.columns[0].zones.len(), 1);
        assert!(c.columns[0].zones[0].min_max.is_none());
        assert_eq!(c.columns[0].zones[0].null_count, 2);
    }

    #[test]
    fn cached_stats_match_legacy_compute() {
        let c = sample().seal();
        let rows = sample_rows();
        for (i, f) in c.schema.fields.iter().enumerate() {
            let fast = c.column_stats(i).clone();
            let slow = ColumnStats::compute(f, rows.iter().map(|r| &r[i]));
            assert_eq!(fast, slow, "column {}", f.name);
        }
    }

    #[test]
    fn bitmask_fill_and_copy_ranges() {
        let mut m = BitMask::new(200, true);
        assert_eq!(m.count_ones(), 200);
        m.fill_range(10..130, false);
        assert_eq!(m.count_ones(), 200 - 120);
        assert!(m.get(9) && !m.get(10) && !m.get(129) && m.get(130));

        let ones: Vec<usize> = m.iter_ones().collect();
        assert_eq!(ones.len(), 80);
        assert_eq!(ones[0], 0);
        assert_eq!(ones[10], 130);

        let full = BitMask::new(200, true);
        m.copy_range_from(&full, 64..70);
        assert!(m.get(64) && m.get(69) && !m.get(63) && !m.get(70));
    }

    #[test]
    fn bitmask_retain_in_visits_only_set_bits() {
        let mut m = BitMask::new(300, true);
        m.fill_range(100..200, false);
        let mut visited = Vec::new();
        let any = m.retain_in(50..250, |i| {
            visited.push(i);
            Ok::<_, ()>(i % 2 == 0)
        });
        assert_eq!(any, Ok(true));
        let expected: Vec<usize> = (50..100).chain(200..250).collect();
        assert_eq!(visited, expected, "only set bits inside the range are visited");
        assert_eq!(m.count_ones(), 50 + 25 + 25 + 50);
        assert!(m.get(49) && m.get(50) && !m.get(51) && !m.get(249) && m.get(250));

        assert_eq!(m.retain_in(50..100, |_| Ok::<_, ()>(false)), Ok(false));
        assert_eq!(m.retain_in(0..0, |_| Ok::<_, ()>(false)), Ok(false));
        // The first error stops the walk; earlier rows keep their update.
        assert_eq!(m.retain_in(0..50, |i| if i < 10 { Ok(false) } else { Err(i) }), Err(10));
        assert!(!m.get(9) && m.get(10));
    }

    #[test]
    fn bitmask_tail_bits_stay_zero() {
        let mut m = BitMask::new(65, true);
        assert_eq!(m.count_ones(), 65);
        m.fill_range(0..65, true);
        assert_eq!(m.count_ones(), 65);
        assert_eq!(m.iter_ones().count(), 65);
    }
}
