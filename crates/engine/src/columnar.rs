//! Columnar mirrors of base tables.
//!
//! The row-oriented [`Table`] stays the source of truth; a [`ColumnarTable`]
//! is a typed, column-major copy built once when the table is registered in
//! the catalog. The columnar executor (see [`crate::exec_columnar`]) scans
//! these vectors directly instead of cloning `Vec<Vec<Value>>` row storage
//! per query, and its compiled predicates read typed slices instead of
//! matching on `Value` per row.
//!
//! Storage layout (the 10M-row upgrades):
//!
//! * **Dictionary-encoded strings** — a string column stores `u32` codes
//!   into a lexicographically sorted dictionary, so code order equals
//!   string order and predicates compare integers instead of strings.
//! * **Bit-packed null masks** — nulls cost one bit per row ([`BitMask`]),
//!   and the same structure backs the executor's selection masks so a
//!   pruned block is 64 rows per word write, not 64 bool writes.
//! * **Zone maps** — every column is summarized in [`BLOCK_ROWS`]-row
//!   blocks carrying min/max and a null count ([`ZoneMap`]), letting the
//!   executor skip whole blocks whose value range cannot intersect a
//!   predicate.
//!
//! Columns are built in parallel across a `std::thread::scope`, and
//! per-column [`ColumnStats`] are computed lazily from the typed storage
//! (sorting primitives, or just reading the dictionary) instead of
//! re-walking `Value` rows through a `BTreeSet`.

use crate::schema::Field;
use crate::stats::{ColumnStats, DISTINCT_SAMPLE_CAP};
use crate::table::Table;
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

    /// Build from per-row flags.
    pub fn from_bools(flags: &[bool]) -> BitMask {
        let mut m = BitMask::new(flags.len(), false);
        for (i, &b) in flags.iter().enumerate() {
            if b {
                m.set(i);
            }
        }
        m
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

    /// Clear every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
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

    /// Number of set bits within `range`.
    pub fn count_ones_in(&self, range: Range<usize>) -> usize {
        // Rare path (debug asserts, zone construction); bit-at-a-time is fine.
        range.filter(|&i| self.get(i)).count()
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
/// constant's rank. Null rows hold code 0 and are tracked by the enclosing
/// [`Column::nulls`] mask.
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

/// Typed storage for one column. Null slots hold a placeholder (0 / code 0
/// / epoch) and are tracked by the enclosing [`Column::nulls`] mask.
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
    /// Catch-all for columns whose values defy a single type (possible when
    /// a `Table` is constructed literally, bypassing `push_row` validation).
    Mixed(Vec<Value>),
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
/// and per-block zone maps (empty for `Mixed` columns, which never take
/// the typed predicate loops).
#[derive(Debug, Clone)]
pub struct Column {
    /// The values.
    pub data: ColumnData,
    /// Set bit = row is NULL; `None` means no NULLs.
    pub nulls: Option<BitMask>,
    /// Per-block zone maps; empty for `Mixed` columns.
    pub zones: Vec<ZoneMap>,
}

impl Column {
    /// Build a column from row-major values, choosing typed storage when
    /// every non-null value matches `declared`, and `Mixed` otherwise.
    pub fn from_values<'a>(declared: DataType, values: impl Iterator<Item = &'a Value>) -> Column {
        let values: Vec<&Value> = values.collect();
        let uniform = values
            .iter()
            .all(|v| v.is_null() || v.data_type() == declared || declared == DataType::Null);
        if !uniform || declared == DataType::Null {
            let mixed: Vec<Value> = values.into_iter().cloned().collect();
            let nulls = null_mask(mixed.iter().map(Value::is_null));
            return Column { data: ColumnData::Mixed(mixed), nulls, zones: Vec::new() };
        }
        let nulls = null_mask(values.iter().map(|v| v.is_null()));
        let data = match declared {
            DataType::Int => ColumnData::Int(
                values.iter().map(|v| if let Value::Int(x) = v { *x } else { 0 }).collect(),
            ),
            DataType::Float => ColumnData::Float(
                values.iter().map(|v| if let Value::Float(x) = v { *x } else { 0.0 }).collect(),
            ),
            DataType::Bool => {
                ColumnData::Bool(values.iter().map(|v| matches!(v, Value::Bool(true))).collect())
            }
            DataType::Str => ColumnData::Str(encode_strings(&values)),
            DataType::Date => ColumnData::Date(
                values.iter().map(|v| if let Value::Date(d) = v { d.0 } else { 0 }).collect(),
            ),
            DataType::Null => unreachable!("handled above"),
        };
        let zones = build_zones(&data, nulls.as_ref(), values.len());
        Column { data, nulls, zones }
    }

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
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }
}

/// Dictionary-encode string values: hash the distinct strings, sort them,
/// then map each row to its code. O(N) hashing plus a sort of the (small)
/// distinct set, instead of sorting all N rows.
fn encode_strings(values: &[&Value]) -> DictColumn {
    let mut distinct: HashMap<&str, u32> = HashMap::new();
    for v in values {
        if let Value::Str(s) = v {
            distinct.entry(s.as_str()).or_insert(0);
        }
    }
    let mut dict_refs: Vec<&str> = distinct.keys().copied().collect();
    dict_refs.sort_unstable();
    for (code, s) in dict_refs.iter().enumerate() {
        if let Some(slot) = distinct.get_mut(s) {
            *slot = code as u32;
        }
    }
    let codes = values
        .iter()
        .map(|v| if let Value::Str(s) = v { distinct[s.as_str()] } else { 0 })
        .collect();
    DictColumn { codes, dict: dict_refs.iter().map(|s| s.to_string()).collect() }
}

/// A null mask, or `None` when nothing is null.
fn null_mask(flags: impl Iterator<Item = bool>) -> Option<BitMask> {
    let mask: Vec<bool> = flags.collect();
    if mask.iter().any(|&b| b) {
        Some(BitMask::from_bools(&mask))
    } else {
        None
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
        // Mixed columns never take the typed loops; no zones.
        ColumnData::Mixed(_) => Vec::new(),
    }
}

/// A column-major copy of one base table.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    /// Number of rows.
    pub len: usize,
    /// Columns, in schema order.
    pub columns: Vec<Column>,
    /// Schema fields, for lazily computed statistics.
    fields: Vec<Field>,
    /// Per-column statistics, computed from typed storage on first use.
    stats: Vec<OnceLock<ColumnStats>>,
    /// Wall-clock time spent transposing + encoding, in nanoseconds.
    build_nanos: u64,
}

impl ColumnarTable {
    /// Transpose a row-oriented table, building columns in parallel (one
    /// chunk of columns per available core).
    pub fn build(table: &Table) -> ColumnarTable {
        let started = std::time::Instant::now();
        let fields = table.schema.fields.clone();
        let n = fields.len();
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(n.max(1));
        let build_one =
            |i: usize| Column::from_values(fields[i].data_type, table.rows.iter().map(|r| &r[i]));
        let columns: Vec<Column> = if workers <= 1 || n <= 1 {
            (0..n).map(build_one).collect()
        } else {
            let chunk = n.div_ceil(workers);
            let mut slots: Vec<Option<Column>> = (0..n).map(|_| None).collect();
            std::thread::scope(|s| {
                for (ci, out) in slots.chunks_mut(chunk).enumerate() {
                    let build_one = &build_one;
                    s.spawn(move || {
                        for (k, slot) in out.iter_mut().enumerate() {
                            *slot = Some(build_one(ci * chunk + k));
                        }
                    });
                }
            });
            slots.into_iter().map(|c| c.expect("every column slot filled")).collect()
        };
        let stats = (0..n).map(|_| OnceLock::new()).collect();
        ColumnarTable {
            len: table.rows.len(),
            columns,
            fields,
            stats,
            build_nanos: started.elapsed().as_nanos() as u64,
        }
    }

    /// Wall-clock nanoseconds spent building this columnar mirror.
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos
    }

    /// Statistics for column `idx`, computed from typed storage on first
    /// use and cached. Matches [`ColumnStats::compute`] value-for-value.
    pub fn column_stats(&self, idx: usize) -> &ColumnStats {
        self.stats[idx]
            .get_or_init(|| compute_stats(&self.fields[idx], &self.columns[idx], self.len))
    }

    /// Position of `name` in the schema (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name.eq_ignore_ascii_case(name))
    }
}

/// Compute [`ColumnStats`] from typed columnar storage: sort-and-dedup for
/// primitives (exactly the order `Value`'s `Ord` gives them), a dictionary
/// read for strings, and the legacy `Value`-walk for `Mixed`.
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
        ColumnData::Mixed(v) => {
            return ColumnStats::compute(field, v.iter());
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

    fn sample() -> Table {
        let mut t = Table::builder("t")
            .column("a", DataType::Int)
            .column("b", DataType::Str)
            .column("c", DataType::Float)
            .build();
        t.push_row(vec![Value::Int(1), Value::str("x"), Value::Float(0.5)]).unwrap();
        t.push_row(vec![Value::Null, Value::str("y"), Value::Null]).unwrap();
        t.push_row(vec![Value::Int(3), Value::Null, Value::Float(2.5)]).unwrap();
        t
    }

    #[test]
    fn transpose_roundtrips_values() {
        let t = sample();
        let c = ColumnarTable::build(&t);
        assert_eq!(c.len, 3);
        for (i, row) in t.rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(&c.columns[j].value(i), v, "row {i} col {j}");
            }
        }
    }

    #[test]
    fn typed_storage_and_null_masks() {
        let c = ColumnarTable::build(&sample());
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
        let c = ColumnarTable::build(&t);
        assert!(c.columns[0].nulls.is_none());
    }

    #[test]
    fn hand_built_mismatched_rows_fall_back_to_mixed() {
        // A literally-constructed table can bypass push_row validation.
        let t = Table {
            name: "t".into(),
            schema: crate::schema::Schema::new(vec![crate::schema::Field::new("a", DataType::Int)]),
            rows: vec![vec![Value::Int(1)], vec![Value::str("oops")]],
        };
        let c = ColumnarTable::build(&t);
        assert!(matches!(c.columns[0].data, ColumnData::Mixed(_)));
        assert_eq!(c.columns[0].value(1), Value::str("oops"));
    }

    #[test]
    fn dictionary_is_sorted_and_roundtrips() {
        let mut t = Table::builder("t").column("s", DataType::Str).build();
        for s in ["pear", "apple", "pear", "fig", "apple", "apple"] {
            t.push_row(vec![Value::str(s)]).unwrap();
        }
        let c = ColumnarTable::build(&t);
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
        let c = ColumnarTable::build(&t);
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
        let c = ColumnarTable::build(&t);
        assert_eq!(c.columns[0].zones.len(), 1);
        assert!(c.columns[0].zones[0].min_max.is_none());
        assert_eq!(c.columns[0].zones[0].null_count, 2);
    }

    #[test]
    fn cached_stats_match_legacy_compute() {
        let t = sample();
        let c = ColumnarTable::build(&t);
        for (i, f) in t.schema.fields.iter().enumerate() {
            let fast = c.column_stats(i).clone();
            let slow = ColumnStats::compute(f, t.rows.iter().map(|r| &r[i]));
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
