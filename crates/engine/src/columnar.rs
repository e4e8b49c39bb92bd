//! Typed columns: the engine's only copy of a table, and the form every
//! query result takes from the executor to the wire.
//!
//! [`Table::push_row`] appends each validated value straight into a typed
//! [`ColumnBuilder`] (`i64` / `f64` / `bool` / `i32` vectors with a null bit
//! per row; strings interned into an insertion-order dictionary), and
//! [`Table::seal`] — called by [`crate::Catalog::register`] — turns the
//! builders into a [`ColumnarTable`]. No row-major copy is ever built. The
//! columnar executor (`exec_columnar`) scans the typed vectors
//! directly, and the reference interpreter reads the same storage a row at
//! a time through the [`ColumnarTable::rows`] cursor.
//!
//! A result column is the same [`Column`] type: the executor gathers the
//! selected rows of a table column into a column of the same form (a
//! gathered string column shares the table's dictionary), and the result
//! cache, the retained scene and the encoder all hold it behind one `Arc`.
//! A result column is kept in a canonical form: whenever its non-null
//! cells share one variant it is typed, and only a column whose cells mix
//! variants (an expression yielding `INT` on one row and `FLOAT` on
//! another) holds [`ColumnData::Values`].
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
//! * **Zone maps** — every table column is summarized in
//!   [`BLOCK_ROWS`]-row blocks carrying min/max and a null count
//!   ([`ZoneMap`]), kept beside the column in [`ColumnarTable::zones`],
//!   letting the executor skip whole blocks whose value range cannot
//!   intersect a predicate.
//!
//! Per-column [`ColumnStats`] are computed lazily from the typed storage
//! (sorting primitives, or marking the dictionary codes in use).
//!
//! [`Table::push_row`]: crate::Table::push_row
//! [`Table::seal`]: crate::Table::seal

use crate::schema::{Field, Schema};
use crate::stats::{ColumnStats, DISTINCT_SAMPLE_CAP};
use crate::value::{DataType, Value};
use pi2_sql::Date;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::discriminant;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// Make room for `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let words = (self.len + additional).div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    /// Append `n` copies of `bit`.
    pub fn extend(&mut self, n: usize, bit: bool) {
        let start = self.len;
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
        if bit {
            self.fill_range(start..self.len, true);
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
/// the enclosing column's [`Column::nulls`] mask. The dictionary is shared: a result
/// column gathered from a table column holds the table's dictionary (so it
/// may list strings no row of the result uses).
#[derive(Debug, Clone)]
pub struct DictColumn {
    /// Per-row dictionary codes.
    pub codes: Vec<u32>,
    /// Distinct non-null strings, sorted ascending.
    pub dict: Arc<[String]>,
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

/// The cells of one [`Column`]. Null slots of a typed variant hold a
/// placeholder (0 / code 0 / epoch) and are tracked by the enclosing
/// column's [`Column::nulls`] mask. A NULL-declared table column, which can only
/// hold NULLs, is stored as an all-null `Bool` column, and so is a result
/// column of NULLs only.
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
    /// One [`Value`] per row, NULLs included: only a result column whose
    /// non-null cells mix variants takes this form.
    Values(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(d) => d.codes.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Values(v) => v.len(),
        }
    }
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

/// One typed column — of a [`ColumnarTable`] or of a query result: its
/// cells and an optional bit-packed null mask (absent when the column
/// contains no NULLs, the common case).
///
/// Equality is value equality, as [`Value`]'s: an `INT` column equals a
/// `FLOAT` column of the same numbers. [`Column::same_cell`] and
/// [`Column::identical`] compare cells exactly (variant and bits), as the
/// wire spells them.
///
/// Its fields are private: every column outside this crate comes from a
/// [`ColumnBuilder`], which keeps the mask as long as the cells and the
/// cells in canonical form.
#[derive(Debug, Clone)]
pub struct Column {
    /// The cells.
    pub(crate) data: ColumnData,
    /// Set bit = row is NULL; `None` means no NULLs.
    pub(crate) nulls: Option<BitMask>,
}

/// A column of the values, in canonical form.
impl FromIterator<Value> for Column {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Column {
        let mut builder = ColumnBuilder::default();
        values.into_iter().for_each(|v| builder.push(v));
        builder.finish()
    }
}

impl Column {
    /// The cells.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null mask (set bit = row is NULL); `None` when no row is NULL.
    #[inline]
    pub fn nulls(&self) -> Option<&BitMask> {
        self.nulls.as_ref()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            ColumnData::Values(v) => v[i].clone(),
        }
    }

    /// Every row, each materialized as a [`Value`].
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value(i))
    }

    /// The type of the first non-null cell, or `None` when every cell is
    /// NULL.
    pub fn non_null_type(&self) -> Option<DataType> {
        let typed = match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Values(v) => return v.iter().find(|v| !v.is_null()).map(Value::data_type),
        };
        let nulls = self.nulls.as_ref().map_or(0, BitMask::count_ones);
        (nulls < self.len()).then_some(typed)
    }

    /// The rows `rows` of this column, in that order, as a column of the
    /// same form (a string column keeps sharing this column's dictionary).
    pub fn gather(&self, rows: &[usize]) -> Column {
        let mut builder = ColumnBuilder::like(self, rows.len());
        builder.extend_rows(self, rows);
        builder.finish()
    }

    /// True when row `i` of this column and row `j` of `other` are the same
    /// cell: both NULL, or the same variant with the same bits — so `INT 1`
    /// and `FLOAT 1.0` (equal as SQL values) differ, and so do `0.0` and
    /// `-0.0`.
    #[inline]
    pub fn same_cell(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].to_bits() == b[j].to_bits(),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i] == b[j],
            (ColumnData::Str(a), ColumnData::Str(b)) if Arc::ptr_eq(&a.dict, &b.dict) => {
                a.codes[i] == b.codes[j]
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => a.get(i) == b.get(j),
            _ => {
                // `Value`'s equality orders floats by `total_cmp`, so with
                // equal variants it equates two cells only bit for bit.
                let (a, b) = (self.value(i), other.value(j));
                discriminant(&a) == discriminant(&b) && a == b
            }
        }
    }

    /// True when both columns hold the same cells row for row (see
    /// [`Column::same_cell`]).
    pub fn identical(&self, other: &Column) -> bool {
        fn all_rows<T>(
            a: &[T],
            b: &[T],
            nulls: Option<&BitMask>,
            same: impl Fn(&T, &T) -> bool,
        ) -> bool {
            match nulls {
                None => a.iter().zip(b).all(|(x, y)| same(x, y)),
                Some(n) => a.iter().zip(b).enumerate().all(|(i, (x, y))| n.get(i) || same(x, y)),
            }
        }
        if self.len() != other.len() || !self.same_nulls(other) {
            return false;
        }
        let nulls = self.nulls.as_ref();
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => all_rows(a, b, nulls, i64::eq),
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                all_rows(a, b, nulls, |x, y| x.to_bits() == y.to_bits())
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => all_rows(a, b, nulls, bool::eq),
            (ColumnData::Date(a), ColumnData::Date(b)) => all_rows(a, b, nulls, i32::eq),
            (ColumnData::Str(a), ColumnData::Str(b)) if Arc::ptr_eq(&a.dict, &b.dict) => {
                all_rows(&a.codes, &b.codes, nulls, u32::eq)
            }
            _ => (0..self.len()).all(|i| self.same_cell(i, other, i)),
        }
    }

    /// True when both columns (of equal length) have NULLs at the same
    /// rows.
    fn same_nulls(&self, other: &Column) -> bool {
        match (&self.nulls, &other.nulls) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b,
            (Some(m), None) | (None, Some(m)) => m.count_ones() == 0,
        }
    }
}

/// Value equality, as [`Value`]'s (see [`Column`]).
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        let (a, b) = (&self.data, &other.data);
        let mixed = matches!(a, ColumnData::Values(_)) || matches!(b, ColumnData::Values(_));
        if !mixed && discriminant(a) == discriminant(b) {
            // One variant on both sides: value equality is cell identity.
            return self.identical(other);
        }
        self.len() == other.len() && (0..self.len()).all(|i| self.value(i) == other.value(i))
    }
}

/// The cells a [`ColumnBuilder`] has taken so far.
#[derive(Debug, Clone, Default)]
enum Cells {
    /// NULLs only, and no form chosen yet.
    #[default]
    Empty,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
    /// Codes into another column's dictionary (a gather's target).
    Shared(DictColumn),
    /// Codes into an insertion-order dictionary, sorted by
    /// [`ColumnBuilder::finish`].
    Interned {
        codes: Vec<u32>,
        index: HashMap<String, u32>,
    },
    Values(Vec<Value>),
}

impl Cells {
    /// Empty cells of the typed form for `t` (strings are interned).
    fn typed(t: DataType) -> Cells {
        match t {
            DataType::Int => Cells::Int(Vec::new()),
            DataType::Float => Cells::Float(Vec::new()),
            DataType::Bool | DataType::Null => Cells::Bool(Vec::new()),
            DataType::Str => Cells::Interned { codes: Vec::new(), index: HashMap::new() },
            DataType::Date => Cells::Date(Vec::new()),
        }
    }

    /// Empty cells of `column`'s form, with room for `capacity` rows.
    fn like(column: &Column, capacity: usize) -> Cells {
        match &column.data {
            ColumnData::Int(_) => Cells::Int(Vec::with_capacity(capacity)),
            ColumnData::Float(_) => Cells::Float(Vec::with_capacity(capacity)),
            ColumnData::Bool(_) => Cells::Bool(Vec::with_capacity(capacity)),
            ColumnData::Date(_) => Cells::Date(Vec::with_capacity(capacity)),
            ColumnData::Str(d) => Cells::Shared(DictColumn {
                codes: Vec::with_capacity(capacity),
                dict: Arc::clone(&d.dict),
            }),
            ColumnData::Values(_) => Cells::Empty,
        }
    }

    /// Whether rows of `column` copy into these cells as they are.
    fn takes(&self, column: &Column) -> bool {
        match (self, &column.data) {
            (Cells::Int(_), ColumnData::Int(_))
            | (Cells::Float(_), ColumnData::Float(_))
            | (Cells::Bool(_), ColumnData::Bool(_))
            | (Cells::Date(_), ColumnData::Date(_)) => true,
            (Cells::Shared(d), ColumnData::Str(s)) => Arc::ptr_eq(&d.dict, &s.dict),
            _ => false,
        }
    }

    /// Whether a non-null `value` appends to these cells as it is.
    fn fits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (Cells::Int(_), Value::Int(_))
                | (Cells::Float(_), Value::Float(_))
                | (Cells::Bool(_), Value::Bool(_))
                | (Cells::Date(_), Value::Date(_))
                | (Cells::Interned { .. }, Value::Str(_))
                | (Cells::Values(_), _)
        )
    }

    /// Append `value`, which is NULL or [`Self::fits`].
    fn push(&mut self, value: Value) {
        match (self, value) {
            (Cells::Int(v), Value::Int(x)) => v.push(x),
            (Cells::Float(v), Value::Float(x)) => v.push(x),
            (Cells::Bool(v), Value::Bool(x)) => v.push(x),
            (Cells::Date(v), Value::Date(x)) => v.push(x.0),
            (Cells::Interned { codes, index }, Value::Str(s)) => {
                let next = index.len() as u32;
                codes.push(*index.entry(s).or_insert(next));
            }
            (Cells::Values(v), value) => v.push(value),
            (cells, value) => {
                debug_assert!(value.is_null(), "{value:?} does not fit {cells:?}");
                cells.pad(1);
            }
        }
    }

    /// Append `n` NULL placeholders.
    fn pad(&mut self, n: usize) {
        match self {
            Cells::Empty => {}
            Cells::Int(v) => v.resize(v.len() + n, 0),
            Cells::Float(v) => v.resize(v.len() + n, 0.0),
            Cells::Bool(v) => v.resize(v.len() + n, false),
            Cells::Date(v) => v.resize(v.len() + n, 0),
            Cells::Shared(DictColumn { codes, .. }) | Cells::Interned { codes, .. } => {
                codes.resize(codes.len() + n, 0)
            }
            Cells::Values(v) => v.resize(v.len() + n, Value::Null),
        }
    }

    /// The first `rows` cells as [`Value`]s (`nulls` marks the NULL rows).
    fn into_values(self, nulls: &BitMask, rows: usize) -> Vec<Value> {
        let mut interned = Vec::new();
        if let Cells::Interned { index, .. } = &self {
            interned = vec![""; index.len()];
            for (s, &code) in index {
                interned[code as usize] = s;
            }
        }
        let cell = |i: usize| match &self {
            Cells::Int(v) => Value::Int(v[i]),
            Cells::Float(v) => Value::Float(v[i]),
            Cells::Bool(v) => Value::Bool(v[i]),
            Cells::Date(v) => Value::Date(Date(v[i])),
            Cells::Shared(d) => Value::Str(d.get(i).to_string()),
            Cells::Interned { codes, .. } => Value::Str(interned[codes[i] as usize].to_string()),
            Cells::Values(v) => v[i].clone(),
            Cells::Empty => Value::Null,
        };
        (0..rows).map(|i| if nulls.get(i) { Value::Null } else { cell(i) }).collect()
    }
}

/// Append-only builder of one [`Column`]: a table column's as
/// [`crate::Table::push_row`] fills it, a result column's as the executor
/// projects rows or gathers them, and a chart column's as a scene patch
/// splices it. Strings pushed by value are interned into an
/// insertion-order dictionary, which [`Self::finish`] sorts.
///
/// A builder keeps its cells in canonical form: it takes the variant of
/// the first non-null cell (or of the first column it copies from), and
/// falls back to [`ColumnData::Values`] only when a cell of a second
/// variant arrives.
#[derive(Debug, Clone, Default)]
pub struct ColumnBuilder {
    cells: Cells,
    nulls: BitMask,
}

impl ColumnBuilder {
    /// An empty builder for a table column declared as `declared`.
    pub(crate) fn declared(declared: DataType) -> ColumnBuilder {
        ColumnBuilder { cells: Cells::typed(declared), nulls: BitMask::default() }
    }

    /// An empty builder of `column`'s form with room for `capacity` rows:
    /// the target of gathers from `column`.
    pub fn like(column: &Column, capacity: usize) -> ColumnBuilder {
        ColumnBuilder { cells: Cells::like(column, capacity), nulls: BitMask::default() }
    }

    /// Append one cell.
    pub fn push(&mut self, value: Value) {
        self.nulls.push(value.is_null());
        if !value.is_null() && !self.cells.fits(&value) {
            self.conform(&value);
        }
        self.cells.push(value);
    }

    /// Change the form of the cells so that `sample` (non-null, just
    /// counted in `nulls`) appends as it is: cells of NULLs only take its
    /// variant, shared dictionary codes become interned ones, and a second
    /// variant turns every cell into a [`Value`].
    fn conform(&mut self, sample: &Value) {
        let rows = self.nulls.len() - 1;
        let only_nulls = self.nulls.count_ones() == rows;
        self.cells = match std::mem::take(&mut self.cells) {
            _ if only_nulls => {
                let mut cells = Cells::typed(sample.data_type());
                cells.pad(rows);
                cells
            }
            Cells::Shared(d) if matches!(sample, Value::Str(_)) => {
                let mut index = HashMap::new();
                let mut remap: HashMap<u32, u32> = HashMap::new();
                let mut code = |c: u32| {
                    *remap.entry(c).or_insert_with(|| {
                        let next = index.len() as u32;
                        index.insert(d.dict[c as usize].clone(), next);
                        next
                    })
                };
                let codes = (0..rows)
                    .map(|i| if self.nulls.get(i) { 0 } else { code(d.codes[i]) })
                    .collect();
                Cells::Interned { codes, index }
            }
            cells => Cells::Values(cells.into_values(&self.nulls, rows)),
        };
    }

    /// Append the rows `rows` of `column`.
    pub fn extend_range(&mut self, column: &Column, rows: Range<usize>) {
        self.extend(column, rows);
    }

    /// Append the rows `rows` of `column`, in that order.
    pub fn extend_rows(&mut self, column: &Column, rows: &[usize]) {
        self.extend(column, rows.iter().copied());
    }

    /// Copy typed cells when `column` has this builder's form (or the
    /// builder holds NULLs only and can take it); otherwise append cell by
    /// cell, which keeps the canonical form.
    fn extend<I>(&mut self, column: &Column, rows: I)
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        if !self.cells.takes(column) {
            let only_nulls = self.nulls.count_ones() == self.nulls.len();
            if !only_nulls || matches!(column.data, ColumnData::Values(_)) {
                rows.for_each(|r| self.push(column.value(r)));
                return;
            }
            self.cells = Cells::like(column, self.nulls.len() + rows.len());
            self.cells.pad(self.nulls.len());
        }
        match &column.nulls {
            None => self.nulls.extend(rows.len(), false),
            Some(n) => {
                self.nulls.reserve(rows.len());
                rows.clone().for_each(|r| self.nulls.push(n.get(r)));
            }
        }
        match (&mut self.cells, &column.data) {
            (Cells::Int(v), ColumnData::Int(s)) => v.extend(rows.map(|r| s[r])),
            (Cells::Float(v), ColumnData::Float(s)) => v.extend(rows.map(|r| s[r])),
            (Cells::Bool(v), ColumnData::Bool(s)) => v.extend(rows.map(|r| s[r])),
            (Cells::Date(v), ColumnData::Date(s)) => v.extend(rows.map(|r| s[r])),
            (Cells::Shared(d), ColumnData::Str(s)) => d.codes.extend(rows.map(|r| s.codes[r])),
            (cells, data) => unreachable!("{cells:?} cannot take {data:?}"),
        }
    }

    /// The finished column: an interned dictionary sorted (codes remapped
    /// so code order is string order), a null mask with no bit set
    /// dropped, and cells of NULLs only stored as an all-null `Bool`
    /// column.
    pub fn finish(self) -> Column {
        let ColumnBuilder { cells, nulls } = self;
        let data = match cells {
            Cells::Empty => ColumnData::Bool(vec![false; nulls.len()]),
            Cells::Int(v) => ColumnData::Int(v),
            Cells::Float(v) => ColumnData::Float(v),
            Cells::Bool(v) => ColumnData::Bool(v),
            Cells::Date(v) => ColumnData::Date(v),
            Cells::Shared(d) => ColumnData::Str(d),
            Cells::Interned { mut codes, index } => {
                let mut entries: Vec<(String, u32)> = index.into_iter().collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let mut remap = vec![0u32; entries.len()];
                for (code, (_, first_seen)) in entries.iter().enumerate() {
                    remap[*first_seen as usize] = code as u32;
                }
                // Null rows' placeholder code 0 stays in range (or the
                // column is all NULL and the dictionary empty).
                for c in &mut codes {
                    *c = remap.get(*c as usize).copied().unwrap_or(0);
                }
                let dict = entries.into_iter().map(|(s, _)| s).collect();
                ColumnData::Str(DictColumn { codes, dict })
            }
            Cells::Values(v) => ColumnData::Values(v),
        };
        let nulls = (nulls.count_ones() > 0).then_some(nulls);
        Column { data, nulls }
    }

    /// Seal a table column: the finished column and its zone maps.
    pub(crate) fn seal(self) -> (Column, Vec<ZoneMap>) {
        let column = self.finish();
        let zones = build_zones(&column.data, column.nulls.as_ref(), column.len());
        (column, zones)
    }
}

/// Compute per-block zone maps for typed storage. The min/max are stored
/// as [`Value`]s because `Value`'s total order agrees with every typed
/// comparison loop in the executor (ints exactly, floats via `total_cmp`,
/// strings via the sorted dictionary). A [`ColumnData::Values`] column
/// gets none, so every block of it is scanned.
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
        ColumnData::Values(_) => Vec::new(),
    }
}

/// A sealed base table: its schema, typed columns with their zone maps,
/// lazily computed statistics, and a row cursor ([`Self::rows`]) for
/// row-at-a-time readers.
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
    /// Each column's per-block zone maps, in schema order.
    pub zones: Vec<Vec<ZoneMap>>,
    /// Per-column statistics, computed from typed storage on first use.
    stats: Vec<OnceLock<ColumnStats>>,
    /// Wall-clock time spent sealing the column builders, in nanoseconds.
    build_nanos: u64,
}

impl ColumnarTable {
    /// Assemble a sealed table from its sealed columns; `build_nanos` is
    /// the time the seal took.
    pub(crate) fn new(
        name: String,
        schema: Schema,
        len: usize,
        sealed: Vec<(Column, Vec<ZoneMap>)>,
        build_nanos: u64,
    ) -> ColumnarTable {
        let stats = sealed.iter().map(|_| OnceLock::new()).collect();
        let (columns, zones) = sealed.into_iter().unzip();
        ColumnarTable { name, schema, len, columns, zones, stats, build_nanos }
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
        self.stats[idx].get_or_init(|| compute_stats(&self.schema.fields[idx], &self.columns[idx]))
    }

    /// Position of `name` in the schema (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }
}

/// Compute [`ColumnStats`] from a typed column: sort-and-dedup for
/// primitives (exactly the order `Value`'s `Ord` gives them), the
/// dictionary codes in use for strings, and [`ColumnStats::compute`] over
/// the cells of a [`ColumnData::Values`] column.
pub(crate) fn compute_stats(field: &Field, col: &Column) -> ColumnStats {
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

    let len = col.len();
    let null_count = col.nulls.as_ref().map_or(0, BitMask::count_ones);
    let nulls = col.nulls.as_ref();
    let (distinct_count, min, max, distinct_values) = match &col.data {
        ColumnData::Int(v) => sorted_stats(v, nulls, |a, b| a.cmp(b), Value::Int),
        ColumnData::Float(v) => sorted_stats(v, nulls, |a, b| a.total_cmp(b), Value::Float),
        ColumnData::Bool(v) => sorted_stats(v, nulls, |a, b| a.cmp(b), Value::Bool),
        ColumnData::Date(v) => sorted_stats(v, nulls, |a, b| a.cmp(b), |d| Value::Date(Date(d))),
        ColumnData::Str(d) => {
            // The dictionary is sorted; a shared one may list strings no
            // row uses, so mark the codes the non-null rows hold.
            let mut used = vec![false; d.dict.len()];
            for (i, &c) in d.codes.iter().enumerate() {
                if !nulls.is_some_and(|n| n.get(i)) {
                    used[c as usize] = true;
                }
            }
            let distinct: Vec<&String> =
                d.dict.iter().zip(&used).filter_map(|(s, &u)| u.then_some(s)).collect();
            let value = |s: &&String| Value::Str((*s).clone());
            let distinct_count = distinct.len();
            let min = distinct.first().map(value);
            let max = distinct.last().map(value);
            let distinct_values = (distinct_count <= DISTINCT_SAMPLE_CAP)
                .then(|| distinct.iter().map(value).collect());
            (distinct_count, min, max, distinct_values)
        }
        ColumnData::Values(v) => return ColumnStats::compute(field, v.iter()),
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
        assert_eq!(*d.dict, ["apple", "fig", "pear"]);
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
        let zones = &c.zones[0];
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
        assert_eq!(c.zones[0].len(), 1);
        assert!(c.zones[0][0].min_max.is_none());
        assert_eq!(c.zones[0][0].null_count, 2);
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
