//! Cube spaces: the variable structure shared by all cubes of a cover.
//!
//! Following ESPRESSO-MV, a logic function over binary and multiple-valued
//! variables is represented in *positional cube notation*: every variable
//! owns a contiguous field of bits, one bit per value ("part") the variable
//! can take. A binary input variable owns two parts (`01` = literal `v'`,
//! `10` = literal `v`, `11` = don't care). A multiple-valued variable with
//! `n` values owns `n` parts. The output part of a multi-output function is
//! by convention one more multiple-valued variable (the last one), with one
//! part per output.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Describes one variable of a [`CubeSpace`].
///
/// Mostly useful for pretty-printing and for callers that need to know which
/// variable plays which role (binary input, symbolic input, output part).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A binary-valued input variable (2 parts).
    Binary,
    /// A multiple-valued input variable (symbolic; `n` parts).
    Multi,
    /// The output variable (one part per output function).
    Output,
}

/// The variable structure of a cover: how many variables there are, how many
/// parts each one has, and where each field lives inside the cube bitvector.
///
/// A `CubeSpace` is immutable once built and internally reference-counted:
/// cloning is one `Arc` bump, so covers, cofactors and unions share the mask
/// table instead of deep-copying it on every call.
///
/// # Examples
///
/// ```
/// use espresso::space::CubeSpace;
///
/// // Two binary inputs and a 3-part output variable.
/// let space = CubeSpace::binary_with_output(2, 3);
/// assert_eq!(space.num_vars(), 3);
/// assert_eq!(space.parts(0), 2);
/// assert_eq!(space.parts(2), 3);
/// assert_eq!(space.total_bits(), 7);
/// ```
#[derive(Clone)]
pub struct CubeSpace {
    inner: Arc<SpaceData>,
}

struct SpaceData {
    sizes: Vec<u32>,
    kinds: Vec<VarKind>,
    offsets: Vec<u32>,
    total_bits: u32,
    words: usize,
    /// Per-variable full-field mask, each `words` long.
    masks: Vec<Vec<u64>>,
    /// OR of all field masks: the universal-cube bit pattern.
    full: Vec<u64>,
    /// Per-variable `(first, last)` word index of the field, so kernels only
    /// touch the words a field actually spans.
    spans: Vec<(u32, u32)>,
    /// For single-word fields (`spans[v].0 == spans[v].1`): the field mask
    /// within that word. Zero for multi-word fields.
    word_masks: Vec<u64>,
    /// Per word: the top bit of every field lying wholly inside that word.
    field_tops: Vec<u64>,
    /// Per word: the other bits of those fields (field mask minus top bit).
    field_rests: Vec<u64>,
    /// Variables whose field straddles a word boundary.
    straddling: Vec<usize>,
}

impl PartialEq for CubeSpace {
    fn eq(&self, other: &Self) -> bool {
        // Shared spaces (the common case after cloning) compare in O(1).
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.sizes == other.inner.sizes && self.inner.kinds == other.inner.kinds)
    }
}

impl Eq for CubeSpace {}

impl Hash for CubeSpace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.sizes.hash(state);
        self.inner.kinds.hash(state);
    }
}

impl fmt::Debug for CubeSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CubeSpace")
            .field("sizes", &self.inner.sizes)
            .field("kinds", &self.inner.kinds)
            .finish()
    }
}

impl CubeSpace {
    /// Builds a space from explicit part counts and kinds.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` and `kinds` differ in length, if any variable has
    /// fewer than one part, or if more than one variable is an
    /// [`VarKind::Output`].
    pub fn new(sizes: &[u32], kinds: &[VarKind]) -> Self {
        assert_eq!(sizes.len(), kinds.len(), "sizes/kinds length mismatch");
        assert!(
            sizes.iter().all(|&s| s >= 1),
            "every variable needs at least one part"
        );
        assert!(
            kinds.iter().filter(|k| **k == VarKind::Output).count() <= 1,
            "at most one output variable"
        );
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc: u32 = 0;
        for &s in sizes {
            offsets.push(acc);
            acc += s;
        }
        let total_bits = acc;
        let words = (total_bits as usize).div_ceil(64).max(1);
        let mut masks = Vec::with_capacity(sizes.len());
        let mut full = vec![0u64; words];
        let mut spans = Vec::with_capacity(sizes.len());
        let mut word_masks = Vec::with_capacity(sizes.len());
        let mut field_tops = vec![0u64; words];
        let mut field_rests = vec![0u64; words];
        let mut straddling = Vec::new();
        for (v, &s) in sizes.iter().enumerate() {
            let mut m = vec![0u64; words];
            for p in 0..s {
                let bit = (offsets[v] + p) as usize;
                m[bit / 64] |= 1u64 << (bit % 64);
            }
            for (f, w) in full.iter_mut().zip(&m) {
                *f |= w;
            }
            let lo = offsets[v] as usize / 64;
            let hi = (offsets[v] + s - 1) as usize / 64;
            spans.push((lo as u32, hi as u32));
            if lo == hi {
                let top = 1u64 << ((offsets[v] + s - 1) % 64);
                field_tops[lo] |= top;
                field_rests[lo] |= m[lo] & !top;
                word_masks.push(m[lo]);
            } else {
                straddling.push(v);
                word_masks.push(0);
            }
            masks.push(m);
        }
        CubeSpace {
            inner: Arc::new(SpaceData {
                sizes: sizes.to_vec(),
                kinds: kinds.to_vec(),
                offsets,
                total_bits,
                words,
                masks,
                full,
                spans,
                word_masks,
                field_tops,
                field_rests,
                straddling,
            }),
        }
    }

    /// Space of `inputs` binary variables followed by an `outputs`-part
    /// output variable — the classic single-output-variable PLA layout.
    pub fn binary_with_output(inputs: usize, outputs: usize) -> Self {
        let mut sizes = vec![2u32; inputs];
        let mut kinds = vec![VarKind::Binary; inputs];
        sizes.push(outputs as u32);
        kinds.push(VarKind::Output);
        CubeSpace::new(&sizes, &kinds)
    }

    /// Space of only binary variables (no output variable); used by covers
    /// that represent a single-output characteristic function.
    pub fn binary(inputs: usize) -> Self {
        CubeSpace::new(&vec![2u32; inputs], &vec![VarKind::Binary; inputs])
    }

    /// Number of variables (including the output variable, if any).
    pub fn num_vars(&self) -> usize {
        self.inner.sizes.len()
    }

    /// Number of parts of variable `v`.
    pub fn parts(&self, v: usize) -> u32 {
        self.inner.sizes[v]
    }

    /// Kind of variable `v`.
    pub fn kind(&self, v: usize) -> VarKind {
        self.inner.kinds[v]
    }

    /// Index of the output variable, if this space has one.
    pub fn output_var(&self) -> Option<usize> {
        self.inner.kinds.iter().position(|k| *k == VarKind::Output)
    }

    /// Bit index of part `p` of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for variable `v`.
    pub fn bit(&self, v: usize, p: u32) -> u32 {
        assert!(
            p < self.inner.sizes[v],
            "part {p} out of range for variable {v}"
        );
        self.inner.offsets[v] + p
    }

    /// First bit of variable `v`'s field.
    pub fn offset(&self, v: usize) -> u32 {
        self.inner.offsets[v]
    }

    /// Total number of part bits across all variables.
    pub fn total_bits(&self) -> u32 {
        self.inner.total_bits
    }

    /// Number of `u64` words a cube of this space occupies.
    pub fn words(&self) -> usize {
        self.inner.words
    }

    /// The full-field mask of variable `v` (a `words()`-long slice).
    pub fn mask(&self, v: usize) -> &[u64] {
        &self.inner.masks[v]
    }

    /// The universal-cube bit pattern (OR of every field mask), cached so
    /// cofactoring does not rebuild it per call.
    pub fn full_words(&self) -> &[u64] {
        &self.inner.full
    }

    /// The `(first, last)` word index of variable `v`'s field: kernels that
    /// read or write a single field only touch words in this range.
    #[inline]
    pub fn var_span(&self, v: usize) -> (usize, usize) {
        let (lo, hi) = self.inner.spans[v];
        (lo as usize, hi as usize)
    }

    /// For a field contained in a single word: `(word index, mask within
    /// that word)`. `None` when the field straddles a word boundary.
    #[inline]
    pub fn single_word_field(&self, v: usize) -> Option<(usize, u64)> {
        let (lo, hi) = self.inner.spans[v];
        if lo == hi {
            Some((lo as usize, self.inner.word_masks[v]))
        } else {
            None
        }
    }

    /// Whether rows `a` and `b` intersect: every variable keeps at least one
    /// part in `a & b` (cube distance 0).
    ///
    /// Word-parallel: within a word, adding each field's non-top bits of
    /// `x = a & b` to themselves carries into the field's top bit iff some
    /// non-top bit is set, and never out of the field. So every field of
    /// the word is non-empty iff `((x & rest) + rest) | x` covers every top
    /// bit. Fields that straddle a word boundary are checked one by one.
    #[inline]
    pub fn rows_intersect(&self, a: &[u64], b: &[u64]) -> bool {
        let d = &*self.inner;
        for k in 0..d.words {
            let x = a[k] & b[k];
            let (tops, rest) = (d.field_tops[k], d.field_rests[k]);
            if (((x & rest) + rest) | x) & tops != tops {
                return false;
            }
        }
        d.straddling.iter().all(|&v| {
            let (lo, hi) = d.spans[v];
            let mask = &d.masks[v];
            (lo as usize..=hi as usize).any(|k| a[k] & b[k] & mask[k] != 0)
        })
    }

    /// Iterator over variable indices.
    pub fn vars(&self) -> std::ops::Range<usize> {
        0..self.inner.sizes.len()
    }

    /// Total number of minterms of the space (product of part counts),
    /// saturating at `u64::MAX`.
    pub fn num_minterms(&self) -> u64 {
        self.inner
            .sizes
            .iter()
            .fold(1u64, |acc, &s| acc.saturating_mul(s as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_binary_with_output() {
        let s = CubeSpace::binary_with_output(3, 4);
        assert_eq!(s.num_vars(), 4);
        assert_eq!(s.total_bits(), 10);
        assert_eq!(s.words(), 1);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 2);
        assert_eq!(s.offset(3), 6);
        assert_eq!(s.output_var(), Some(3));
        assert_eq!(s.bit(3, 3), 9);
    }

    #[test]
    fn masks_cover_fields_exactly() {
        let s = CubeSpace::new(
            &[2, 5, 3],
            &[VarKind::Binary, VarKind::Multi, VarKind::Output],
        );
        let m1 = s.mask(1);
        assert_eq!(m1[0], 0b111_1100); // bits 2..=6
        let mut all = vec![0u64; s.words()];
        for v in s.vars() {
            for (w, b) in all.iter_mut().zip(s.mask(v)) {
                assert_eq!(*w & b, 0, "fields must not overlap");
                *w |= b;
            }
        }
        assert_eq!(all[0].count_ones(), s.total_bits());
    }

    #[test]
    fn multiword_spaces() {
        let s = CubeSpace::new(
            &[2, 100, 30],
            &[VarKind::Binary, VarKind::Multi, VarKind::Output],
        );
        assert_eq!(s.total_bits(), 132);
        assert_eq!(s.words(), 3);
        assert_eq!(s.bit(2, 29), 131);
    }

    #[test]
    fn clones_share_storage_and_compare_equal() {
        let s = CubeSpace::binary_with_output(3, 4);
        let t = s.clone();
        assert!(std::sync::Arc::ptr_eq(&s.inner, &t.inner));
        assert_eq!(s, t);
        // Structurally identical but separately built spaces still compare
        // equal (and hash equal) without sharing storage.
        let u = CubeSpace::binary_with_output(3, 4);
        assert_eq!(s, u);
        assert_ne!(s, CubeSpace::binary_with_output(3, 5));
    }

    #[test]
    fn full_words_is_or_of_masks() {
        let s = CubeSpace::new(
            &[2, 5, 3],
            &[VarKind::Binary, VarKind::Multi, VarKind::Output],
        );
        let mut acc = vec![0u64; s.words()];
        for v in s.vars() {
            for (w, m) in acc.iter_mut().zip(s.mask(v)) {
                *w |= m;
            }
        }
        assert_eq!(acc, s.full_words());
    }

    #[test]
    fn spans_locate_fields() {
        let s = CubeSpace::new(
            &[2, 100, 30],
            &[VarKind::Binary, VarKind::Multi, VarKind::Output],
        );
        assert_eq!(s.var_span(0), (0, 0));
        assert_eq!(s.single_word_field(0), Some((0, 0b11)));
        // Variable 1 spans bits 2..=101: words 0..=1, no single-word mask.
        assert_eq!(s.var_span(1), (0, 1));
        assert_eq!(s.single_word_field(1), None);
        // Variable 2 spans bits 102..=131: words 1..=2.
        assert_eq!(s.var_span(2), (1, 2));
        assert_eq!(s.single_word_field(2), None);
        let t = CubeSpace::binary_with_output(3, 4);
        for v in t.vars() {
            let (w, m) = t.single_word_field(v).expect("one-word space");
            assert_eq!(w, 0);
            assert_eq!(m, t.mask(v)[0]);
        }
    }

    #[test]
    fn rows_intersect_matches_field_scan() {
        // One-word, MV and word-straddling layouts, against a per-variable
        // scan over every pair of a small exhaustive-ish row set.
        let spaces = [
            CubeSpace::binary_with_output(3, 4),
            CubeSpace::new(
                &[1, 5, 3],
                &[VarKind::Multi, VarKind::Multi, VarKind::Output],
            ),
            CubeSpace::new(
                &[2, 100, 30],
                &[VarKind::Binary, VarKind::Multi, VarKind::Output],
            ),
            CubeSpace::new(&[2; 40], &[VarKind::Binary; 40]),
        ];
        for s in &spaces {
            let mut rows: Vec<Vec<u64>> = Vec::new();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..64 {
                let mut r = s.full_words().to_vec();
                for v in s.vars() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x.is_multiple_of(3) {
                        let p = (x >> 8) as u32 % s.parts(v);
                        let b = s.bit(v, p) as usize;
                        r[b / 64] &= !(1u64 << (b % 64));
                    }
                    if x.is_multiple_of(11) {
                        for (w, m) in r.iter_mut().zip(s.mask(v)) {
                            *w &= !m;
                        }
                    }
                }
                rows.push(r);
            }
            for a in &rows {
                for b in &rows {
                    let scan = s.vars().all(|v| {
                        s.mask(v)
                            .iter()
                            .enumerate()
                            .any(|(k, m)| a[k] & b[k] & m != 0)
                    });
                    assert_eq!(s.rows_intersect(a, b), scan, "{s:?}");
                }
            }
        }
    }

    #[test]
    fn minterm_count() {
        let s = CubeSpace::binary(4);
        assert_eq!(s.num_minterms(), 16);
    }

    #[test]
    #[should_panic]
    fn zero_part_variable_rejected() {
        let _ = CubeSpace::new(&[2, 0], &[VarKind::Binary, VarKind::Multi]);
    }
}
