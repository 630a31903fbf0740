//! Algebraic factoring: kernels, weak division, and factored-form literal
//! counts.
//!
//! This module is the stand-in for the multilevel optimization step the NOVA
//! paper performs with MIS-II (Table VII): a two-level cover is turned into a
//! factored form by recursive kernel extraction (the QUICK_FACTOR scheme) and
//! the number of literals of the factored form is reported. Logic sharing
//! *across* outputs is not modeled; each output is factored separately.
//!
//! An [`Expr`] stores each cube as a bit-packed literal set (literal `l` is
//! bit `l`) in one flat word arena with a fixed stride, so containment,
//! common cubes and cube division are word-wise `&` and `!`, at any literal
//! width. Cubes are kept distinct and sorted by their words, which makes
//! expression equality a slice comparison and cube membership a binary
//! search.

use crate::cover::Cover;
use std::cmp::Ordering;

/// A literal of an algebraic expression: `2*var + polarity`
/// (polarity 1 = positive phase).
pub type Literal = u32;

/// Encodes a literal.
pub fn literal(var: usize, positive: bool) -> Literal {
    (var as u32) << 1 | u32::from(positive)
}

/// An algebraic (single-output) sum-of-products: a set of cubes, each a set
/// of literals. Used only for factoring, not for Boolean reasoning.
#[derive(Debug, Clone)]
pub struct Expr {
    /// Words per cube (at least one).
    stride: usize,
    /// `len() * stride` words: the cubes, distinct and in ascending order.
    words: Vec<u64>,
}

impl Default for Expr {
    fn default() -> Self {
        Expr::new()
    }
}

/// Two expressions are equal when they hold the same cubes, whatever their
/// strides (a narrower cube reads as zero-extended).
impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        let word = |r: &[u64], k: usize| r.get(k).copied().unwrap_or(0);
        let n = self.stride.max(other.stride);
        self.len() == other.len()
            && self
                .rows()
                .zip(other.rows())
                .all(|(a, b)| (0..n).all(|k| word(a, k) == word(b, k)))
    }
}

impl Eq for Expr {}

impl Expr {
    /// Empty expression (constant 0).
    pub fn new() -> Self {
        Expr {
            stride: 1,
            words: Vec::new(),
        }
    }

    /// Builds from cube literal-sets, deduplicating identical cubes.
    pub fn from_cubes<C: IntoIterator<Item = Literal>>(cubes: impl IntoIterator<Item = C>) -> Self {
        let cubes: Vec<Vec<Literal>> = cubes.into_iter().map(|c| c.into_iter().collect()).collect();
        let max = cubes.iter().flatten().max().map_or(0, |&l| l as usize);
        let stride = max / 64 + 1;
        let mut words = vec![0u64; cubes.len() * stride];
        for (row, c) in words.chunks_exact_mut(stride).zip(&cubes) {
            for &l in c {
                row[l as usize / 64] |= 1 << (l % 64);
            }
        }
        Expr::canonical(stride, words)
    }

    /// An expression from raw rows in any order, possibly repeated: sorts
    /// them and drops duplicates.
    fn canonical(stride: usize, words: Vec<u64>) -> Expr {
        let mut rows: Vec<&[u64]> = words.chunks_exact(stride).collect();
        rows.sort_unstable();
        rows.dedup();
        Expr {
            stride,
            words: rows.concat(),
        }
    }

    /// An expression from rows already distinct and in ascending order.
    fn from_sorted<'a>(stride: usize, rows: impl Iterator<Item = &'a [u64]>) -> Expr {
        Expr {
            stride,
            words: rows.flatten().copied().collect(),
        }
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.stride)
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Whether `row` is one of the cubes (binary search).
    fn contains_row(&self, row: &[u64]) -> bool {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.row(mid).cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// The same cubes at `stride` words each (`stride >= self.stride`).
    fn widened(&self, stride: usize) -> Expr {
        let mut words = Vec::with_capacity(self.len() * stride);
        for r in self.rows() {
            words.extend_from_slice(r);
            words.resize(words.len() + stride - self.stride, 0);
        }
        Expr { stride, words }
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// True when the expression has no cubes.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Flat (two-level) literal count.
    pub fn literal_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The largest cube dividing every cube of the expression.
    fn common_cube(&self) -> Vec<u64> {
        let mut rows = self.rows();
        let Some(first) = rows.next() else {
            return vec![0; self.stride];
        };
        let mut acc = first.to_vec();
        for r in rows {
            for (a, w) in acc.iter_mut().zip(r) {
                *a &= w;
            }
        }
        acc
    }

    /// Quotient of the expression by a single cube: `{ c ∖ d : d ⊆ c }`.
    /// Clearing the same bits from distinct cubes that all hold them keeps
    /// the cubes distinct and in order, so the quotient needs no sort.
    fn divide_by_cube(&self, d: &[u64]) -> Expr {
        let mut words = Vec::new();
        for c in self.rows().filter(|c| holds(c, d)) {
            words.extend(c.iter().zip(d).map(|(w, x)| w & !x));
        }
        Expr {
            stride: self.stride,
            words,
        }
    }

    /// Weak (algebraic) division by a multi-cube divisor: returns
    /// `(quotient, remainder)` with `self = quotient·divisor + remainder`
    /// algebraically.
    pub fn divide(&self, divisor: &Expr) -> (Expr, Expr) {
        if divisor.is_empty() {
            return (Expr::new(), self.clone());
        }
        if self.stride != divisor.stride {
            let stride = self.stride.max(divisor.stride);
            return self.widened(stride).divide(&divisor.widened(stride));
        }
        let mut quotient = self.divide_by_cube(divisor.row(0));
        for d in divisor.rows().skip(1) {
            if quotient.is_empty() {
                break;
            }
            let q = self.divide_by_cube(d);
            quotient =
                Expr::from_sorted(self.stride, quotient.rows().filter(|r| q.contains_row(r)));
        }
        if quotient.is_empty() {
            return (quotient, self.clone());
        }
        // Every quotient cube is disjoint from every divisor cube (it is
        // some `c ∖ d`), so `c` is a product cube exactly when some `d ⊆ c`
        // leaves `c ∖ d` in the quotient.
        let mut rest = vec![0u64; self.stride];
        let in_product = |c: &[u64], rest: &mut Vec<u64>| {
            divisor.rows().any(|d| {
                if !holds(c, d) {
                    return false;
                }
                for ((x, w), y) in rest.iter_mut().zip(c).zip(d) {
                    *x = w & !y;
                }
                quotient.contains_row(rest)
            })
        };
        let remainder = Expr::from_sorted(
            self.stride,
            self.rows().filter(|c| !in_product(c, &mut rest)),
        );
        (quotient, remainder)
    }

    /// Makes the expression cube-free by dividing out its common cube.
    pub fn cube_free(&self) -> Expr {
        let c = self.common_cube();
        if c.iter().all(|&w| w == 0) {
            self.clone()
        } else {
            self.divide_by_cube(&c)
        }
    }

    /// All kernels of the expression (cube-free quotients by cubes),
    /// including the expression itself if cube-free. Standard recursive
    /// co-kernel enumeration.
    pub fn kernels(&self) -> Vec<Expr> {
        let mut out = Vec::new();
        let base = self.cube_free();
        if base.len() > 1 {
            out.push(base.clone());
        }
        kernels_rec(&base, 0, &mut out);
        out.sort_by(|a, b| a.words.cmp(&b.words));
        out.dedup();
        out
    }

    /// A single level-0-ish kernel found quickly by repeated division by the
    /// most frequent literal; `None` when the expression has no non-trivial
    /// kernel (no literal appears twice).
    pub fn quick_kernel(&self) -> Option<Expr> {
        let mut f = self.cube_free();
        loop {
            if f.len() < 2 {
                return None;
            }
            match most_frequent_literal(&f) {
                Some((l, count)) if count >= 2 && count < f.len() => {
                    f = f.divide_by_cube(&literal_cube(f.stride, l)).cube_free();
                }
                Some((l, count)) if count >= 2 => {
                    // literal common to all cubes would be a common cube;
                    // cube_free removed those, so count == len means a bug
                    debug_assert!(count < f.len(), "common literal {l} survived cube_free");
                    return Some(f);
                }
                _ => return Some(f).filter(|k| k.len() >= 2),
            }
        }
    }
}

/// Whether literal set `c` contains literal set `d`.
fn holds(c: &[u64], d: &[u64]) -> bool {
    c.iter().zip(d).all(|(w, x)| w & x == *x)
}

/// The single-literal cube `{l}` at `stride` words.
fn literal_cube(stride: usize, l: Literal) -> Vec<u64> {
    let mut d = vec![0u64; stride];
    d[l as usize / 64] |= 1 << (l % 64);
    d
}

fn has_literal(c: &[u64], l: usize) -> bool {
    c[l / 64] >> (l % 64) & 1 == 1
}

fn kernels_rec(f: &Expr, from: usize, out: &mut Vec<Expr>) {
    for l in from..f.stride * 64 {
        if f.rows().filter(|c| has_literal(c, l)).count() < 2 {
            continue;
        }
        let q = f.divide_by_cube(&literal_cube(f.stride, l as Literal));
        let common = q.common_cube();
        // Skip if a smaller literal in the common cube would re-generate this
        // kernel (standard duplicate pruning).
        let below = (1u64 << (l % 64)) - 1;
        if common[..l / 64].iter().any(|&w| w != 0) || common[l / 64] & below != 0 {
            continue;
        }
        let k = q.cube_free();
        if k.len() > 1 {
            out.push(k.clone());
            kernels_rec(&k, l + 1, out);
        }
    }
}

/// The literal in the most cubes, ties to the smallest literal, with its
/// cube count; `None` when no cube has a literal.
fn most_frequent_literal(f: &Expr) -> Option<(Literal, usize)> {
    let mut counts = vec![0usize; f.stride * 64];
    for c in f.rows() {
        for (k, &w) in c.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                counts[k * 64 + w.trailing_zeros() as usize] += 1;
                w &= w - 1;
            }
        }
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .max_by_key(|&(l, n)| (n, std::cmp::Reverse(l)))
        .map(|(l, n)| (l as Literal, n))
}

/// Number of literals of the QUICK_FACTOR factored form of the expression.
///
/// # Examples
///
/// ```
/// use espresso::factor::{literal, Expr};
/// use std::collections::BTreeSet;
///
/// // f = ab + ac  →  a(b + c): 3 literals instead of 4.
/// let a = literal(0, true);
/// let b = literal(1, true);
/// let c = literal(2, true);
/// let f = Expr::from_cubes(vec![
///     BTreeSet::from([a, b]),
///     BTreeSet::from([a, c]),
/// ]);
/// assert_eq!(espresso::factor::factored_literal_count(&f), 3);
/// ```
pub fn factored_literal_count(f: &Expr) -> usize {
    if f.is_empty() {
        return 0;
    }
    if f.len() == 1 {
        return f.literal_count();
    }
    // Factor out the common cube first.
    let common = f.common_cube();
    let shared: usize = common.iter().map(|w| w.count_ones() as usize).sum();
    if shared > 0 {
        return shared + factored_literal_count(&f.divide_by_cube(&common));
    }
    let Some((best_l, count)) = most_frequent_literal(f) else {
        return 0;
    };
    if count < 2 {
        return f.literal_count(); // nothing algebraic to share
    }
    if let Some(k) = f.quick_kernel() {
        if k != *f {
            let (q, r) = f.divide(&k);
            if !q.is_empty() {
                return factored_literal_count(&q)
                    + factored_literal_count(&k)
                    + factored_literal_count(&r);
            }
        }
    }
    // Fallback: literal division f = l·(f/l) + r.
    let d = literal_cube(f.stride, best_l);
    let q = f.divide_by_cube(&d);
    let r = Expr::from_sorted(f.stride, f.rows().filter(|c| !holds(c, &d)));
    1 + factored_literal_count(&q) + factored_literal_count(&r)
}

/// Extracts the single-output algebraic expression of output `o` from a
/// binary multi-output cover (cubes asserting `o`; binary input literals
/// only).
///
/// # Panics
///
/// Panics if the cover's space has no output variable.
pub fn output_expr(cover: &Cover, o: u32) -> Expr {
    let space = cover.space();
    let ov = space.output_var().expect("cover needs an output variable");
    let stride = (2 * space.num_vars()).div_ceil(64);
    let mut words = Vec::new();
    for c in cover.iter() {
        if !c.has_part(space, ov, o) {
            continue;
        }
        let start = words.len();
        words.resize(start + stride, 0);
        for v in space.vars() {
            if v == ov || c.var_is_full(space, v) {
                continue;
            }
            debug_assert_eq!(space.parts(v), 2, "factoring expects binary inputs");
            let l = literal(v, c.has_part(space, v, 1)) as usize;
            words[start + l / 64] |= 1 << (l % 64);
        }
    }
    Expr::canonical(stride, words)
}

/// Total factored-form literal count of a binary multi-output cover: each
/// output factored independently (no inter-output sharing), summed.
pub fn cover_factored_literals(cover: &Cover) -> usize {
    let space = cover.space();
    let ov = match space.output_var() {
        Some(v) => v,
        None => return 0,
    };
    (0..space.parts(ov))
        .map(|o| factored_literal_count(&output_expr(cover, o)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(cubes: &[&[Literal]]) -> Expr {
        Expr::from_cubes(cubes.iter().map(|c| c.iter().copied()))
    }

    const A: Literal = 1; // var0 positive
    const B: Literal = 3;
    const C: Literal = 5;
    const D: Literal = 7;
    const E: Literal = 9;

    #[test]
    fn division_basics() {
        // f = abc + abd + e; f / ab = c + d, remainder e
        let f = expr(&[&[A, B, C], &[A, B, D], &[E]]);
        let (q, r) = f.divide(&expr(&[&[A, B]]));
        assert_eq!(q, expr(&[&[C], &[D]]));
        assert_eq!(r, expr(&[&[E]]));
        let (qq, r) = f.divide(&expr(&[&[C], &[D]]));
        assert_eq!(qq, expr(&[&[A, B]]));
        assert_eq!(r, expr(&[&[E]]));
    }

    #[test]
    fn weak_division_intersects_quotients() {
        // f = ac + ad + bc + e; f / (c + d) = a (only a works for both)
        let f = expr(&[&[A, C], &[A, D], &[B, C], &[E]]);
        let (q, r) = f.divide(&expr(&[&[C], &[D]]));
        assert_eq!(q, expr(&[&[A]]));
        assert_eq!(r, expr(&[&[B, C], &[E]]));
    }

    #[test]
    fn kernels_of_textbook_example() {
        // f = ace + bce + de + g  (classic): kernels include (a+b),
        // (ac+bc+d) = c(a+b)+d, and f itself.
        let g = 11;
        let f = expr(&[&[A, C, E], &[B, C, E], &[D, E], &[g]]);
        let ks = f.kernels();
        assert!(ks.contains(&expr(&[&[A], &[B]])));
        assert!(ks.contains(&expr(&[&[A, C], &[B, C], &[D]])));
        assert!(ks.contains(&f));
    }

    #[test]
    fn factoring_shares_common_factor() {
        // f = ab + ac → a(b+c): 3 literals
        let f = expr(&[&[A, B], &[A, C]]);
        assert_eq!(factored_literal_count(&f), 3);
    }

    #[test]
    fn factoring_textbook_count() {
        // f = ace + bce + de + g → e(c(a+b) + d) + g : 7 literals
        let g = 11;
        let f = expr(&[&[A, C, E], &[B, C, E], &[D, E], &[g]]);
        assert_eq!(factored_literal_count(&f), 7);
    }

    #[test]
    fn factoring_cannot_beat_flat_when_nothing_shared() {
        let f = expr(&[&[A, B], &[C, D]]);
        assert_eq!(factored_literal_count(&f), 4);
    }

    #[test]
    fn single_cube_counts_its_literals() {
        let f = expr(&[&[A, B, C]]);
        assert_eq!(factored_literal_count(&f), 3);
    }

    #[test]
    fn output_expr_extraction() {
        use crate::space::CubeSpace;
        let sp = CubeSpace::binary_with_output(2, 2);
        let mut cov = Cover::empty(sp.clone());
        cov.push_parsed("01 10 10").unwrap(); // x y' -> f0 (part 1 = positive)
        cov.push_parsed("01 11 11").unwrap(); // x -> f0, f1
        let e0 = output_expr(&cov, 0);
        assert_eq!(e0.len(), 2);
        let e1 = output_expr(&cov, 1);
        assert_eq!(e1.len(), 1);
        assert_eq!(e1, expr(&[&[literal(0, true)]]));
    }

    #[test]
    fn cover_literals_sum_outputs() {
        use crate::space::CubeSpace;
        let sp = CubeSpace::binary_with_output(3, 2);
        let mut cov = Cover::empty(sp.clone());
        cov.push_parsed("10 10 11 10").unwrap(); // ab -> f0
        cov.push_parsed("10 11 10 10").unwrap(); // ac -> f0
        cov.push_parsed("01 11 11 01").unwrap(); // a' -> f1
                                                 // f0 = ab + ac → a(b+c): 3; f1 = a': 1
        assert_eq!(cover_factored_literals(&cov), 4);
    }
}
