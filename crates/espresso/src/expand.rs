//! EXPAND: grow each cube of a cover into a prime implicant.
//!
//! A part may be raised in a cube exactly when the raised cube stays inside
//! `ON ∪ DC`. The current cover `F` together with the don't-care cover `D`
//! denotes exactly that set throughout the ESPRESSO iteration: EXPAND only
//! raises into it, IRREDUNDANT only drops cubes the rest still covers, and
//! REDUCE only lowers minterms that other cubes or `D` still cover. So, as in
//! ESPRESSO-II, the set is complemented once per minimization into the
//! OFF-set `R = complement(F ∪ D)` ([`off_set`]), and a raise is legal iff
//! the raised cube [meets no row](crate::matrix::CubeMatrix::meets_no_row) of
//! `R` — a word-parallel intersection scan per row, with no cofactor, no
//! tautology check and no allocation per candidate.
//!
//! Raising is monotone (a raise rejected once can never become valid as the
//! cube grows), so a single pass over the candidate parts per cube yields a
//! prime.

use crate::complement::off_set;
use crate::cover::Cover;
use crate::cube::Cube;
use crate::matrix::CubeMatrix;
use crate::scratch::with_scratch;
use crate::tautology::cube_in_cover;

/// Expands every cube of `f` against the don't-care cover `d` into a prime,
/// removing cubes that become covered by an expanded one. Computes the
/// OFF-set of `f ∪ d` and runs [`expand_against`]; the minimization loop
/// computes it once and calls [`expand_against`] directly.
pub fn expand(f: &mut Cover, d: &Cover) {
    let r = with_scratch(|s| off_set(f, d, s));
    expand_against(f, &r);
    with_scratch(|s| s.release(r));
}

/// Expands every cube of `f` into a prime of the complement of the OFF-set
/// `r`, removing cubes that become covered by an expanded one. `r` must be
/// the OFF-set of `f ∪ D` ([`off_set`]).
///
/// Cubes are processed smallest-first (they benefit most), and parts are
/// tried in descending column count over `f` (raising toward other cubes
/// maximizes the chance of covering them).
pub fn expand_against(f: &mut Cover, r: &CubeMatrix) {
    let space = f.space().clone();
    f.absorb();
    let n = f.len();
    if n == 0 {
        return;
    }

    // Column counts: how many cubes of f admit each part. One word pass per
    // cube, iterating set bits (a part's global bit index is its word slot).
    let total_bits = space.total_bits() as usize;
    let mut col = vec![0u32; total_bits];
    for c in f.iter() {
        for (k, &w) in c.words().iter().enumerate() {
            let mut w = w;
            while w != 0 {
                col[k * 64 + w.trailing_zeros() as usize] += 1;
                w &= w - 1;
            }
        }
    }

    // Process order: ascending size.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| f.cubes()[i].count_ones());

    let mut covered = vec![false; n];
    let mut cands: Vec<(usize, u32)> = Vec::new();
    for &i in &order {
        if covered[i] {
            continue;
        }
        let mut c = f.cubes()[i].clone();

        // Candidate parts: currently absent from c, in descending column
        // count.
        cands.clear();
        for v in space.vars() {
            for p in 0..space.parts(v) {
                if !c.has_part(&space, v, p) {
                    cands.push((v, p));
                }
            }
        }
        cands.sort_by_key(|&(v, p)| std::cmp::Reverse(col[space.bit(v, p) as usize]));

        // Raise in place; undo when the raised cube meets the OFF-set.
        for &(v, p) in &cands {
            c.set_part(&space, v, p);
            if !r.meets_no_row(&space, c.words()) {
                c.clear_part(&space, v, p);
            }
        }

        // Commit and mark covered cubes.
        for (j, cov) in covered.iter_mut().enumerate() {
            if j != i && !*cov && f.cubes()[j].is_subset_of(&c) {
                *cov = true;
            }
        }
        f.cubes_mut()[i] = c;
    }

    let mut idx = 0;
    f.cubes_mut().retain(|_| {
        let k = !covered[idx];
        idx += 1;
        k
    });
}

/// Is `c` a prime implicant of the function denoted by `fd = F ∪ D`
/// (no single part can be raised while staying inside `fd`)?
pub fn is_prime(fd: &Cover, c: &Cube) -> bool {
    let space = fd.space();
    for v in space.vars() {
        for p in 0..space.parts(v) {
            if !c.has_part(space, v, p) {
                let mut t = c.clone();
                t.set_part(space, v, p);
                if cube_in_cover(fd, &t) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::CubeSpace;
    use crate::tautology::verify_minimized;

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn expand_merges_adjacent_minterms() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // f = x'y' + x'y  should expand to x'
        let mut f = cover(&sp, &["01 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        expand(&mut f, &d);
        assert_eq!(f.len(), 1);
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "01 11 1");
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn expand_uses_dont_cares() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let mut f = cover(&sp, &["10 10 1"]); // xy
        let orig = f.clone();
        let d = cover(&sp, &["10 01 1", "01 10 1"]); // xy' and x'y are DC
        expand(&mut f, &d);
        assert_eq!(f.len(), 1);
        // The prime may absorb either DC direction; it must be a prime and
        // stay within ON ∪ DC.
        assert!(verify_minimized(&f, &orig, &d));
        let fd = orig.union(&d);
        assert!(is_prime(&fd, &f.cubes()[0]));
        assert!(f.cubes()[0].count_ones() > orig.cubes()[0].count_ones());
    }

    #[test]
    fn expand_respects_off_set() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // xor: on = xy' + x'y, off = xy + x'y'. Nothing can expand.
        let mut f = cover(&sp, &["10 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        expand(&mut f, &d);
        assert_eq!(f.len(), 2);
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn expand_multioutput_sharing() {
        let sp = CubeSpace::binary_with_output(2, 2);
        // Same product needed by both outputs: xy on f0, xy on f1.
        let mut f = cover(&sp, &["10 10 10", "10 10 01"]);
        let d = Cover::empty(sp.clone());
        expand(&mut f, &d);
        assert_eq!(f.len(), 1);
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "10 10 11");
    }

    #[test]
    fn expanded_cubes_are_prime() {
        let sp = CubeSpace::binary_with_output(3, 1);
        let mut f = cover(
            &sp,
            &["10 10 10 1", "10 10 01 1", "01 10 10 1", "10 01 10 1"],
        );
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        expand(&mut f, &d);
        let fd = orig.union(&d);
        for c in f.iter() {
            assert!(is_prime(&fd, c));
        }
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn expand_matches_legacy() {
        use crate::legacy;
        let sp = CubeSpace::binary_with_output(3, 2);
        let cases: &[(&[&str], &[&str])] = &[
            (
                &["10 10 10 10", "10 10 01 10", "01 10 10 01"],
                &["10 01 11 11"],
            ),
            (&["11 10 11 10", "10 11 10 10", "11 11 01 01"], &[]),
        ];
        for (fs, ds) in cases {
            let mut ours = cover(&sp, fs);
            let mut theirs = ours.clone();
            let d = cover(&sp, ds);
            expand(&mut ours, &d);
            legacy::expand(&mut theirs, &d);
            assert_eq!(ours, theirs, "case {fs:?} / {ds:?}");
        }
    }
}
