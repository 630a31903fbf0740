//! REDUCE: shrink each cube to the smallest cube that keeps the cover valid.
//!
//! Reducing before a new EXPAND pass lets cubes re-expand in different
//! directions, escaping local minima of the expand/irredundant loop.
//!
//! The minterms only cube `c` covers are `U = c ∖ (rest ∪ D)`, where `rest`
//! is the rest of the cover. The maximally reduced cube is the smallest
//! cube containing `U` (ESPRESSO's SCCC), so it is computed in one pass:
//! the complement of `rest ∪ D` cofactored by `c`, each row intersected
//! with `c`, and the non-empty rows OR-ed together. When `U` is empty the
//! cube is covered twice over; each variable then keeps its highest part,
//! which is what lowering one part at a time (the frozen
//! [`crate::legacy::reduce`]) leaves, so outputs stay bit-identical.
//!
//! The cofactor, the complement and the OR accumulator are drawn from the
//! per-thread [`Scratch`] pool, so steady-state REDUCE allocates only the
//! reduced cubes themselves.

use crate::complement::comp_mat;
use crate::cover::Cover;
use crate::cube::Cube;
use crate::scratch::{with_scratch, Scratch};

/// Reduces every cube of `f` in place against don't-care cover `d`.
///
/// Cubes are processed largest-first (mirroring ESPRESSO, which gives large
/// cubes the first chance to shed responsibility onto their neighbours).
pub fn reduce(f: &mut Cover, d: &Cover) {
    let n = f.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].count_ones()));

    with_scratch(|s| {
        for &i in &order {
            let c = max_reduce(f, d, i, s);
            f.cubes_mut()[i] = c;
        }
    });
}

/// Maximally reduces cube `i` of `f` against the *unchanged* rest of the
/// cover plus `d`, without mutating `f` (the independent reduction used by
/// LAST_GASP).
pub fn reduce_cube_against(f: &Cover, d: &Cover, i: usize) -> Cube {
    with_scratch(|s| max_reduce(f, d, i, s))
}

/// The smallest cube containing `c ∖ (rest ∪ d)` for `c` = cube `i` of `f`
/// and `rest` = the other cubes of `f`.
fn max_reduce(f: &Cover, d: &Cover, i: usize, s: &mut Scratch) -> Cube {
    let space = f.space();
    let c = f.cubes()[i].words();
    let mut cf = s.acquire(space);
    for (j, r) in f.iter().enumerate() {
        if j != i {
            cf.push_cofactor(space, r.words(), c);
        }
    }
    for r in d.iter() {
        cf.push_cofactor(space, r.words(), c);
    }
    let mut comp = s.acquire(space);
    comp_mat(space, &mut cf, &mut comp, s);
    s.release(cf);

    let mut acc = s.acquire_words();
    acc.resize(space.words(), 0);
    for k in 0..comp.len() {
        let row = comp.row(k);
        if space.rows_intersect(row, c) {
            for ((a, r), w) in acc.iter_mut().zip(row).zip(c) {
                *a |= r & w;
            }
        }
    }
    s.release(comp);

    let out = if acc.iter().any(|&w| w != 0) {
        Cube::from_words(space, &acc)
    } else {
        // U is empty: keep each variable's highest admitted part.
        let mut out = f.cubes()[i].clone();
        for v in space.vars() {
            if let Some(top) = (0..space.parts(v))
                .rev()
                .find(|&p| out.has_part(space, v, p))
            {
                out.clear_var(space, v);
                out.set_part(space, v, top);
            }
        }
        out
    };
    s.release_words(acc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
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
    fn reduce_shrinks_overlapping_cubes() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // f = x + y; the overlap xy can be dropped from one of them.
        let mut f = cover(&sp, &["10 11 1", "11 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d);
        assert!(verify_minimized(&f, &orig, &d));
        // One cube must have shrunk.
        let total: u32 = f.iter().map(|c| c.count_ones()).sum();
        let orig_total: u32 = orig.iter().map(|c| c.count_ones()).sum();
        assert!(total < orig_total);
    }

    #[test]
    fn reduce_keeps_disjoint_cover_unchanged() {
        let sp = CubeSpace::binary_with_output(2, 1);
        let mut f = cover(&sp, &["10 01 1", "01 10 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d);
        assert_eq!(f, orig);
    }

    #[test]
    fn reduce_then_expand_preserves_function() {
        let sp = CubeSpace::binary_with_output(3, 1);
        let mut f = cover(&sp, &["11 10 11 1", "10 11 10 1", "11 11 01 1"]);
        let orig = f.clone();
        let d = Cover::empty(sp.clone());
        reduce(&mut f, &d);
        assert!(verify_minimized(&f, &orig, &d));
        expand(&mut f, &d);
        assert!(verify_minimized(&f, &orig, &d));
    }

    #[test]
    fn reduce_into_dont_cares_is_allowed() {
        let sp = CubeSpace::binary_with_output(2, 1);
        // ON = xy, cube currently covers x (over-expanded into DC = xy').
        let mut f = cover(&sp, &["10 11 1"]);
        let on = cover(&sp, &["10 10 1"]);
        let d = cover(&sp, &["10 01 1"]);
        reduce(&mut f, &d);
        // With no other cubes, the cube may shed only slices covered by D.
        assert!(verify_minimized(&f, &on, &d));
        assert_eq!(f.cubes()[0].display(&sp).to_string(), "10 10 1");
    }

    #[test]
    fn reduce_matches_legacy() {
        use crate::legacy;
        use crate::minimize::minimize;
        use crate::space::VarKind;
        let bin = CubeSpace::binary_with_output(3, 2);
        let mv = CubeSpace::new(
            &[4, 3, 2, 3],
            &[
                VarKind::Multi,
                VarKind::Multi,
                VarKind::Binary,
                VarKind::Output,
            ],
        );
        let cases: &[(&CubeSpace, &[&str], &[&str])] = &[
            (&bin, &["11 10 11 10", "10 11 10 10", "11 11 01 01"], &[]),
            (
                &bin,
                &["10 11 11 10", "11 10 11 10", "11 11 10 01"],
                &["01 01 01 11"],
            ),
            // The first cube lies inside D and the duplicated cube inside
            // its twin: `c ∖ (rest ∪ D)` is empty for both.
            (
                &bin,
                &["10 11 11 10", "11 10 11 01", "11 10 11 01"],
                &["10 11 11 11"],
            ),
            (
                &mv,
                &["1110 110 11 110", "0111 011 11 100", "1111 010 10 011"],
                &[],
            ),
            (
                &mv,
                &["1100 111 11 111", "0110 110 01 110", "0011 011 11 011"],
                &["1000 100 11 111"],
            ),
        ];
        for (sp, fs, ds) in cases {
            let f = cover(sp, fs);
            let d = cover(sp, ds);
            let mut ours = f.clone();
            let mut theirs = f.clone();
            reduce(&mut ours, &d);
            legacy::reduce(&mut theirs, &d);
            assert_eq!(ours, theirs, "case {fs:?} / {ds:?}");
            assert_eq!(minimize(&f, &d), legacy::minimize(&f, &d), "case {fs:?}");
        }
        // With nothing left to cover, each variable keeps its highest part.
        let f = cover(&bin, cases[2].1);
        let d = cover(&bin, cases[2].2);
        let c = reduce_cube_against(&f, &d, 0);
        assert_eq!(c.display(&bin).to_string(), "10 01 01 10");
    }
}
