//! Complementation and sharp (set difference) of covers.
//!
//! The recursive Shannon expansion runs on flat [`CubeMatrix`] arenas from
//! the per-thread [`Scratch`](crate::scratch::Scratch) pool: every recursion
//! level appends its result rows to one shared output matrix and branch
//! covers are written into reused buffers, so complementation performs no
//! heap allocation after warm-up. Results are bit-identical to the frozen
//! [`crate::legacy`] reference.

use crate::containment::absorb_matrix;
use crate::cover::Cover;
use crate::cube::Cube;
use crate::matrix::{nonfull_counts, select_binate, CubeMatrix, SIG_EXACT_VARS};
use crate::scratch::{with_scratch, Scratch};
use crate::space::CubeSpace;

/// Complement of a single cube: one result cube per non-full variable,
/// full everywhere except that variable, where it admits exactly the parts
/// the input rejects (De Morgan on positional notation).
pub fn complement_cube(space: &CubeSpace, c: &Cube) -> Vec<Cube> {
    if c.is_empty(space) {
        return vec![Cube::full(space)];
    }
    let mut out = Vec::new();
    for v in space.vars() {
        if c.var_is_full(space, v) {
            continue;
        }
        let mut r = Cube::full(space);
        for p in 0..space.parts(v) {
            if c.has_part(space, v, p) {
                r.clear_part(space, v, p);
            }
        }
        out.push(r);
    }
    out
}

/// Complement of a cover via recursive Shannon expansion on the most binate
/// variable, with unate base cases.
///
/// The result denotes exactly the minterms not covered by `f`.
///
/// # Examples
///
/// ```
/// use espresso::{complement, tautology, Cover, CubeSpace};
///
/// let mut f = Cover::empty(CubeSpace::binary(2));
/// f.push_parsed("10 11").unwrap(); // x
/// let g = complement(&f);
/// assert!(tautology(&f.union(&g)));
/// ```
pub fn complement(f: &Cover) -> Cover {
    let space = f.space();
    let cubes = with_scratch(|s| {
        let mut m = s.acquire(space);
        m.extend_cubes(space, f.cubes());
        let mut out = s.acquire(space);
        comp_mat(space, &mut m, &mut out, s);
        let cubes = out.to_cubes(space);
        s.release(m);
        s.release(out);
        cubes
    });
    let mut out = Cover::from_cubes(space.clone(), cubes);
    out.absorb();
    out
}

/// The OFF-set `R = complement(F ∪ D)` as an absorbed matrix from `s`
/// (return it with [`Scratch::release`]). A cube lies inside `F ∪ D` iff it
/// [meets no row](CubeMatrix::meets_no_row) of `R`, which is how EXPAND and
/// LAST_GASP test raises against the ON ∪ DC set of a whole minimization.
pub fn off_set(f: &Cover, d: &Cover, s: &mut Scratch) -> CubeMatrix {
    let space = f.space();
    let mut m = s.acquire(space);
    m.extend_cubes(space, f.iter().chain(d.iter()));
    let mut out = s.acquire(space);
    comp_mat(space, &mut m, &mut out, s);
    s.release(m);
    let mut keep = s.acquire_flags();
    absorb_matrix(&mut out, &mut keep);
    s.release_flags(keep);
    out
}

/// Appends the complement of the cover held in `m` to `out`. `m` is consumed
/// as work space; `out` rows below the entry length are left untouched, so
/// recursion levels can share one output arena.
fn comp_mat(space: &CubeSpace, m: &mut CubeMatrix, out: &mut CubeMatrix, s: &mut Scratch) {
    m.drop_degenerate();
    if m.any_row_full(space) {
        return;
    }
    if m.is_empty() {
        out.push_full(space);
        return;
    }
    if m.len() > 1 {
        // Absorption keeps the recursion small.
        let mut keep = s.acquire_flags();
        absorb_matrix(m, &mut keep);
        s.release_flags(keep);
    }
    if m.len() == 1 {
        // One result cube per non-full variable, read off the signature's
        // nonfull bitmap when it is exact.
        if space.num_vars() <= SIG_EXACT_VARS {
            let mut nf = m.sig(0).nonfull;
            while nf != 0 {
                let v = nf.trailing_zeros() as usize;
                nf &= nf - 1;
                out.push_complement_var(space, m.row(0), v);
            }
        } else {
            for v in space.vars() {
                if !m.row_var_is_full(space, 0, v) {
                    out.push_complement_var(space, m.row(0), v);
                }
            }
        }
        return;
    }

    // Most binate variable, from signature statistics alone.
    let mut counts = s.acquire_counts();
    nonfull_counts(space, m, &mut counts);
    let best = select_binate(space, &counts);
    s.release_counts(counts);
    let v = best.expect("non-universe multi-cube cover has an active variable");

    // complement(F) = ⋃_p [ (v = p) ∧ complement(F cofactored at v = p) ]
    let level_start = out.len();
    let parts = space.parts(v);
    for p in 0..parts {
        let mut branch = s.acquire(space);
        for i in 0..m.len() {
            if m.row_has_part(space, i, v, p) {
                branch.push_var_full_from(space, m.row(i), v, m.sig(i));
            }
        }
        let mark = out.len();
        comp_mat(space, &mut branch, out, s);
        s.release(branch);
        // Restrict the branch complement to v = p.
        for i in mark..out.len() {
            out.restrict_var_to_part(space, i, v, p);
        }
    }

    // Merge sibling cubes that differ only in v (reduces blow-up from the
    // value partition): two rows identical outside v merge by OR-ing their
    // v fields. Only this level's rows (a suffix of `out`) participate.
    let mut i = level_start;
    while i < out.len() {
        let mut j = i + 1;
        while j < out.len() {
            if out.rows_equal_outside_var(space, i, j, v) {
                out.or_var_from(space, i, j, v);
                out.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
}

/// Sharp of a cube by a cube: `a ∖ b` as a (non-disjoint) list of cubes.
pub fn sharp_cube(space: &CubeSpace, a: &Cube, b: &Cube) -> Vec<Cube> {
    if a.intersect(space, b).is_none() {
        return vec![a.clone()];
    }
    if a.is_subset_of(b) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for v in space.vars() {
        let mut r = a.clone();
        r.clear_var(space, v);
        let mut any = false;
        for p in 0..space.parts(v) {
            if a.has_part(space, v, p) && !b.has_part(space, v, p) {
                r.set_part(space, v, p);
                any = true;
            }
        }
        if any {
            out.push(r);
        }
    }
    out
}

/// Sharp of a cover by a cover: `f ∖ g` as a cover (exact set difference).
pub fn sharp(f: &Cover, g: &Cover) -> Cover {
    let space = f.space();
    let mut current: Vec<Cube> = f.cubes().to_vec();
    for b in g.iter() {
        let mut next = Vec::new();
        for a in &current {
            next.extend(sharp_cube(space, a, b));
        }
        current = next;
        // Periodic absorption keeps intermediate covers manageable.
        if current.len() > 64 {
            let mut c = Cover::from_cubes(space.clone(), std::mem::take(&mut current));
            c.absorb();
            current = c.into_iter().collect();
        }
    }
    let mut out = Cover::from_cubes(space.clone(), current);
    out.absorb();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy;
    use crate::tautology::{covers_equivalent, cube_in_cover, tautology};

    fn cover(space: &CubeSpace, strs: &[&str]) -> Cover {
        let mut f = Cover::empty(space.clone());
        for s in strs {
            f.push_parsed(s).unwrap();
        }
        f
    }

    #[test]
    fn complement_of_empty_is_universe() {
        let sp = CubeSpace::binary(2);
        let g = complement(&Cover::empty(sp.clone()));
        assert_eq!(g.len(), 1);
        assert!(g.cubes()[0].is_full(&sp));
    }

    #[test]
    fn complement_of_universe_is_empty() {
        let sp = CubeSpace::binary(2);
        assert!(complement(&Cover::universe(sp)).is_empty());
    }

    #[test]
    fn complement_partitions_space() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["10 11 01", "11 10 10", "01 01 11"]);
        let g = complement(&f);
        // f ∪ f' is a tautology and f ∩ f' is empty.
        assert!(tautology(&f.union(&g)));
        for a in f.iter() {
            for b in g.iter() {
                assert!(a.intersect(&sp, b).is_none(), "complement overlaps f");
            }
        }
    }

    #[test]
    fn complement_multivalued() {
        use crate::space::VarKind;
        let sp = CubeSpace::new(&[4, 2], &[VarKind::Multi, VarKind::Binary]);
        let f = cover(&sp, &["1100 11", "0010 10"]);
        let g = complement(&f);
        assert!(tautology(&f.union(&g)));
        for b in g.iter() {
            assert!(!cube_in_cover(&f, b));
        }
    }

    #[test]
    fn double_complement_is_identity() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["10 11 01", "01 10 11"]);
        let ff = complement(&complement(&f));
        assert!(covers_equivalent(&f, &ff));
    }

    #[test]
    fn complement_matches_legacy_exactly() {
        let sp = CubeSpace::binary(4);
        let cases: &[&[&str]] = &[
            &[],
            &["10 11 01 11"],
            &["10 11 01 11", "11 10 10 11", "01 01 11 10"],
            &["10 10 10 10", "01 01 01 01", "11 11 10 01", "10 01 11 11"],
        ];
        for strs in cases {
            let f = cover(&sp, strs);
            assert_eq!(
                complement(&f).cubes(),
                legacy::complement(&f).cubes(),
                "case {strs:?}"
            );
        }
    }

    #[test]
    fn sharp_is_set_difference() {
        let sp = CubeSpace::binary(2);
        let f = Cover::universe(sp.clone());
        let g = cover(&sp, &["10 11"]); // x
        let d = sharp(&f, &g); // should be x'
        assert_eq!(d.len(), 1);
        assert_eq!(d.cubes()[0].display(&sp).to_string(), "01 11");
    }

    #[test]
    fn sharp_equals_intersection_with_complement() {
        let sp = CubeSpace::binary(3);
        let f = cover(&sp, &["11 10 11", "10 11 01"]);
        let g = cover(&sp, &["10 10 11"]);
        let lhs = sharp(&f, &g);
        let rhs = f.intersection(&complement(&g));
        assert!(covers_equivalent(&lhs, &rhs));
    }
}
