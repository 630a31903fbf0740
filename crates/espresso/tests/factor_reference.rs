//! Differential test of bit-packed factoring against a frozen reference.
//!
//! `reference` below is the `BTreeSet<BTreeSet<Literal>>` implementation of
//! QUICK_FACTOR that `espresso::factor` used before its cubes became
//! bit-packed literal sets, kept here verbatim except for the parts literal
//! counting never reaches (kernel enumeration, accessors). The factored
//! literal count is what NOVA reports per encoding (Table VII), so the new
//! representation must reproduce it exactly: on seeded random covers whose
//! literal sets span one, two and three words, and on the encoded and
//! minimized covers of suite machines.

use espresso::factor::cover_factored_literals;
use espresso::{minimize, Cover, Cube, CubeSpace};
use fsm::{Encoding, SplitMix64};

mod reference {
    use espresso::factor::{literal, Literal};
    use espresso::Cover;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Expr {
        cubes: Vec<BTreeSet<Literal>>,
    }

    impl Expr {
        pub fn new() -> Self {
            Expr::default()
        }

        pub fn from_cubes(cubes: impl IntoIterator<Item = BTreeSet<Literal>>) -> Self {
            let mut v: Vec<BTreeSet<Literal>> = cubes.into_iter().collect();
            v.sort();
            v.dedup();
            Expr { cubes: v }
        }

        pub fn len(&self) -> usize {
            self.cubes.len()
        }

        pub fn is_empty(&self) -> bool {
            self.cubes.is_empty()
        }

        pub fn literal_count(&self) -> usize {
            self.cubes.iter().map(BTreeSet::len).sum()
        }

        pub fn common_cube(&self) -> BTreeSet<Literal> {
            let mut it = self.cubes.iter();
            let mut acc = match it.next() {
                Some(c) => c.clone(),
                None => return BTreeSet::new(),
            };
            for c in it {
                acc = acc.intersection(c).cloned().collect();
            }
            acc
        }

        pub fn divide_by_cube(&self, d: &BTreeSet<Literal>) -> Expr {
            Expr::from_cubes(
                self.cubes
                    .iter()
                    .filter(|c| d.is_subset(c))
                    .map(|c| c.difference(d).cloned().collect()),
            )
        }

        pub fn divide(&self, divisor: &Expr) -> (Expr, Expr) {
            if divisor.is_empty() {
                return (Expr::new(), self.clone());
            }
            let mut quotient: Option<BTreeSet<BTreeSet<Literal>>> = None;
            for d in &divisor.cubes {
                let q: BTreeSet<BTreeSet<Literal>> =
                    self.divide_by_cube(d).cubes.into_iter().collect();
                quotient = Some(match quotient {
                    None => q,
                    Some(acc) => acc.intersection(&q).cloned().collect(),
                });
                if quotient.as_ref().is_some_and(BTreeSet::is_empty) {
                    break;
                }
            }
            let quotient = Expr::from_cubes(quotient.unwrap_or_default());
            if quotient.is_empty() {
                return (quotient, self.clone());
            }
            let mut product: BTreeSet<BTreeSet<Literal>> = BTreeSet::new();
            for q in &quotient.cubes {
                for d in &divisor.cubes {
                    product.insert(q.union(d).cloned().collect());
                }
            }
            let remainder =
                Expr::from_cubes(self.cubes.iter().filter(|c| !product.contains(*c)).cloned());
            (quotient, remainder)
        }

        pub fn cube_free(&self) -> Expr {
            let c = self.common_cube();
            if c.is_empty() {
                self.clone()
            } else {
                self.divide_by_cube(&c)
            }
        }

        pub fn quick_kernel(&self) -> Option<Expr> {
            let mut f = self.cube_free();
            loop {
                if f.len() < 2 {
                    return None;
                }
                match most_frequent_literal(&f) {
                    Some((l, count)) if count >= 2 && count < f.len() => {
                        let mut d = BTreeSet::new();
                        d.insert(l);
                        f = f.divide_by_cube(&d).cube_free();
                    }
                    Some((_, count)) if count >= 2 => return Some(f),
                    _ => return Some(f).filter(|k| k.len() >= 2),
                }
            }
        }
    }

    fn most_frequent_literal(f: &Expr) -> Option<(Literal, usize)> {
        let mut counts: std::collections::BTreeMap<Literal, usize> = Default::default();
        for c in &f.cubes {
            for &l in c {
                *counts.entry(l).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(l, n)| (n, std::cmp::Reverse(l)))
    }

    pub fn factored_literal_count(f: &Expr) -> usize {
        if f.is_empty() {
            return 0;
        }
        if f.len() == 1 {
            return f.cubes[0].len();
        }
        let common = f.common_cube();
        if !common.is_empty() {
            return common.len() + factored_literal_count(&f.divide_by_cube(&common));
        }
        let Some((best_l, count)) = most_frequent_literal(f) else {
            return 0;
        };
        if count < 2 {
            return f.literal_count();
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
        let mut d = BTreeSet::new();
        d.insert(best_l);
        let q = f.divide_by_cube(&d);
        let r = Expr::from_cubes(f.cubes.iter().filter(|c| !c.contains(&best_l)).cloned());
        1 + factored_literal_count(&q) + factored_literal_count(&r)
    }

    pub fn output_expr(cover: &Cover, o: u32) -> Expr {
        let space = cover.space();
        let ov = space.output_var().expect("cover needs an output variable");
        let mut cubes = Vec::new();
        for c in cover.iter() {
            if !c.has_part(space, ov, o) {
                continue;
            }
            let mut lits = BTreeSet::new();
            for v in space.vars() {
                if v == ov || c.var_is_full(space, v) {
                    continue;
                }
                if c.has_part(space, v, 1) {
                    lits.insert(literal(v, true));
                } else {
                    lits.insert(literal(v, false));
                }
            }
            cubes.push(lits);
        }
        Expr::from_cubes(cubes)
    }

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
}

/// A random cover over `inputs` binary variables and 3 outputs. Each cube
/// fixes 1–5 variables drawn from a pool of 8 spread across the whole
/// range, so literals recur across cubes (there is something to factor)
/// and the highest literals land in the last word of the literal set.
fn random_cover(rng: &mut SplitMix64, inputs: usize) -> Cover {
    let space = CubeSpace::binary_with_output(inputs, 3);
    let ov = space.output_var().expect("has outputs");
    let pool: Vec<usize> = (0..8).map(|j| j * (inputs - 1) / 7).collect();
    let n = 2 + rng.below_u64(24);
    let cubes = (0..n)
        .map(|_| {
            let mut c = Cube::full(&space);
            for _ in 0..1 + rng.below_u64(5) {
                let v = pool[rng.below_u64(pool.len() as u64) as usize];
                c.clear_var(&space, v);
                c.set_part(&space, v, rng.below_u64(2) as u32);
            }
            for o in 0..3 {
                if rng.below_u64(3) == 0 {
                    c.clear_part(&space, ov, o);
                }
            }
            if c.var_is_empty(&space, ov) {
                c.set_part(&space, ov, rng.below_u64(3) as u32);
            }
            c
        })
        .collect();
    Cover::from_cubes(space, cubes)
}

#[test]
fn factoring_matches_reference_on_random_covers_of_every_word_width() {
    // 4, 40 and 80 inputs: literal sets of one, two and three words.
    for inputs in [4, 40, 80] {
        let mut rng = SplitMix64::new(0xFAC7_0000 + inputs as u64);
        for _ in 0..300 {
            let f = random_cover(&mut rng, inputs);
            assert_eq!(
                cover_factored_literals(&f),
                reference::cover_factored_literals(&f),
                "{inputs} inputs: {f:?}"
            );
        }
    }
}

#[test]
fn factoring_matches_reference_on_encoded_suite_covers() {
    for name in ["bbtas", "dk16", "ex1"] {
        let m = &fsm::benchmarks::by_name(name).expect("embedded").fsm;
        let ihybrid = nova_core::driver::run(m, nova_core::Algorithm::IHybrid, None)
            .expect("ihybrid runs")
            .encoding;
        for (algo, enc) in [
            ("ihybrid", ihybrid),
            ("1-hot", Encoding::one_hot(m.num_states())),
        ] {
            let pla = fsm::encode::encode(m, &enc);
            for (what, cover) in [
                ("encoded", pla.on.clone()),
                ("minimized", minimize(&pla.on, &pla.dc)),
            ] {
                assert_eq!(
                    cover_factored_literals(&cover),
                    reference::cover_factored_literals(&cover),
                    "{name} {algo} {what}"
                );
            }
        }
    }
}
