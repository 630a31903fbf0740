//! Differential tests: the arena-backed kernels must produce results
//! bit-identical to the frozen pre-arena implementations in
//! `espresso::legacy`, across randomized covers in mixed binary /
//! multiple-valued spaces.
//!
//! The RNG is the repo's canonical SplitMix64 (`fsm::rng`, no external
//! crates, reproducible offline) — the same stream every seeded component
//! draws from.

use espresso::complement::off_set;
use espresso::legacy;
use espresso::{
    complement, containment, cube_in_cover, minimize_with, tautology, Cover, Cube, CubeSpace,
    MinimizeOptions, Scratch, VarKind,
};
use fsm::SplitMix64;

/// The space zoo: plain binary, binary+output, and mixed multi-valued shapes
/// (NOVA's symbolic covers are exactly the latter).
fn spaces() -> Vec<CubeSpace> {
    vec![
        CubeSpace::binary(3),
        CubeSpace::binary(5),
        CubeSpace::binary_with_output(3, 2),
        CubeSpace::binary_with_output(4, 3),
        CubeSpace::new(
            &[4, 2, 2],
            &[VarKind::Multi, VarKind::Binary, VarKind::Binary],
        ),
        CubeSpace::new(
            &[5, 3, 2, 2],
            &[
                VarKind::Multi,
                VarKind::Multi,
                VarKind::Binary,
                VarKind::Output,
            ],
        ),
    ]
}

/// A random cube: each variable keeps a random non-trivial subset of parts,
/// with occasional full fields and (rarely) an empty field to exercise the
/// degenerate paths.
fn random_cube(rng: &mut SplitMix64, space: &CubeSpace) -> Cube {
    let mut c = Cube::full(space);
    for v in space.vars() {
        let parts = space.parts(v);
        match rng.below_u64(8) {
            0 | 1 => {} // keep full
            2 if parts > 1 => {
                // empty field (degenerate cube)
                for p in 0..parts {
                    c.clear_part(space, v, p);
                }
            }
            _ => {
                // random proper subset, biased toward keeping parts
                let mut kept = 0;
                for p in 0..parts {
                    if rng.below_u64(3) == 0 {
                        c.clear_part(space, v, p);
                    } else {
                        kept += 1;
                    }
                }
                if kept == 0 {
                    c.set_part(space, v, (rng.below_u64(parts as u64)) as u32);
                }
            }
        }
    }
    c
}

fn random_cover(rng: &mut SplitMix64, space: &CubeSpace, max_cubes: u64) -> Cover {
    let n = rng.below_u64(max_cubes + 1);
    let cubes = (0..n).map(|_| random_cube(rng, space)).collect();
    Cover::from_cubes(space.clone(), cubes)
}

#[test]
fn tautology_matches_legacy_on_random_covers() {
    let mut rng = SplitMix64::new(0x7a75_7431);
    for space in spaces() {
        for _ in 0..60 {
            let f = random_cover(&mut rng, &space, 10);
            assert_eq!(
                tautology(&f),
                legacy::tautology(&f),
                "tautology diverged on {f:?}"
            );
        }
    }
}

#[test]
fn complement_matches_legacy_exactly() {
    let mut rng = SplitMix64::new(0x00c0_4911);
    for space in spaces() {
        for _ in 0..40 {
            let f = random_cover(&mut rng, &space, 8);
            let ours = complement(&f);
            let theirs = legacy::complement(&f);
            // Cube-list identity, not mere equivalence: the arena recursion
            // must retrace the legacy recursion exactly.
            assert_eq!(ours.cubes(), theirs.cubes(), "complement diverged on {f:?}");
        }
    }
}

#[test]
fn cube_in_cover_matches_legacy() {
    let mut rng = SplitMix64::new(0x0051_b5e7);
    for space in spaces() {
        for _ in 0..60 {
            let f = random_cover(&mut rng, &space, 8);
            let c = random_cube(&mut rng, &space);
            assert_eq!(
                cube_in_cover(&f, &c),
                legacy::cube_in_cover(&f, &c),
                "cube_in_cover diverged on {f:?} / {c:?}"
            );
        }
    }
}

#[test]
fn absorb_matches_legacy() {
    let mut rng = SplitMix64::new(0x00ab_504b);
    for space in spaces() {
        for _ in 0..60 {
            let f = random_cover(&mut rng, &space, 12);
            let mut ours = f.cubes().to_vec();
            let mut theirs = f.cubes().to_vec();
            containment::absorb_cubes(&space, &mut ours);
            legacy::absorb_in_place(&space, &mut theirs);
            assert_eq!(ours, theirs, "absorb diverged on {f:?}");
        }
    }
}

#[test]
fn expand_reduce_irredundant_match_legacy() {
    let mut rng = SplitMix64::new(0x00e7_8a9d);
    for space in spaces() {
        for _ in 0..25 {
            let f = random_cover(&mut rng, &space, 8);
            let d = random_cover(&mut rng, &space, 3);

            let mut a = f.clone();
            let mut b = f.clone();
            espresso::expand::expand(&mut a, &d);
            legacy::expand(&mut b, &d);
            assert_eq!(a, b, "expand diverged on {f:?} / {d:?}");

            let mut a = f.clone();
            let mut b = f.clone();
            espresso::reduce::reduce(&mut a, &d);
            legacy::reduce(&mut b, &d);
            assert_eq!(a, b, "reduce diverged on {f:?} / {d:?}");

            let mut a = f.clone();
            let mut b = f.clone();
            espresso::irredundant::irredundant(&mut a, &d);
            legacy::irredundant(&mut b, &d);
            assert_eq!(a, b, "irredundant diverged on {f:?} / {d:?}");
        }
    }
}

#[test]
fn full_minimize_matches_legacy_cover_and_cost() {
    let mut rng = SplitMix64::new(0x3141_5926);
    let opts = MinimizeOptions {
        verify: true,
        ..MinimizeOptions::default()
    };
    for space in spaces() {
        for _ in 0..12 {
            let f = random_cover(&mut rng, &space, 7);
            let d = random_cover(&mut rng, &space, 3);
            let (ours, our_stats) = minimize_with(&f, &d, opts);
            let (theirs, their_stats) = legacy::minimize_with(&f, &d, opts);
            assert_eq!(ours, theirs, "minimize diverged on {f:?} / {d:?}");
            assert_eq!(ours.cost(), theirs.cost());
            assert_eq!(our_stats, their_stats);
        }
    }
}

/// A mostly-full cube: non-full in at most `loose` variables. Wide spaces
/// need this bias — a cube that is loose everywhere makes the legacy
/// reference complement intractable at hundreds of variables.
fn mostly_full_cube(rng: &mut SplitMix64, space: &CubeSpace, loose: u64) -> Cube {
    let mut c = Cube::full(space);
    for _ in 0..rng.below_u64(loose + 1) {
        let v = rng.below_u64(space.num_vars() as u64) as usize;
        c.clear_part(space, v, rng.below_u64(space.parts(v) as u64) as u32);
    }
    c
}

/// The universe split on one variable: two cubes, each full everywhere
/// except one complementary half of `v` — their union is a tautology no
/// matter how wide the space is.
fn universe_split(space: &CubeSpace, v: usize) -> Vec<Cube> {
    let mut a = Cube::full(space);
    a.clear_part(space, v, 0);
    let mut b = Cube::full(space);
    b.clear_part(space, v, 1);
    vec![a, b]
}

#[test]
fn kernels_match_legacy_across_chunk_boundary_widths() {
    // Strides 1..=9 cross every portable-chunk (4-word) and AVX2-lane
    // boundary, plus the WIDE_MIN_WORDS dispatch threshold; 32 binary
    // variables occupy exactly one 64-bit word.
    for w in 1..=9usize {
        let space = CubeSpace::binary(32 * w);
        assert_eq!(space.words(), w, "stride setup for width {w}");
        let mut rng = SplitMix64::new(0x51_3d00 + w as u64);
        for round in 0..10 {
            let n = 2 + rng.below_u64(8) as usize;
            let mut cubes: Vec<Cube> = (0..n)
                .map(|_| mostly_full_cube(&mut rng, &space, 5))
                .collect();
            if round % 2 == 0 {
                // Make the true-tautology path reachable at every width.
                cubes.extend(universe_split(
                    &space,
                    rng.below_u64(space.num_vars() as u64) as usize,
                ));
            }
            let f = Cover::from_cubes(space.clone(), cubes);
            assert_eq!(
                tautology(&f),
                legacy::tautology(&f),
                "tautology diverged at stride {w}, round {round}"
            );
            let c = mostly_full_cube(&mut rng, &space, 5);
            assert_eq!(
                cube_in_cover(&f, &c),
                legacy::cube_in_cover(&f, &c),
                "cube_in_cover diverged at stride {w}, round {round}"
            );
            let mut ours = f.cubes().to_vec();
            let mut theirs = f.cubes().to_vec();
            containment::absorb_cubes(&space, &mut ours);
            legacy::absorb_in_place(&space, &mut theirs);
            assert_eq!(ours, theirs, "absorb diverged at stride {w}, round {round}");
            if round < 3 {
                let g = Cover::from_cubes(space.clone(), f.cubes()[..n.min(3)].to_vec());
                assert_eq!(
                    complement(&g).cubes(),
                    legacy::complement(&g).cubes(),
                    "complement diverged at stride {w}, round {round}"
                );
            }
        }
    }
}

#[test]
fn saturated_signature_window_stays_exact_beyond_127_vars() {
    // 130 binary variables exceed SIG_EXACT_VARS: high variables share the
    // saturated nonfull bit and every sig-driven fast path must fall back to
    // word scans without changing any answer.
    let space = CubeSpace::binary(130);
    assert!(space.num_vars() > espresso::SIG_EXACT_VARS);
    let mut rng = SplitMix64::new(0x5a7_0b17);
    for round in 0..8 {
        let mut cubes: Vec<Cube> = (0..(2 + rng.below_u64(6)))
            .map(|_| mostly_full_cube(&mut rng, &space, 4))
            .collect();
        if round % 2 == 0 {
            // Split on a variable above the saturation bit, so the exact
            // answer depends on exactly the aliased range.
            cubes.extend(universe_split(&space, 127 + round % 3));
        }
        let f = Cover::from_cubes(space.clone(), cubes);
        assert_eq!(tautology(&f), legacy::tautology(&f), "round {round}");
        let c = mostly_full_cube(&mut rng, &space, 4);
        assert_eq!(
            cube_in_cover(&f, &c),
            legacy::cube_in_cover(&f, &c),
            "round {round}"
        );
        let mut ours = f.cubes().to_vec();
        let mut theirs = f.cubes().to_vec();
        containment::absorb_cubes(&space, &mut ours);
        legacy::absorb_in_place(&space, &mut theirs);
        assert_eq!(ours, theirs, "round {round}");
    }
}

#[test]
fn minimize_still_satisfies_contract_on_larger_random_covers() {
    // Not a differential check (legacy would be slow here): property-test the
    // ESPRESSO contract itself on bigger instances that stress the arena
    // recursion depth and the scratch pool.
    let mut rng = SplitMix64::new(0xdead_bee5);
    let space = CubeSpace::binary_with_output(6, 3);
    for _ in 0..8 {
        let f = random_cover(&mut rng, &space, 24);
        let d = random_cover(&mut rng, &space, 6);
        let (m, _) = minimize_with(
            &f,
            &d,
            MinimizeOptions {
                verify: true, // panics internally on contract violation
                ..MinimizeOptions::default()
            },
        );
        assert!(m.len() <= f.len() + d.len());
    }
}

/// Multi-word spaces for the OFF-set oracle: a 100-part MV field and a
/// 30-part output field that both straddle word boundaries, 3-part MV
/// fields straddling at bits 63/64 and 127/128, and 70 word-aligned binary
/// variables.
fn wide_spaces() -> Vec<CubeSpace> {
    vec![
        CubeSpace::new(
            &[2, 100, 30],
            &[VarKind::Binary, VarKind::Multi, VarKind::Output],
        ),
        CubeSpace::new(&[3; 50], &[VarKind::Multi; 50]),
        CubeSpace::binary(70),
    ]
}

#[test]
fn off_set_raise_test_matches_cube_in_cover() {
    // A raise is legal iff the raised cube meets no row of the OFF-set of
    // F ∪ D; that must agree with exact containment in F ∪ D for every
    // probe: random cubes (mostly outside), subcubes of F ∪ D (inside) and
    // subcubes with one part raised (the EXPAND shape, either side).
    let mut rng = SplitMix64::new(0x0ff5_e7a1);
    let mut pool = Scratch::new();
    let narrow = spaces().into_iter().map(|s| (s, false));
    let wide = wide_spaces().into_iter().map(|s| (s, true));
    for (space, is_wide) in narrow.chain(wide) {
        for round in 0..30 {
            // Wide covers stay mostly full so their complement stays small.
            let mut cover = |max: u64| {
                let n = rng.below_u64(max + 1);
                let cubes = (0..n)
                    .map(|_| {
                        if is_wide {
                            mostly_full_cube(&mut rng, &space, 4)
                        } else {
                            random_cube(&mut rng, &space)
                        }
                    })
                    .collect();
                Cover::from_cubes(space.clone(), cubes)
            };
            let f = cover(6);
            let d = cover(3);
            let r = off_set(&f, &d, &mut pool);
            let fd = f.union(&d);
            let mut probes = Vec::new();
            for _ in 0..6 {
                probes.push(random_cube(&mut rng, &space));
                probes.push(mostly_full_cube(&mut rng, &space, 3));
                if !fd.is_empty() {
                    let host = &fd.cubes()[rng.below_u64(fd.len() as u64) as usize];
                    let mut sub = host.and(&mostly_full_cube(&mut rng, &space, 2));
                    probes.push(sub.clone());
                    let v = rng.below_u64(space.num_vars() as u64) as usize;
                    sub.set_part(&space, v, rng.below_u64(space.parts(v) as u64) as u32);
                    probes.push(sub);
                }
            }
            for t in &probes {
                assert_eq!(
                    r.meets_no_row(&space, t.words()),
                    cube_in_cover(&fd, t),
                    "OFF-set test diverged in {space:?}, round {round}: \
                     {f:?} / {d:?} / {t:?}"
                );
            }
            pool.release(r);
        }
    }
}

/// A near-minterm cube: each variable pinned to one random part, except
/// for an occasional full field — the scattered on-sets on which the
/// reduce/expand loop stalls in a local minimum that LAST_GASP escapes.
fn sparse_cube(rng: &mut SplitMix64, space: &CubeSpace) -> Cube {
    let mut c = Cube::full(space);
    for v in space.vars() {
        if rng.below_u64(5) != 0 {
            c.clear_var(space, v);
            c.set_part(space, v, rng.below_u64(space.parts(v) as u64) as u32);
        }
    }
    c
}

#[test]
fn last_gasp_path_matches_legacy() {
    // Seeded covers on which LAST_GASP changes the minimized cover (the
    // result differs from a run without it): there the OFF-set raises
    // inside last_gasp decide the answer, and it must equal legacy's.
    let mut rng = SplitMix64::new(0x1a57_6a59);
    let with = MinimizeOptions {
        verify: true,
        ..MinimizeOptions::default()
    };
    let without = MinimizeOptions {
        last_gasp: false,
        ..with
    };
    let mut effective = 0;
    for space in [
        CubeSpace::binary_with_output(4, 2),
        CubeSpace::binary_with_output(5, 2),
        CubeSpace::new(
            &[4, 3, 2, 2, 3],
            &[
                VarKind::Multi,
                VarKind::Multi,
                VarKind::Binary,
                VarKind::Binary,
                VarKind::Output,
            ],
        ),
    ] {
        for _ in 0..200 {
            let n = 6 + rng.below_u64(14);
            let cubes = (0..n).map(|_| sparse_cube(&mut rng, &space)).collect();
            let f = Cover::from_cubes(space.clone(), cubes);
            let d = Cover::from_cubes(space.clone(), vec![sparse_cube(&mut rng, &space)]);
            let ours = minimize_with(&f, &d, with);
            if ours.0 == minimize_with(&f, &d, without).0 {
                continue;
            }
            effective += 1;
            let theirs = legacy::minimize_with(&f, &d, with);
            assert_eq!(ours, theirs, "last_gasp diverged on {f:?} / {d:?}");
        }
    }
    assert!(
        effective > 0,
        "no seeded cover reached an effective LAST_GASP"
    );
    println!("{effective} covers with an effective LAST_GASP");
}
