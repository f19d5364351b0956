//! Property-based tests of the tile kernels: structural and numerical
//! invariants over random tiles, tile sizes and inner block sizes.

use hqr_kernels::blocked::{geqrt_ib, tsmqr_ib, tsqrt_ib, unmqr_ib};
use hqr_kernels::{geqrt, t_len, tsmqr, tsqrt, ttmqr, ttqrt, unmqr, Trans};
use hqr_tile::io::{checksum64, f64s_le};
use hqr_tile::DenseMatrix;
use proptest::prelude::*;

fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

fn upper(b: usize, a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; b * b];
    for j in 0..b {
        for i in 0..=j {
            u[i + j * b] = a[i + j * b];
        }
    }
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEQRT: R diagonal magnitudes equal column norms of the residual
    /// panel process (first column exactly), V strictly lower, and
    /// applying Qᵀ then Q is the identity.
    #[test]
    fn geqrt_invariants(b in 1usize..16, seed in any::<u64>()) {
        let a0 = tile(b, seed);
        let mut a = a0.clone();
        let mut t = vec![0.0; t_len(b, b)];
        geqrt(b, &mut a, &mut t);
        // |r00| = ‖a0[:,0]‖.
        let col0 = norm(&a0[..b]);
        prop_assert!((a[0].abs() - col0).abs() < 1e-12 * col0.max(1.0));
        // Roundtrip.
        let c0 = tile(b, seed.wrapping_add(1));
        let mut c = c0.clone();
        unmqr(b, &a, &t, &mut c, Trans::Trans);
        unmqr(b, &a, &t, &mut c, Trans::NoTrans);
        let diff: Vec<f64> = c.iter().zip(&c0).map(|(x, y)| x - y).collect();
        prop_assert!(norm(&diff) < 1e-11 * norm(&c0).max(1.0));
    }

    /// TSQRT kills the bottom tile: applying Qᵀ to the original stack
    /// leaves zeros below, and the top R norm accounts for all the mass.
    #[test]
    fn tsqrt_annihilation(b in 1usize..12, seed in any::<u64>()) {
        let a1_0 = upper(b, &tile(b, seed));
        let a2_0 = tile(b, seed.wrapping_add(2));
        let (mut a1, mut a2) = (a1_0.clone(), a2_0.clone());
        let mut t = vec![0.0; t_len(b, b)];
        tsqrt(b, &mut a1, &mut a2, &mut t);
        let (mut c1, mut c2) = (a1_0.clone(), a2_0.clone());
        tsmqr(b, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        prop_assert!(norm(&c2) < 1e-11 * (norm(&a1_0) + norm(&a2_0)).max(1.0));
        // Orthogonality preserves the stacked norm.
        let mass_in = (norm(&a1_0).powi(2) + norm(&a2_0).powi(2)).sqrt();
        let mass_out = norm(&upper(b, &a1));
        prop_assert!((mass_in - mass_out).abs() < 1e-10 * mass_in.max(1.0));
    }

    /// TTQRT preserves the strict lower triangle of both tiles.
    #[test]
    fn ttqrt_structure(b in 1usize..12, seed in any::<u64>()) {
        let mut a1 = tile(b, seed);
        let mut a2 = tile(b, seed.wrapping_add(3));
        let lower = |a: &[f64]| -> Vec<f64> {
            let mut v = Vec::new();
            for j in 0..b {
                for i in (j + 1)..b {
                    v.push(a[i + j * b]);
                }
            }
            v
        };
        let (l1, l2) = (lower(&a1), lower(&a2));
        let mut t = vec![0.0; t_len(b, b)];
        ttqrt(b, &mut a1, &mut a2, &mut t);
        prop_assert_eq!(lower(&a1), l1, "A1 strict lower untouched");
        prop_assert_eq!(lower(&a2), l2, "A2 strict lower untouched");
    }

    /// Update kernels are isometries on the stacked pair.
    #[test]
    fn updates_are_isometries(b in 1usize..12, seed in any::<u64>(), tt in any::<bool>()) {
        let mut a1 = upper(b, &tile(b, seed));
        let mut a2 = if tt { upper(b, &tile(b, seed ^ 5)) } else { tile(b, seed ^ 5) };
        let mut t = vec![0.0; t_len(b, b)];
        if tt {
            ttqrt(b, &mut a1, &mut a2, &mut t);
        } else {
            tsqrt(b, &mut a1, &mut a2, &mut t);
        }
        let (mut c1, mut c2) = (tile(b, seed ^ 9), tile(b, seed ^ 11));
        let before = (norm(&c1).powi(2) + norm(&c2).powi(2)).sqrt();
        if tt {
            ttmqr(b, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        } else {
            tsmqr(b, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        }
        let after = (norm(&c1).powi(2) + norm(&c2).powi(2)).sqrt();
        prop_assert!((before - after).abs() < 1e-11 * before.max(1.0));
    }

    /// Inner-blocked kernels compute the same V and R as the unblocked
    /// ones for every valid ib.
    #[test]
    fn blocked_matches_unblocked(b in 2usize..14, ib_frac in 1usize..14, seed in any::<u64>()) {
        let ib = (ib_frac % b).max(1);
        let a0 = tile(b, seed);
        let (mut a_ref, mut t_ref) = (a0.clone(), vec![0.0; t_len(b, b)]);
        geqrt(b, &mut a_ref, &mut t_ref);
        let (mut a_ib, mut t_ib) = (a0.clone(), vec![0.0; t_len(b, ib)]);
        geqrt_ib(b, ib, &mut a_ib, &mut t_ib);
        let diff: Vec<f64> = a_ref.iter().zip(&a_ib).map(|(x, y)| x - y).collect();
        prop_assert!(norm(&diff) < 1e-10 * norm(&a0).max(1.0), "ib={ib} b={b}");
    }

    /// Blocked TSQRT + blocked apply roundtrips.
    #[test]
    fn blocked_ts_roundtrip(b in 2usize..12, ib_frac in 1usize..12, seed in any::<u64>()) {
        let ib = (ib_frac % b).max(1);
        let mut a1 = upper(b, &tile(b, seed));
        let mut a2 = tile(b, seed ^ 21);
        let mut t = vec![0.0; t_len(b, ib)];
        tsqrt_ib(b, ib, &mut a1, &mut a2, &mut t);
        let (c1_0, c2_0) = (tile(b, seed ^ 23), tile(b, seed ^ 27));
        let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
        tsmqr_ib(b, ib, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        tsmqr_ib(b, ib, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1: Vec<f64> = c1.iter().zip(&c1_0).map(|(x, y)| x - y).collect();
        let d2: Vec<f64> = c2.iter().zip(&c2_0).map(|(x, y)| x - y).collect();
        prop_assert!(norm(&d1) + norm(&d2) < 1e-10 * (norm(&c1_0) + norm(&c2_0)).max(1.0));
    }

    /// Tile guards (one `checksum64` digest per buffer, as the executor
    /// keeps them) across random legitimate kernel sequences: refreshing a
    /// guard after each kernel that writes its buffer means verification
    /// never false-positives, and a single bit flip afterwards is always
    /// caught.
    #[test]
    fn guards_track_random_kernel_sequences(
        b in 1usize..10, seed in any::<u64>(), nops in 1usize..12,
        ops_seed in any::<u64>(), flip_raw in any::<u64>(),
    ) {
        // A cheap splitmix step stands in for a `Vec` strategy (the
        // vendored proptest has no collection support).
        let mut opstate = ops_seed;
        let mut next = move || {
            opstate = opstate.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = opstate;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let ops: Vec<usize> = (0..nops).map(|_| (next() % 6) as usize).collect();
        // Working set: two factorizable tiles, two update targets, one T.
        let mut bufs: [Vec<f64>; 5] = [
            tile(b, seed),
            tile(b, seed ^ 1),
            tile(b, seed ^ 2),
            tile(b, seed ^ 3),
            vec![0.0; t_len(b, b)],
        ];
        let digest = |x: &[f64]| checksum64(&f64s_le(x));
        let mut guards: Vec<u64> = bufs.iter().map(|x| digest(x)).collect();
        for (step, &op) in ops.iter().enumerate() {
            // Zero false positives before every kernel launch.
            for (g, x) in guards.iter().zip(&bufs) {
                prop_assert!(digest(x) == *g, "digest false positive before step {step}");
            }
            let [a1, a2, c1, c2, t] = &mut bufs;
            // Run one kernel, then refresh exactly its write set.
            let written: &[usize] = match op {
                0 => { geqrt(b, a1, t); &[0, 4] }
                1 => { unmqr(b, a1, t, c1, Trans::Trans); &[2] }
                2 => { tsqrt(b, a1, a2, t); &[0, 1, 4] }
                3 => { tsmqr(b, a2, t, c1, c2, Trans::Trans); &[2, 3] }
                4 => { ttqrt(b, a1, a2, t); &[0, 1, 4] }
                _ => { ttmqr(b, a2, t, c1, c2, Trans::Trans); &[2, 3] }
            };
            for &w in written {
                guards[w] = digest(&bufs[w]);
            }
        }
        for (g, x) in guards.iter().zip(&bufs) {
            prop_assert!(digest(x) == *g, "false positive after the sequence");
        }
        // 100% detection: one flipped bit anywhere is caught.
        let (which, elem, bit) =
            ((flip_raw % 5) as usize, (flip_raw >> 3) as usize, (flip_raw >> 32) % 64);
        let elem = elem % bufs[which].len();
        let x = &mut bufs[which][elem];
        *x = f64::from_bits(x.to_bits() ^ (1u64 << bit));
        prop_assert!(
            digest(&bufs[which]) != guards[which],
            "bit {bit} of element {elem} in buffer {which} escaped the guard"
        );
    }

    /// Blocked UNMQR agrees with unblocked UNMQR when fed the same
    /// factorization (V identical, T layouts coincide for the shared
    /// panels only when ib divides evenly — so compare end results of
    /// applying the full Q).
    #[test]
    fn blocked_apply_agrees(b in 2usize..12, ib_frac in 1usize..12, seed in any::<u64>()) {
        let ib = (ib_frac % b).max(1);
        let a0 = tile(b, seed);
        let (mut a_u, mut t_u) = (a0.clone(), vec![0.0; t_len(b, b)]);
        geqrt(b, &mut a_u, &mut t_u);
        let (mut a_b, mut t_b) = (a0.clone(), vec![0.0; t_len(b, ib)]);
        geqrt_ib(b, ib, &mut a_b, &mut t_b);
        let c0 = tile(b, seed ^ 33);
        let mut cu = c0.clone();
        unmqr(b, &a_u, &t_u, &mut cu, Trans::Trans);
        let mut cb = c0.clone();
        unmqr_ib(b, ib, &a_b, &t_b, &mut cb, Trans::Trans);
        let d: Vec<f64> = cu.iter().zip(&cb).map(|(x, y)| x - y).collect();
        prop_assert!(norm(&d) < 1e-10 * norm(&c0).max(1.0), "ib={ib} b={b}");
    }
}
