//! Property test for the placement ring: **minimal remap** — a fleet of `n`
//! without one of its workers remaps only the keys that worker owned, about
//! `keys/n` and never more than `keys/n` plus vnode-variance slack. Worker
//! ids are sparse (decommissioned ids leave holes in real fleets). This is
//! what keeps per-worker fragment caches warm across fleet changes: the
//! scan scheduler and the drain-time cache migration both place by
//! [`HashRing`].

use proptest::prelude::*;

use presto_common::ring::DEFAULT_VNODES;
use presto_common::rng::mix64;
use presto_common::HashRing;

fn arb_fleet() -> impl Strategy<Value = Vec<u32>> {
    // 2..=32 distinct worker ids drawn from a sparse space, so ids are not
    // simply 0..n (decommissioned ids leave holes in real fleets)
    proptest::collection::vec(0u32..500, 2..33).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        if ids.len() < 2 {
            ids = vec![7, 11];
        }
        ids
    })
}

fn keys_from_seed(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let table = mix64(seed ^ i as u64) % 12;
            format!("/warehouse/t{table}/part-{i}")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn removing_one_worker_remaps_at_most_its_share(
        seed in any::<u64>(),
        fleet in arb_fleet(),
        victim_pick in any::<proptest::sample::Index>(),
        nkeys in 200usize..600,
    ) {
        let ring = HashRing::with_workers(seed, DEFAULT_VNODES, fleet.iter().copied());
        let victim = fleet[victim_pick.index(fleet.len())];
        // the survivors-only ring a graceful drain migrates cache entries by
        let after = HashRing::with_workers(
            seed,
            DEFAULT_VNODES,
            fleet.iter().copied().filter(|w| *w != victim),
        );

        let keys = keys_from_seed(seed, nkeys);
        let mut moved = 0usize;
        for key in &keys {
            let before = ring.owner(key).unwrap();
            let now = after.owner(key).unwrap();
            if before != victim {
                // a surviving worker's keys must not move at all
                prop_assert_eq!(now, before, "{} moved without cause", key);
            } else {
                prop_assert!(now != victim);
                moved += 1;
            }
        }
        // expected share is nkeys / n; allow 3x for vnode placement variance
        let bound = nkeys * 3 / fleet.len();
        prop_assert!(
            moved <= bound,
            "remapped {} of {} keys, bound {} (fleet {})",
            moved, nkeys, bound, fleet.len()
        );
    }
}
