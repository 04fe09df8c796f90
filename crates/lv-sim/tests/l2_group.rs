//! L2 groups: one [`Machine::new_group`] pass must report, for every
//! member, exactly the [`Stats`] a lone machine with that member's config
//! reports. Random op programs run on the group and on one machine per
//! member over the same caller-owned buffers (so over the same simulated
//! addresses), and every counter must match bit for bit.

mod ops;

use lv_sim::{CacheGeometry, ConfigError, Machine, MachineConfig, Stats, KIB, MIB};
use proptest::prelude::*;

/// L2 geometries for the group: a thrashing L2 smaller than the three
/// program buffers, differing ways, and the paper's 8-way sizes.
const L2S: [CacheGeometry; 5] = [
    CacheGeometry { size_bytes: 16 * KIB, ways: 4 },
    CacheGeometry { size_bytes: 32 * KIB, ways: 2 },
    CacheGeometry { size_bytes: 256 * KIB, ways: 16 },
    CacheGeometry { size_bytes: MIB, ways: 8 },
    CacheGeometry { size_bytes: 4 * MIB, ways: 8 },
];

fn with_l2(base: MachineConfig, l2: CacheGeometry) -> MachineConfig {
    MachineConfig { l2, ..base }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every member of a group of one to five charges what a lone machine
    /// charges, on both VPU styles, computing and timing-only, whichever
    /// member leads. Few lanes make a unit-stride access's beats exceed
    /// its line costs, so both sides of its `max(cost, beats)` rule run.
    #[test]
    fn group_members_match_lone_machines(
        seed in 0u64..u64::MAX,
        vlen_log in 0usize..4,
        lanes_log in 0usize..4,
        decoupled in any::<bool>(),
        timing_only in any::<bool>(),
        lead in 0usize..5,
        members in 1usize..6,
    ) {
        let preset =
            if decoupled { MachineConfig::rvv_decoupled } else { MachineConfig::rvv_integrated };
        let base = MachineConfig { lanes: 1 << lanes_log, ..preset(256 << vlen_log, 1) };
        // Rotate the geometries so each one leads some groups.
        let cfgs: Vec<MachineConfig> =
            (0..members).map(|i| with_l2(base, L2S[(lead + i) % L2S.len()])).collect();
        let prog = ops::program(seed, base.vlen_elems(), 600);
        let mode = |m: Machine| if timing_only { m.timing_only() } else { m };

        let mut bufs = ops::buffers();
        let mut group = mode(Machine::new_group(&cfgs));
        // A reset group is cold again, shadows included.
        ops::run(&mut group, &prog, &mut bufs);
        group.reset();
        let lead_stats = ops::run(&mut group, &prog, &mut bufs);
        let got = group.group_stats();
        prop_assert_eq!(got[0], lead_stats);
        let want: Vec<Stats> =
            cfgs.iter().map(|&c| ops::run(&mut mode(Machine::new(c)), &prog, &mut bufs)).collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn construction_rejects_groups_that_differ_outside_the_l2() {
    let base = MachineConfig::rvv_integrated(512, 1);
    let l2s = [base, MachineConfig::rvv_integrated(512, 16)];
    assert!(Machine::try_new_group(&l2s).is_ok());
    let others = [
        MachineConfig::rvv_integrated(1024, 16),
        MachineConfig::rvv_decoupled(512, 16),
        MachineConfig { lanes: 4, ..base },
        MachineConfig { sw_prefetch: true, ..base },
    ];
    for other in others {
        let err = Machine::try_new_group(&[base, base, other]).err();
        assert_eq!(err, Some(ConfigError::GroupMismatch { member: 2 }), "{other:?}");
    }
    assert_eq!(Machine::try_new_group(&[]).err(), Some(ConfigError::EmptyGroup));
    // Every member is validated, not only the first.
    let bad = MachineConfig { l2: CacheGeometry { size_bytes: 3 * MIB, ..base.l2 }, ..base };
    assert!(matches!(
        Machine::try_new_group(&[base, bad]).err(),
        Some(ConfigError::BadGeometry { .. })
    ));
}

#[test]
fn construction_rejects_prefetch_in_a_group_of_more_than_one() {
    let pf = MachineConfig::a64fx_like();
    assert!(Machine::try_new_group(&[pf]).is_ok(), "a lone prefetching machine is fine");
    let bigger = MachineConfig { l2: CacheGeometry { size_bytes: 32 * MIB, ..pf.l2 }, ..pf };
    assert_eq!(Machine::try_new_group(&[pf, bigger]).err(), Some(ConfigError::GroupPrefetch));
}

#[test]
#[should_panic(expected = "single-config")]
fn l2_trace_needs_a_single_config() {
    let cfgs = [MachineConfig::rvv_integrated(512, 1), MachineConfig::rvv_integrated(512, 4)];
    Machine::new_group(&cfgs).enable_l2_trace();
}
