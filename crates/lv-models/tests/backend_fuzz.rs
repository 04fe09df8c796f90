//! Backend fuzz: random valid machine configurations and random conv
//! shapes must never panic either simulation tier, the two tiers must
//! agree on applicability, and the fast tier must stay physical
//! (positive cycles, bandwidth utilization <= 100%).

use lv_conv::model::workload;
use lv_conv::ALL_ALGOS;
use lv_models::BackendKind;
use lv_sim::fastmodel::evaluate;
use lv_sim::MachineConfig;
use lv_tensor::ConvShape;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Neither tier panics on any (valid config, valid shape, algo)
    /// triple, they agree on applicability, and both stay positive.
    #[test]
    fn tiers_never_panic_and_agree_on_applicability(
        vlen_exp in 8usize..13,
        dec in any::<bool>(),
        l2_exp in 0usize..5,
        ic in 1usize..6,
        oc in 1usize..8,
        ihw in 3usize..12,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let mut b = MachineConfig::builder().vlen_bits(1 << vlen_exp).l2_mib(1 << l2_exp);
        if dec {
            b = b.decoupled();
        }
        let cfg = b.build().expect("builder inputs are valid by construction");
        let k = k.min(ihw + 2 * pad);
        let s = ConvShape { ic, ih: ihw, iw: ihw, oc, kh: k, kw: k, stride, pad };
        for &algo in &ALL_ALGOS {
            let c = BackendKind::Cycle.measure(&cfg, &s, algo);
            let f = BackendKind::Fast.measure(&cfg, &s, algo);
            prop_assert_eq!(
                c.is_some(), f.is_some(),
                "applicability must match for {:?} on {:?}", algo, &s
            );
            if let (Some(c), Some(f)) = (c, f) {
                prop_assert!(c.cycles >= 1, "cycle tier must be positive");
                prop_assert!(f.cycles >= 1, "fast tier must be positive");
                prop_assert!((0.0..=1.0).contains(&f.l2_miss_rate), "{f:?}");
                prop_assert!(f.avg_vl >= 0.0 && f.avg_vl <= cfg.vlen_elems() as f64, "{f:?}");
            }
            // The raw prediction (before regime scaling) is physical too:
            // never zero/negative cycles, never >100% of DRAM bandwidth.
            if let Some(w) = workload(algo, &s, &cfg) {
                let p = evaluate(&cfg, &w, 1.0);
                prop_assert!(p.cycles >= 1 && p.raw_cycles > 0.0, "{p:?}");
                prop_assert!(p.bw_util.is_finite() && (0.0..=1.0).contains(&p.bw_util), "{p:?}");
            }
        }
    }
}
