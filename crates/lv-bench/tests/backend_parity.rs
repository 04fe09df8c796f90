//! Cross-tier parity: the analytical fast tier must stay inside the
//! calibration envelope committed in `lv_models::calib`, and must agree
//! with the cycle-accurate tier on algorithm rankings, over the same
//! structured shape grid that `lv-check` uses for kernel conformance.
//!
//! The sweep is `lv_check::run_tier_check`, the one behind
//! `repro check --backend fast`, which runs and judges both tiers through
//! the calibration sweep (`calib::measure_point`, `calib::summarize`)
//! behind `repro calibrate`. If the fast model or the machine's timing
//! changes, either the predictions stay inside the stored per-regime
//! bound or this fails — the committed table must then be regenerated
//! with `repro calibrate`.

use lv_check::{run_tier_check, CheckConfig};

/// Every fast-tier prediction on the conformance grid is inside its
/// regime's committed error bound, and the argmin-algorithm ranking
/// agrees with the cycle tier on >= 95% of (machine, shape) groups.
/// (`calib::measure_point` itself panics if the tiers disagree on which
/// algorithms apply to a cell.)
#[test]
fn fast_tier_stays_inside_the_calibrated_envelope() {
    let report = run_tier_check(&CheckConfig::default());
    assert!(
        report.pass(),
        "fast-tier predictions outside the committed envelope:\n{}",
        report.render()
    );
    let s = &report.summary;
    assert!(
        s.ranking_agreement() >= 0.95,
        "cross-tier ranking agreement {}/{} = {:.1}% < 95%",
        s.rank_agree,
        s.ranked_groups,
        100.0 * s.ranking_agreement()
    );
}
