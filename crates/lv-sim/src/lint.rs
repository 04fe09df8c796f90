//! Opt-in machine invariant checker ("lint").
//!
//! When enabled via [`crate::Machine::enable_lint`], every vector/scalar
//! operation is followed by a consistency sweep over the timing model's
//! own bookkeeping:
//!
//! - **Cycle monotonicity** — the cycle counter never moves backwards.
//! - **`vsetvl` contract** — the granted length is exactly
//!   `min(avl, MVL)`, strictly positive and never above MVL.
//! - **Cache accounting reconciliation** — misses never exceed accesses;
//!   on an integrated VPU every L2 access is caused by exactly one L1
//!   miss (`l2_accesses == l1_misses`), on a decoupled VPU vector traffic
//!   bypasses L1 (`l2_accesses >= l1_misses`); and every L2 miss is a
//!   DRAM line fill counted once, either as demand (`mem_lines`) or as
//!   software prefetch (`prefetch_lines`), so
//!   `l2_misses == mem_lines + prefetch_lines` and
//!   [`crate::Stats::dram_bytes`] equals `l2_misses * LINE_BYTES`.
//! - **Uninitialized-lane reads** — a register read at vector length `vl`
//!   requires that lanes `0..vl` were produced by an earlier write; reads
//!   beyond the widest write observe the register file's zero-fill, which
//!   no kernel may rely on.
//!
//! The lint holds no reference into [`crate::Stats`] and charges no
//! cycles, so a machine with the lint disabled (the default) is
//! bit-identical in timing and results to one that never had it; with
//! the lint *enabled*, cycle counts are still unchanged — violations
//! panic with context instead of being repaired.

use crate::config::VpuStyle;
use crate::machine::NUM_VREGS;
use crate::stats::Stats;

/// State carried by the invariant checker between operations.
#[derive(Debug, Clone)]
pub struct LintState {
    /// Per-register count of lanes ever written (the "valid prefix").
    valid: [usize; NUM_VREGS],
    /// Cycle counter at the previous sweep, for monotonicity.
    last_cycles: u64,
    /// Number of invariant sweeps performed (tests assert the lint ran).
    checks: u64,
}

impl LintState {
    pub(crate) fn new() -> Self {
        Self { valid: [0; NUM_VREGS], last_cycles: 0, checks: 0 }
    }

    /// How many invariant sweeps have run so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    pub(crate) fn on_write(&mut self, r: u8, vl: usize) {
        let v = &mut self.valid[r as usize];
        *v = (*v).max(vl);
    }

    pub(crate) fn on_read(&mut self, r: u8, vl: usize, op: &'static str) {
        self.checks += 1;
        let valid = self.valid[r as usize];
        assert!(
            vl <= valid,
            "lint: {op} reads v{r} lanes 0..{vl} but only lanes 0..{valid} were ever written \
             (uninitialized lanes observed)",
        );
    }

    pub(crate) fn on_vsetvl(&mut self, avl: usize, granted: usize, mvl: usize) {
        self.checks += 1;
        assert!(granted > 0, "lint: vsetvl({avl}) granted zero elements");
        assert!(granted <= mvl, "lint: vsetvl({avl}) granted {granted} > MVL {mvl}");
        assert_eq!(granted, avl.min(mvl), "lint: vsetvl({avl}) must grant min(avl, MVL)");
    }

    pub(crate) fn on_tick(&mut self, s: &Stats, vpu: VpuStyle) {
        self.checks += 1;
        assert!(
            s.cycles >= self.last_cycles,
            "lint: cycle counter moved backwards ({} -> {})",
            self.last_cycles,
            s.cycles
        );
        self.last_cycles = s.cycles;
        assert!(
            s.l1_misses <= s.l1_accesses,
            "lint: L1 misses ({}) exceed accesses ({})",
            s.l1_misses,
            s.l1_accesses
        );
        assert!(
            s.l2_misses <= s.l2_accesses,
            "lint: L2 misses ({}) exceed accesses ({})",
            s.l2_misses,
            s.l2_accesses
        );
        match vpu {
            VpuStyle::Integrated => assert_eq!(
                s.l2_accesses, s.l1_misses,
                "lint: integrated VPU must feed every L2 access from an L1 miss",
            ),
            VpuStyle::Decoupled => assert!(
                s.l2_accesses >= s.l1_misses,
                "lint: decoupled VPU L2 accesses ({}) below scalar L1 misses ({})",
                s.l2_accesses,
                s.l1_misses
            ),
        }
        assert_eq!(
            s.l2_misses,
            s.mem_lines + s.prefetch_lines,
            "lint: DRAM line accounting out of sync: l2_misses {} != mem_lines {} + \
             prefetch_lines {}",
            s.l2_misses,
            s.mem_lines,
            s.prefetch_lines
        );
    }

    /// [`crate::Machine::reset`] zeroes the cycle counter; re-arm the
    /// monotonicity baseline. Register contents survive a reset, so the
    /// valid prefixes are kept.
    pub(crate) fn on_reset(&mut self) {
        self.last_cycles = 0;
    }
}
