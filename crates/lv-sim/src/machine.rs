//! The simulated long-vector machine.
//!
//! Kernels are written against this type exactly like intrinsics code: they
//! request a vector length with [`Machine::vsetvl`], move data between host
//! slices and the 32-entry vector register file, and issue arithmetic on
//! registers. Every operation
//!
//! 1. **computes** the real f32 result (so kernels are functionally testable
//!    against golden references), and
//! 2. **advances the cycle model**: issue + startup + `ceil(vl / elems-per-
//!    cycle)` beats for arithmetic, plus per-cache-line costs for memory
//!    operations routed through a real set-associative L1/L2 hierarchy.
//!
//! A [timing-only](Machine::timing_only) machine does step 2 alone. It
//! skips each operation's f32 data movement and arithmetic but keeps every
//! length and bounds assert, every [`Stats`] counter and every cache
//! access. That is sound because no kernel branches on data values, so
//! dense-CNN cycle counts are data-independent; the parity tests check it
//! op by op (`tests/timing_only.rs`) and kernel by kernel (`lv-models`).
//! Callers that discard outputs (the sweep cells behind
//! `lv_models::measure_group`) run timing-only; everything that reads
//! outputs (conformance checks, network runs, kernel tests) computes.
//!
//! One machine can also simulate a [group](Machine::new_group) of design
//! points that differ only in their L2. No kernel reads the L2 geometry
//! and the L1 never depends on it, so the instruction stream, the
//! registers, the L1 and the L2 *access* stream are the same for every
//! member and run once. Each extra L2 is a shadow with its own tags,
//! demand `mem_lines`, L2 counters and a signed cycle difference from
//! the first member. Per memory operation a shadow books exactly what a
//! lone machine with its L2 would charge: `max(cost, beats)` for
//! `vle32`/`vse32` and the plain line sum for every other access. Software
//! prefetch asks the L2 whether a line is resident, so prefetching
//! configs only form groups of one. [`Machine::new`] is the group of one.
//!
//! Host slice addresses double as simulated physical addresses, so cache
//! behaviour reflects the kernels' true access patterns and footprints.

use lv_trace::{keys, SpanId, Tracer, TrackId};

use crate::cache::Cache;
use crate::config::{ConfigError, MachineConfig, VpuStyle, COST, L1, LINE_BYTES};
use crate::lint::LintState;
use crate::stats::Stats;

/// Handle to one of the 32 architectural vector registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VReg(pub u8);

/// Number of architectural vector registers (RVV and SVE both have 32).
pub const NUM_VREGS: usize = 32;

/// The line holding byte address `addr`.
#[inline]
fn line_of(addr: usize) -> u64 {
    addr as u64 / LINE_BYTES
}

/// An extra L2 of a [group](Machine::new_group): it sees every L2 access
/// of the first member and books what its own hits and misses would cost.
struct Shadow {
    l2: Cache,
    /// Demand lines this L2 fetched from main memory.
    mem_lines: u64,
    /// Cycles this member has been charged minus the first member's.
    cycle_diff: i64,
    /// `cycle_diff` at the start of the current unit-stride access.
    mark: i64,
}

/// The simulated machine: vector register file, cache hierarchy, cycle model.
pub struct Machine {
    cfg: MachineConfig,
    mvl: usize,
    vl: usize,
    vregs: Box<[f32]>,
    scratch: Box<[f32]>,
    l1: Cache,
    l2: Cache,
    /// The L2s of the group's other members (empty for a lone machine).
    shadows: Vec<Shadow>,
    stats: Stats,
    /// f32 elements retired per cycle by the arithmetic pipes.
    epc: u64,
    /// `ceil(vl / epc)`: execution beats of one instruction at the current
    /// `vl`, refreshed by `vsetvl` and `reset`.
    beats: u64,
    /// `ceil(vl / gather_elems_per_cycle)`: gather/segment sequencing
    /// cycles at the current `vl`, refreshed with `beats`.
    gather_beats: u64,
    /// Depth of `vredsum`'s reduction tree, `ceil(log2(epc))`.
    redsum_tree: u64,
    /// Whether operations move and compute f32 data (`false` on a
    /// [timing-only](Machine::timing_only) machine).
    compute: bool,
    /// Optional L2 access trace: `(cycle, line)` per L2 access, for the
    /// shared-cache contention replay (`lv-serving`).
    l2_trace: Option<Vec<(u64, u64)>>,
    /// Span tracer; disabled by default so the cycle model's hot path pays
    /// a single branch. Timestamps are simulated cycles (1 trace-µs/cycle).
    tracer: Tracer,
    /// The `(pid, tid)` this machine's regions land on.
    trace_track: TrackId,
    /// Open region spans with the stats snapshot at their begin, so the
    /// delta can be attached at end.
    region_stack: Vec<(SpanId, Stats)>,
    /// Opt-in invariant checker (see [`crate::lint`]); `None` (the
    /// default) costs one predictable branch per operation and leaves
    /// timing and results bit-identical to a lint-free build.
    lint: Option<Box<LintState>>,
}

impl Machine {
    /// Build a machine for a hardware design point, panicking on an
    /// invalid one (see [`Machine::try_new`] for the fallible form).
    pub fn new(cfg: MachineConfig) -> Self {
        Self::new_group(&[cfg])
    }

    /// Build a machine, rejecting design points that fail
    /// [`MachineConfig::validate`] — the same shapes the opt-in invariant
    /// lint would trip over mid-run (zero-set caches, lanes that can never
    /// retire, non-power-of-two vector lengths).
    pub fn try_new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        Self::try_new_group(&[cfg])
    }

    /// Build one machine for a group of design points that differ only in
    /// their L2 (see the module docs), panicking on an invalid group;
    /// [`Machine::try_new_group`] is the fallible form. The first config
    /// is the primary: [`Machine::stats`], [`Machine::config`], the lint
    /// and the tracer see it, and [`Machine::group_stats`] reports every
    /// member in `cfgs` order.
    pub fn new_group(cfgs: &[MachineConfig]) -> Self {
        Self::try_new_group(cfgs).unwrap_or_else(|e| panic!("invalid machine config: {e}"))
    }

    /// [`Machine::new_group`], rejecting an empty group, a member that
    /// fails [`MachineConfig::validate`] or differs from the first outside
    /// the L2, and software prefetch in a group of more than one.
    pub fn try_new_group(cfgs: &[MachineConfig]) -> Result<Self, ConfigError> {
        let (&cfg, rest) = cfgs.split_first().ok_or(ConfigError::EmptyGroup)?;
        cfg.validate()?;
        for (i, other) in rest.iter().enumerate() {
            other.validate()?;
            if (MachineConfig { l2: cfg.l2, ..*other }) != cfg {
                return Err(ConfigError::GroupMismatch { member: i + 1 });
            }
        }
        if cfg.sw_prefetch && !rest.is_empty() {
            return Err(ConfigError::GroupPrefetch);
        }
        let shadows = rest
            .iter()
            .map(|c| Shadow { l2: Cache::new(c.l2), mem_lines: 0, cycle_diff: 0, mark: 0 })
            .collect();
        let mvl = cfg.vlen_elems();
        let epc = cfg.elems_per_cycle() as u64;
        let mut m = Self {
            mvl,
            vl: mvl,
            vregs: vec![0.0; NUM_VREGS * mvl].into_boxed_slice(),
            scratch: vec![0.0; 8 * mvl].into_boxed_slice(),
            l1: Cache::new(L1),
            l2: Cache::new(cfg.l2),
            shadows,
            stats: Stats::default(),
            epc,
            beats: 0,
            gather_beats: 0,
            redsum_tree: (epc as f64).log2().ceil() as u64,
            compute: true,
            l2_trace: None,
            tracer: Tracer::disabled(),
            trace_track: TrackId::new(1, 0),
            region_stack: Vec::new(),
            lint: None,
            cfg,
        };
        m.refresh_vl_costs();
        Ok(m)
    }

    /// Turn this machine timing-only: operations skip their f32 data
    /// movement and arithmetic (registers and destination buffers keep
    /// whatever they held; [`Machine::vredsum`] returns 0) but charge
    /// exactly the cycles, counters and cache accesses a computing machine
    /// would, and keep every length and bounds assert. For callers that
    /// discard the outputs; see the module docs for why it is sound.
    pub fn timing_only(mut self) -> Self {
        self.compute = false;
        self
    }

    // ---------------------------------------------------------------- lint

    /// Arm the machine invariant checker. Every subsequent operation
    /// validates cycle monotonicity, the `vsetvl` grant contract, cache /
    /// DRAM accounting reconciliation and uninitialized-lane reads,
    /// panicking with context on the first violation. The lint never
    /// charges cycles or touches [`Stats`], so cycle counts are identical
    /// with it on or off.
    pub fn enable_lint(&mut self) {
        self.lint = Some(Box::new(LintState::new()));
    }

    /// The armed invariant checker, if any (tests use
    /// [`LintState::checks`] to assert the lint actually ran).
    pub fn lint(&self) -> Option<&LintState> {
        self.lint.as_deref()
    }

    #[inline]
    fn lint_read(&mut self, r: VReg, op: &'static str) {
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_read(r.0, self.vl, op);
        }
    }

    #[inline]
    fn lint_write(&mut self, r: VReg) {
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_write(r.0, self.vl);
        }
    }

    /// Run the post-operation invariant sweep (no-op when disarmed).
    #[inline]
    fn lint_tick(&mut self) {
        if self.lint.is_some() {
            let s = self.stats();
            let vpu = self.cfg.vpu;
            if let Some(l) = self.lint.as_deref_mut() {
                l.on_tick(&s, vpu);
            }
        }
    }

    // ------------------------------------------------------------- tracing

    /// Attach a span tracer; the machine's regions land on `track` with
    /// timestamps in simulated cycles (1 trace-µs ≡ 1 cycle). Tracing never
    /// charges cycles or touches [`Stats`], so counted results are
    /// bit-identical with tracing on or off.
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.trace_track = track;
    }

    /// The attached tracer (disabled unless [`Machine::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether an enabled tracer is attached.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Open a traced region (kernel, layer, network) at the current cycle.
    /// A no-op without an enabled tracer.
    pub fn region_begin(&mut self, name: &str) {
        if !self.tracer.is_enabled() {
            return;
        }
        let before = self.stats();
        let span = self.tracer.begin(self.trace_track, name, self.stats.cycles as f64);
        self.region_stack.push((span, before));
    }

    /// Close the innermost open region, attaching the region's [`Stats`]
    /// delta (cycles, FLOPs, DRAM bytes, avg-VL, miss rates) plus `extra`
    /// arguments to its span. A no-op without an enabled tracer.
    pub fn region_end_with(&mut self, extra: lv_trace::Args) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some((span, before)) = self.region_stack.pop() else { return };
        let delta = self.stats().delta_since(&before);
        let mut args: lv_trace::Args = vec![
            (keys::CYCLES.to_string(), delta.cycles.into()),
            (keys::FLOPS.to_string(), delta.flops.into()),
            (keys::DRAM_BYTES.to_string(), delta.dram_bytes().into()),
            (keys::AVG_VL.to_string(), delta.avg_vl().into()),
            (keys::L1_MISS_RATE.to_string(), delta.l1_miss_rate().into()),
            (keys::L2_MISS_RATE.to_string(), delta.l2_miss_rate().into()),
            (keys::VECTOR_INSTRS.to_string(), delta.vector_instrs.into()),
            (
                keys::BW_UTIL.to_string(),
                (delta.dram_bytes_per_cycle() / self.cfg.peak_dram_bytes_per_cycle()).into(),
            ),
        ];
        args.extend(extra);
        self.tracer.end_args(span, self.stats.cycles as f64, args);
    }

    /// [`Machine::region_end_with`] without extra arguments.
    pub fn region_end(&mut self) {
        self.region_end_with(Vec::new());
    }

    /// Start recording every L2 access as a `(cycle, line)` pair. Used by
    /// the co-location contention study; costs memory proportional to the
    /// run's L2 traffic, so prefer scaled-down layers. Single-config only:
    /// the cycle stamps would differ between the members of a group.
    pub fn enable_l2_trace(&mut self) {
        assert!(self.shadows.is_empty(), "the L2 trace needs a single-config machine");
        self.l2_trace = Some(Vec::new());
    }

    /// Take the recorded L2 trace (empty if tracing was never enabled).
    pub fn take_l2_trace(&mut self) -> Vec<(u64, u64)> {
        self.l2_trace.take().unwrap_or_default()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Maximum vector length in f32 elements.
    pub fn mvl(&self) -> usize {
        self.mvl
    }

    /// Currently granted vector length in f32 elements.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Snapshot of all counters (of the first member, for a group).
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.l1_accesses = self.l1.accesses();
        s.l1_misses = self.l1.misses();
        s.l2_accesses = self.l2.accesses();
        s.l2_misses = self.l2.misses();
        s
    }

    /// Counters of every group member in construction order: the first is
    /// [`Machine::stats`], each shadow differs from it only in `cycles`,
    /// `mem_lines` and the L2 counters.
    pub fn group_stats(&self) -> Vec<Stats> {
        let first = self.stats();
        let shadows = self.shadows.iter().map(|sh| Stats {
            cycles: first.cycles.wrapping_add_signed(sh.cycle_diff),
            mem_lines: sh.mem_lines,
            l2_accesses: sh.l2.accesses(),
            l2_misses: sh.l2.misses(),
            ..first
        });
        std::iter::once(first).chain(shadows).collect()
    }

    /// Clear timing counters and cache contents (cold start).
    pub fn reset(&mut self) {
        self.stats = Stats::default();
        self.l1.reset();
        self.l2.reset();
        for sh in &mut self.shadows {
            sh.l2.reset();
            sh.mem_lines = 0;
            sh.cycle_diff = 0;
        }
        self.vl = self.mvl;
        self.refresh_vl_costs();
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_reset();
        }
    }

    /// Recompute the per-instruction costs that depend only on `vl`, so
    /// the hot path reads them instead of dividing on every operation.
    #[inline]
    fn refresh_vl_costs(&mut self) {
        let vl = self.vl as u64;
        self.beats = vl.div_ceil(self.epc);
        self.gather_beats = vl.div_ceil(COST.gather_elems_per_cycle.max(1));
    }

    // ---------------------------------------------------------------- core

    /// `vsetvl`: request `avl` elements, get `min(avl, MVL)` granted.
    #[inline]
    pub fn vsetvl(&mut self, avl: usize) -> usize {
        debug_assert!(avl > 0, "vsetvl with zero avl");
        let vl = avl.min(self.mvl);
        if vl != self.vl {
            self.vl = vl;
            self.refresh_vl_costs();
        }
        self.stats.cycles += COST.vsetvl;
        self.stats.vsetvls += 1;
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_vsetvl(avl, self.vl, self.mvl);
        }
        self.lint_tick();
        self.vl
    }

    #[inline]
    fn reg(&self, r: VReg) -> &[f32] {
        let base = r.0 as usize * self.mvl;
        &self.vregs[base..base + self.vl]
    }

    /// The live elements of destination register `r`, or `None` on a
    /// timing-only machine (which writes no data).
    #[inline]
    fn reg_mut(&mut self, r: VReg) -> Option<&mut [f32]> {
        if !self.compute {
            return None;
        }
        let base = r.0 as usize * self.mvl;
        Some(&mut self.vregs[base..base + self.vl])
    }

    /// Split the register file into one mutable destination and up to two
    /// shared sources, or `None` on a timing-only machine. Panics if the
    /// destination aliases a source in either mode (RVV allows it, but our
    /// kernels never rely on it and aliasing here would be a kernel bug).
    #[inline]
    fn reg_dss(&mut self, d: VReg, a: VReg, b: VReg) -> Option<(&mut [f32], &[f32], &[f32])> {
        assert!(d != a && d != b, "destination register aliases a source");
        if !self.compute {
            return None;
        }
        let vl = self.vl;
        let mvl = self.mvl;
        let ptr = self.vregs.as_mut_ptr();
        // SAFETY: d, a, b index disjoint mvl-sized segments of `vregs`
        // (d != a, d != b asserted above; a == b is fine for shared refs),
        // and vl <= mvl so the slices stay inside their segments.
        unsafe {
            Some((
                std::slice::from_raw_parts_mut(ptr.add(d.0 as usize * mvl), vl),
                std::slice::from_raw_parts(ptr.add(a.0 as usize * mvl), vl),
                std::slice::from_raw_parts(ptr.add(b.0 as usize * mvl), vl),
            ))
        }
    }

    // ------------------------------------------------------------- timing

    #[inline]
    fn arith_cost(&mut self, n_instr: u64) {
        self.stats.cycles += n_instr * (COST.issue + COST.arith_startup + self.beats);
        self.stats.vector_instrs += n_instr;
        self.stats.vector_elems += n_instr * self.vl as u64;
    }

    /// Charge the cost of one line moving through the hierarchy, filling
    /// caches on the way. Returns cycles.
    #[inline]
    fn line_cost(&mut self, line: u64, prefetched: bool) -> u64 {
        let c = COST;
        // Vector memory on a decoupled VPU bypasses L1 and talks to L2.
        if self.cfg.vpu == VpuStyle::Integrated && self.l1.access_line(line) {
            return c.l1_line;
        }
        if let Some(t) = self.l2_trace.as_mut() {
            t.push((self.stats.cycles, line));
        }
        let (hit, miss) = if prefetched {
            let d = c.prefetch_discount;
            ((c.l2_line / d).max(1), (c.mem_line / d).max(1))
        } else {
            (c.l2_line.max(1), c.mem_line.max(1))
        };
        // Prefetched fills are already counted in `prefetch_lines`;
        // counting them as demand too would double-book the DRAM bytes.
        self.l2_access(line, hit, miss, !prefetched)
    }

    /// Access `line` in every member's L2; the line costs `hit` cycles on
    /// an L2 hit and `miss` on a miss (a `demand` miss also counts a
    /// memory line). Returns the first member's cost; each shadow books
    /// the difference its own outcome makes.
    #[inline]
    fn l2_access(&mut self, line: u64, hit: u64, miss: u64, demand: bool) -> u64 {
        let cost = if self.l2.access_line(line) {
            hit
        } else {
            self.stats.mem_lines += u64::from(demand);
            miss
        };
        for sh in &mut self.shadows {
            let own = if sh.l2.access_line(line) {
                hit
            } else {
                sh.mem_lines += u64::from(demand);
                miss
            };
            sh.cycle_diff += own as i64 - cost as i64;
        }
        cost
    }

    /// The line cost of a scalar access, which always goes through L1.
    #[inline]
    fn scalar_line_cost(&mut self, line: u64) -> u64 {
        if self.l1.access_line(line) {
            COST.l1_line
        } else {
            self.l2_access(line, COST.l2_line, COST.mem_line, true)
        }
    }

    /// Touch a contiguous byte range and charge it as a unit-stride access
    /// does, `max(line costs, beats)`, to every member: a shadow's lines
    /// cost its own line sum, so its difference is re-settled under the
    /// same `max`.
    #[inline]
    fn charge_unit_stride(&mut self, addr: usize, bytes: usize) {
        for sh in &mut self.shadows {
            sh.mark = sh.cycle_diff;
        }
        let mut cost = 0;
        if bytes > 0 {
            for line in line_of(addr)..=line_of(addr + bytes - 1) {
                cost += self.line_cost(line, false);
            }
        }
        let beats = self.beats;
        self.stats.cycles += cost.max(beats);
        for sh in &mut self.shadows {
            let own = cost.wrapping_add_signed(sh.cycle_diff - sh.mark);
            sh.cycle_diff = sh.mark + own.max(beats) as i64 - cost.max(beats) as i64;
        }
    }

    /// Touch `n` elements `stride` bytes apart from `addr` (strided and
    /// gather accesses): a line is charged again only when it differs from
    /// the previous element's. Returns cycles.
    fn touch_elems(&mut self, addr: usize, stride: usize, n: usize) -> u64 {
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for i in 0..n {
            let line = line_of(addr + i * stride);
            if line != last_line {
                cost += self.line_cost(line, false);
                last_line = line;
            }
        }
        cost
    }

    /// Touch `n` contiguous segments of `seg` bytes, segment `s` at
    /// `addr + s * stride` bytes (segment loads and stores): every line of
    /// every segment, except that a segment starting on the line the
    /// previous one ended on does not charge it twice. Returns cycles.
    fn touch_segs(&mut self, addr: usize, seg: usize, stride: usize, n: usize) -> u64 {
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for s in 0..n {
            let a0 = addr + s * stride;
            for line in line_of(a0)..=line_of(a0 + seg - 1) {
                if line != last_line {
                    cost += self.line_cost(line, false);
                    last_line = line;
                }
            }
        }
        cost
    }

    #[inline]
    fn mem_instr_base(&mut self) {
        self.stats.cycles += COST.issue + COST.mem_startup;
        self.stats.vector_instrs += 1;
        self.stats.vector_elems += self.vl as u64;
    }

    // ------------------------------------------------- unit-stride memory

    /// `vle32.v`: unit-stride load of `vl` elements from `src[0..vl]`.
    #[inline]
    pub fn vle32(&mut self, vd: VReg, src: &[f32]) {
        let vl = self.vl;
        assert!(src.len() >= vl, "vle32 source too short: {} < {}", src.len(), vl);
        self.mem_instr_base();
        self.charge_unit_stride(src.as_ptr() as usize, vl * 4);
        if let Some(d) = self.reg_mut(vd) {
            d.copy_from_slice(&src[..vl]);
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vse32.v`: unit-stride store of `vl` elements to `dst[0..vl]`.
    #[inline]
    pub fn vse32(&mut self, vs: VReg, dst: &mut [f32]) {
        let vl = self.vl;
        assert!(dst.len() >= vl, "vse32 destination too short: {} < {}", dst.len(), vl);
        self.lint_read(vs, "vse32");
        self.mem_instr_base();
        self.charge_unit_stride(dst.as_ptr() as usize, vl * 4);
        if self.compute {
            dst[..vl].copy_from_slice(self.reg(vs));
        }
        self.lint_tick();
    }

    // ------------------------------------------------- strided and gather

    #[inline]
    fn gather_extra(&mut self) {
        self.stats.cycles += self.gather_beats;
    }

    /// `vlse32.v`: strided load, element `i` comes from `src[i * stride]`.
    pub fn vlse32(&mut self, vd: VReg, src: &[f32], stride: usize) {
        let vl = self.vl;
        assert!(stride > 0 && (vl - 1) * stride < src.len(), "vlse32 out of bounds");
        self.mem_instr_base();
        self.gather_extra();
        self.stats.cycles += self.touch_elems(src.as_ptr() as usize, stride * 4, vl);
        if let Some(d) = self.reg_mut(vd) {
            for (i, r) in d.iter_mut().enumerate() {
                *r = src[i * stride];
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vsse32.v`: strided store, element `i` goes to `dst[i * stride]`.
    pub fn vsse32(&mut self, vs: VReg, dst: &mut [f32], stride: usize) {
        let vl = self.vl;
        assert!(stride > 0 && (vl - 1) * stride < dst.len(), "vsse32 out of bounds");
        self.lint_read(vs, "vsse32");
        self.mem_instr_base();
        self.gather_extra();
        self.stats.cycles += self.touch_elems(dst.as_ptr() as usize, stride * 4, vl);
        if self.compute {
            for (i, &v) in self.reg(vs).iter().enumerate() {
                dst[i * stride] = v;
            }
        }
        self.lint_tick();
    }

    /// Segmented load: fills the register with `nsegs` segments of
    /// `seg_len` contiguous elements, segment `s` starting at
    /// `src[s * seg_stride]`. Requires `vl == nsegs * seg_len`.
    ///
    /// `seg_stride == 0` replicates the same segment `nsegs` times (used by
    /// the Direct kernel to broadcast a weight row across output pixels).
    /// Models an RVV segment/indexed load.
    pub fn vload_seg(
        &mut self,
        vd: VReg,
        src: &[f32],
        seg_len: usize,
        seg_stride: usize,
        nsegs: usize,
    ) {
        let vl = self.vl;
        assert_eq!(vl, nsegs * seg_len, "vload_seg: vl != nsegs * seg_len");
        assert!((nsegs - 1) * seg_stride + seg_len <= src.len(), "vload_seg out of bounds");
        self.mem_instr_base();
        self.gather_extra();
        self.stats.cycles +=
            self.touch_segs(src.as_ptr() as usize, seg_len * 4, seg_stride * 4, nsegs);
        if let Some(d) = self.reg_mut(vd) {
            for (s, seg) in d.chunks_exact_mut(seg_len).enumerate() {
                let off = s * seg_stride;
                seg.copy_from_slice(&src[off..off + seg_len]);
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// Segmented store: inverse of [`Machine::vload_seg`] (`seg_stride > 0`),
    /// i.e. [`Machine::vstore_seg_partial`] storing whole blocks.
    pub fn vstore_seg(
        &mut self,
        vs: VReg,
        dst: &mut [f32],
        seg_len: usize,
        seg_stride: usize,
        nsegs: usize,
    ) {
        assert!(seg_stride > 0, "vstore_seg with zero stride would overwrite");
        self.vstore_seg_partial(vs, dst, seg_len, seg_len, seg_stride, nsegs);
    }

    /// Masked segmented store: the register is viewed as `nsegs` blocks of
    /// `seg_block` elements, but only the first `seg_valid` elements of each
    /// block are stored (segment `s` lands at `dst[s * seg_stride ..]`).
    /// Models a predicated segment store; used for clipped Winograd output
    /// tiles. Requires `vl == nsegs * seg_block` and `seg_valid <= seg_block`.
    pub fn vstore_seg_partial(
        &mut self,
        vs: VReg,
        dst: &mut [f32],
        seg_valid: usize,
        seg_block: usize,
        seg_stride: usize,
        nsegs: usize,
    ) {
        let vl = self.vl;
        assert_eq!(vl, nsegs * seg_block, "segment store: vl != nsegs * seg_block");
        assert!(seg_valid <= seg_block && seg_valid > 0);
        assert!((nsegs - 1) * seg_stride + seg_valid <= dst.len(), "segment store out of bounds");
        self.lint_read(vs, "segment store");
        self.mem_instr_base();
        self.gather_extra();
        self.stats.cycles +=
            self.touch_segs(dst.as_ptr() as usize, seg_valid * 4, seg_stride * 4, nsegs);
        if self.compute {
            for (s, block) in self.reg(vs).chunks_exact(seg_block).enumerate() {
                let off = s * seg_stride;
                dst[off..off + seg_valid].copy_from_slice(&block[..seg_valid]);
            }
        }
        self.lint_tick();
    }

    /// Indexed load with repetition: element `i` is
    /// `src[(i / repeat) * stride]`, i.e. each gathered element is repeated
    /// `repeat` times. Used by the Direct kernel to pair one input pixel
    /// with a full row of output channels. Requires `repeat` divides `vl`.
    pub fn vgather_repeat(&mut self, vd: VReg, src: &[f32], stride: usize, repeat: usize) {
        let vl = self.vl;
        assert!(repeat > 0 && vl % repeat == 0, "vgather_repeat: repeat must divide vl");
        let npix = vl / repeat;
        assert!(npix == 0 || (npix - 1) * stride < src.len(), "vgather_repeat out of bounds");
        self.mem_instr_base();
        self.gather_extra();
        self.stats.cycles += self.touch_elems(src.as_ptr() as usize, stride * 4, npix);
        if let Some(d) = self.reg_mut(vd) {
            for (p, px) in d.chunks_exact_mut(repeat).enumerate() {
                px.fill(src[p * stride]);
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    // -------------------------------------------------------- arithmetic

    /// `vfmv.v.f`: splat a scalar into a register.
    #[inline]
    pub fn vfmv_v_f(&mut self, vd: VReg, x: f32) {
        self.arith_cost(1);
        if let Some(d) = self.reg_mut(vd) {
            d.fill(x);
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vmv.v.v`: register-to-register copy.
    #[inline]
    pub fn vmv(&mut self, vd: VReg, vs: VReg) {
        self.lint_read(vs, "vmv");
        self.arith_cost(1);
        if vd != vs {
            if let Some((d, a, _)) = self.reg_dss(vd, vs, vs) {
                d.copy_from_slice(a);
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmacc.vf`: `vd[i] += f * vs[i]` (the workhorse of every kernel).
    #[inline]
    pub fn vfmacc_vf(&mut self, vd: VReg, f: f32, vs: VReg) {
        self.lint_read(vd, "vfmacc.vf (accumulator)");
        self.lint_read(vs, "vfmacc.vf");
        self.arith_cost(1);
        self.stats.flops += 2 * self.vl as u64;
        if let Some((d, a, _)) = self.reg_dss(vd, vs, vs) {
            for (x, &y) in d.iter_mut().zip(a) {
                *x += f * y;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmacc.vv`: `vd[i] += va[i] * vb[i]`.
    #[inline]
    pub fn vfmacc_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(vd, "vfmacc.vv (accumulator)");
        self.lint_read(va, "vfmacc.vv");
        self.lint_read(vb, "vfmacc.vv");
        self.arith_cost(1);
        self.stats.flops += 2 * self.vl as u64;
        if let Some((d, a, b)) = self.reg_dss(vd, va, vb) {
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x += y * z;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfnmsac.vv`: `vd[i] -= va[i] * vb[i]`.
    #[inline]
    pub fn vfnmsac_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(vd, "vfnmsac.vv (accumulator)");
        self.lint_read(va, "vfnmsac.vv");
        self.lint_read(vb, "vfnmsac.vv");
        self.arith_cost(1);
        self.stats.flops += 2 * self.vl as u64;
        if let Some((d, a, b)) = self.reg_dss(vd, va, vb) {
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x -= y * z;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfadd.vv`: `vd[i] = va[i] + vb[i]`.
    #[inline]
    pub fn vfadd_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfadd.vv");
        self.lint_read(vb, "vfadd.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == va || vd == vb {
            let other = if vd == va { vb } else { va };
            if let Some((d, o, _)) = self.reg_dss(vd, other, other) {
                for (x, &y) in d.iter_mut().zip(o) {
                    *x += y;
                }
            }
        } else if let Some((d, a, b)) = self.reg_dss(vd, va, vb) {
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x = y + z;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfsub.vv`: `vd[i] = va[i] - vb[i]` (vd must not alias sources).
    #[inline]
    pub fn vfsub_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfsub.vv");
        self.lint_read(vb, "vfsub.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if let Some((d, a, b)) = self.reg_dss(vd, va, vb) {
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x = y - z;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmul.vv`: `vd[i] = va[i] * vb[i]` (vd must not alias sources).
    #[inline]
    pub fn vfmul_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfmul.vv");
        self.lint_read(vb, "vfmul.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if let Some((d, a, b)) = self.reg_dss(vd, va, vb) {
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x = y * z;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmul.vf`: `vd[i] = f * vs[i]`; `vd == vs` allowed (in-place scale).
    #[inline]
    pub fn vfmul_vf(&mut self, vd: VReg, f: f32, vs: VReg) {
        self.lint_read(vs, "vfmul.vf");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == vs {
            for x in self.reg_mut(vd).into_iter().flatten() {
                *x *= f;
            }
        } else if let Some((d, a, _)) = self.reg_dss(vd, vs, vs) {
            for (x, &y) in d.iter_mut().zip(a) {
                *x = f * y;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfadd.vf`: `vd[i] = f + vs[i]`; `vd == vs` allowed.
    #[inline]
    pub fn vfadd_vf(&mut self, vd: VReg, f: f32, vs: VReg) {
        self.lint_read(vs, "vfadd.vf");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == vs {
            for x in self.reg_mut(vd).into_iter().flatten() {
                *x += f;
            }
        } else if let Some((d, a, _)) = self.reg_dss(vd, vs, vs) {
            for (x, &y) in d.iter_mut().zip(a) {
                *x = f + y;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmax.vv`: elementwise max (for max-pooling); `vd == va` allowed.
    #[inline]
    pub fn vfmax_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfmax.vv");
        self.lint_read(vb, "vfmax.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == va {
            if let Some((d, b, _)) = self.reg_dss(vd, vb, vb) {
                for (x, &z) in d.iter_mut().zip(b) {
                    *x = x.max(z);
                }
            }
        } else if let Some((d, a, b)) = self.reg_dss(vd, va, vb) {
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x = y.max(z);
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// Leaky-ReLU on a register: `x = if x < 0 { alpha * x } else { x }`.
    /// Modeled as two vector instructions (compare + predicated multiply).
    #[inline]
    pub fn vleaky(&mut self, vd: VReg, alpha: f32) {
        self.lint_read(vd, "vleaky");
        self.arith_cost(2);
        self.stats.flops += self.vl as u64;
        for x in self.reg_mut(vd).into_iter().flatten() {
            if *x < 0.0 {
                *x *= alpha;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfredsum`: horizontal sum of the register; costs an extra
    /// log-depth reduction tree on top of one pass through the lanes.
    pub fn vredsum(&mut self, vs: VReg) -> f32 {
        self.lint_read(vs, "vfredsum");
        self.stats.cycles += COST.issue + COST.arith_startup + self.beats + self.redsum_tree;
        self.stats.vector_instrs += 1;
        self.stats.vector_elems += self.vl as u64;
        self.stats.flops += self.vl as u64;
        self.lint_tick();
        if self.compute {
            self.reg(vs).iter().sum()
        } else {
            0.0
        }
    }

    /// Block transpose: `regs.len() == n` registers (2..=8), each lane
    /// block of `n` elements in register `r` holds row `r` of an `n x n`
    /// tile; after the call lane blocks hold the transposed tiles.
    /// Requires `vl % n == 0`. Cost models the zip/unzip ladder SVE and
    /// RVV use (`3n` register permutes for `n` registers).
    pub fn vtranspose_n(&mut self, regs: &[VReg]) {
        let n = regs.len();
        let vl = self.vl;
        assert!((2..=8).contains(&n), "vtranspose_n supports 2..=8 registers");
        assert_eq!(vl % n, 0, "vtranspose_n requires vl % n == 0");
        for &r in regs {
            self.lint_read(r, "vtranspose");
        }
        let permutes = (3 * n) as u64;
        self.stats.cycles += permutes * (COST.issue + self.beats);
        self.stats.vector_instrs += permutes;
        self.stats.vector_elems += permutes * vl as u64;
        if self.compute {
            self.transpose_blocks(regs);
        }
        for &r in regs {
            self.lint_write(r);
        }
        self.lint_tick();
    }

    /// The data half of [`Machine::vtranspose_n`].
    fn transpose_blocks(&mut self, regs: &[VReg]) {
        let n = regs.len();
        let mvl = self.mvl;
        let nblocks = self.vl / n;
        // Gather into scratch, transposed, then write back.
        for blk in 0..nblocks {
            for (r, reg) in regs.iter().enumerate() {
                let base = reg.0 as usize * mvl + blk * n;
                for col in 0..n {
                    self.scratch[(blk * n + col) * n + r] = self.vregs[base + col];
                }
            }
        }
        for blk in 0..nblocks {
            for (r, reg) in regs.iter().enumerate() {
                let base = reg.0 as usize * mvl + blk * n;
                let off = (blk * n + r) * n;
                self.vregs[base..base + n].copy_from_slice(&self.scratch[off..off + n]);
            }
        }
    }

    // ------------------------------------------------------------ scalar

    /// Charge `n` scalar ALU operations (loop control, address math that
    /// the vector unit cannot hide).
    #[inline]
    pub fn scalar_ops(&mut self, n: u64) {
        self.stats.cycles += n * COST.scalar_op;
        self.stats.scalar_ops += n;
    }

    /// Scalar load: reads `src[idx]` through the cache hierarchy (always
    /// via L1, even on a decoupled-VPU machine — the scalar core owns L1).
    pub fn scalar_load(&mut self, src: &[f32], idx: usize) -> f32 {
        let cost = self.scalar_line_cost(line_of(src.as_ptr() as usize + idx * 4));
        self.stats.cycles += COST.scalar_op + cost;
        self.stats.scalar_ops += 1;
        self.lint_tick();
        src[idx]
    }

    /// Scalar load whose ALU/issue cost is hidden under concurrent vector
    /// work (dual-issue in-order pipelines overlap scalar loads with vector
    /// arithmetic): only cache-miss cycles are charged, but the access still
    /// exercises the hierarchy so footprints are accounted. Used for the
    /// GEMM kernels' A-element broadcasts.
    pub fn scalar_load_hidden(&mut self, src: &[f32], idx: usize) -> f32 {
        let line = line_of(src.as_ptr() as usize + idx * 4);
        if !self.l1.access_line(line) {
            self.stats.cycles += self.l2_access(line, COST.l2_line, COST.mem_line, true);
        }
        self.stats.scalar_ops += 1;
        self.lint_tick();
        src[idx]
    }

    /// Scalar store: writes `dst[idx]` through the cache hierarchy (a
    /// timing-only machine checks the index and writes nothing).
    pub fn scalar_store(&mut self, dst: &mut [f32], idx: usize, v: f32) {
        let cost = self.scalar_line_cost(line_of(dst.as_ptr() as usize + idx * 4));
        self.stats.cycles += COST.scalar_op + cost;
        self.stats.scalar_ops += 1;
        let slot = &mut dst[idx];
        if self.compute {
            *slot = v;
        }
        self.lint_tick();
    }

    /// Scalar fused multiply-add, counted as one scalar op + 2 flops.
    #[inline]
    pub fn scalar_fma(&mut self) {
        self.stats.cycles += COST.scalar_op;
        self.stats.scalar_ops += 1;
        self.stats.flops += 2;
    }

    // ---------------------------------------------------------- prefetch

    /// Software prefetch of `bytes` starting at `&src[offset]`. On machines
    /// without effective software prefetch (`sw_prefetch == false`, as on
    /// the paper's RISC-VV toolchain and gem5 model) this is dropped by the
    /// "compiler" at zero cost. When honoured, lines are pulled into the
    /// hierarchy at a discounted (latency-hidden) cost.
    pub fn prefetch(&mut self, src: &[f32], offset: usize, bytes: usize) {
        if !self.cfg.sw_prefetch || bytes == 0 {
            return;
        }
        let end = (offset * 4 + bytes).min(src.len() * 4);
        let start = offset * 4;
        if start >= end {
            return;
        }
        let base = src.as_ptr() as usize;
        let mut cost = 0u64;
        for line in line_of(base + start)..=line_of(base + end - 1) {
            if !self.probe_resident(line) {
                self.stats.prefetch_lines += 1;
                cost += self.line_cost(line, true);
            }
        }
        self.stats.cycles += cost;
        self.lint_tick();
    }

    #[inline]
    fn probe_resident(&self, line: u64) -> bool {
        match self.cfg.vpu {
            VpuStyle::Integrated => self.l1.probe(line) || self.l2.probe(line),
            VpuStyle::Decoupled => self.l2.probe(line),
        }
    }

    /// Direct read access to a register's live elements (for tests).
    pub fn read_reg(&self, r: VReg) -> &[f32] {
        self.reg(r)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("vlen_bits", &self.cfg.vlen_bits)
            .field("vl", &self.vl)
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn mk(vlen: usize) -> Machine {
        Machine::new(MachineConfig::rvv_integrated(vlen, 1))
    }

    #[test]
    fn vsetvl_grants_min() {
        let mut m = mk(512); // 16 elems
        assert_eq!(m.vsetvl(100), 16);
        assert_eq!(m.vsetvl(7), 7);
    }

    /// One vector axpy pass, used by the tracing tests.
    fn axpy(m: &mut Machine) {
        let src: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 256];
        let mut i = 0;
        while i < src.len() {
            let vl = m.vsetvl(src.len() - i);
            m.vle32(VReg(0), &src[i..]);
            m.vfmv_v_f(VReg(1), 0.5);
            m.vfmacc_vf(VReg(1), 2.0, VReg(0));
            m.vse32(VReg(1), &mut dst[i..]);
            i += vl;
        }
    }

    #[test]
    fn tracing_does_not_change_counted_work() {
        let mut plain = mk(512);
        axpy(&mut plain);

        let mut traced = mk(512);
        traced.set_tracer(Tracer::enabled(), TrackId::new(1, 0));
        traced.region_begin("axpy");
        axpy(&mut traced);
        traced.region_end();

        // Compare the address-independent counters: the cache model keys on
        // host heap addresses, so the tracer's own allocations may legally
        // shift hit/miss timing between two in-process runs. A machine with
        // a *disabled* tracer allocates nothing, so whole processes stay
        // bit-identical with tracing off.
        let (p, t) = (plain.stats(), traced.stats());
        assert_eq!(p.flops, t.flops, "tracing must be invisible to counted work");
        assert_eq!(p.vector_instrs, t.vector_instrs);
        assert_eq!(p.vector_elems, t.vector_elems);
        assert_eq!(p.vsetvls, t.vsetvls);
        assert_eq!(p.scalar_ops, t.scalar_ops);
    }

    #[test]
    fn region_spans_carry_stats_deltas() {
        let mut m = mk(512);
        let tracer = Tracer::enabled();
        m.set_tracer(tracer.clone(), TrackId::new(1, 0));
        m.region_begin("outer");
        m.region_begin("axpy");
        axpy(&mut m);
        m.region_end();
        m.region_end_with(vec![(keys::KIND.to_string(), "test".into())]);

        let spans = tracer.snapshot_spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "axpy");
        // Span duration is exactly the cycles the region charged.
        let cyc = |s: &lv_trace::FinishedSpan| {
            s.arg(keys::CYCLES).and_then(lv_trace::ArgValue::as_f64).unwrap()
        };
        assert_eq!(inner.dur_us(), cyc(inner));
        assert_eq!(outer.dur_us(), cyc(outer));
        assert_eq!(cyc(outer), m.cycles() as f64);
        assert!(inner.arg(keys::FLOPS).is_some());
        assert!(inner.arg(keys::DRAM_BYTES).is_some());
        assert_eq!(outer.arg(keys::KIND).and_then(lv_trace::ArgValue::as_str), Some("test"));
    }

    #[test]
    fn regions_without_tracer_are_noops() {
        let mut m = mk(512);
        m.region_begin("ignored");
        axpy(&mut m);
        m.region_end();
        assert!(!m.trace_enabled());
        assert!(m.tracer().snapshot_spans().is_empty());
    }

    #[test]
    fn load_compute_store_roundtrip() {
        let mut m = mk(512);
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 16];
        m.vsetvl(16);
        m.vle32(VReg(1), &src);
        m.vfmul_vf(VReg(2), 2.0, VReg(1));
        m.vse32(VReg(2), &mut dst);
        let want: Vec<f32> = (0..16).map(|i| 2.0 * i as f32).collect();
        assert_eq!(dst, want);
        assert!(m.cycles() > 0);
    }

    #[test]
    fn fmacc_vf_computes() {
        let mut m = mk(512);
        m.vsetvl(4);
        m.vfmv_v_f(VReg(0), 1.0);
        m.vfmv_v_f(VReg(1), 3.0);
        m.vfmacc_vf(VReg(0), 2.0, VReg(1));
        assert_eq!(m.read_reg(VReg(0)), &[7.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn strided_load_gathers() {
        let mut m = mk(512);
        let src: Vec<f32> = (0..64).map(|i| i as f32).collect();
        m.vsetvl(8);
        m.vlse32(VReg(3), &src, 8);
        assert_eq!(m.read_reg(VReg(3)), &[0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0]);
    }

    #[test]
    fn seg_load_with_zero_stride_replicates() {
        let mut m = mk(512);
        let src = vec![1.0f32, 2.0, 3.0, 4.0];
        m.vsetvl(8);
        m.vload_seg(VReg(0), &src, 4, 0, 2);
        assert_eq!(m.read_reg(VReg(0)), &[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_repeat_expands_pixels() {
        let mut m = mk(512);
        let src: Vec<f32> = (0..32).map(|i| i as f32).collect();
        m.vsetvl(8);
        m.vgather_repeat(VReg(0), &src, 10, 4);
        assert_eq!(m.read_reg(VReg(0)), &[0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn transpose8_transposes_blocks() {
        let mut m = mk(512); // vl = 16 -> two 8x8 blocks
        m.vsetvl(16);
        let regs: [VReg; 8] = std::array::from_fn(|i| VReg(i as u8));
        // Fill: reg r, block b, col c = r*100 + b*10 + c
        for r in 0..8 {
            let vals: Vec<f32> =
                (0..16).map(|i| (r * 100 + (i / 8) * 10 + (i % 8)) as f32).collect();
            m.vle32(regs[r], &vals);
        }
        m.vtranspose_n(&regs);
        // After transpose: reg r, block b, col c = c*100 + b*10 + r
        for r in 0..8 {
            let got = m.read_reg(regs[r]).to_vec();
            for (i, &g) in got.iter().enumerate() {
                let (b, c) = (i / 8, i % 8);
                assert_eq!(g, (c * 100 + b * 10 + r) as f32, "reg {r} elem {i}");
            }
        }
    }

    #[test]
    fn repeated_load_hits_cache_and_costs_less() {
        let mut m = mk(512);
        let src = vec![1.0f32; 16];
        m.vsetvl(16);
        let c0 = m.cycles();
        m.vle32(VReg(0), &src);
        let cold = m.cycles() - c0;
        let c1 = m.cycles();
        m.vle32(VReg(0), &src);
        let warm = m.cycles() - c1;
        assert!(warm < cold, "warm {warm} should be cheaper than cold {cold}");
    }

    #[test]
    fn longer_vectors_amortize_startup() {
        // Same total work (4096 elements of FMA), two vector lengths.
        let run = |vlen: usize| {
            let mut m = mk(vlen);
            let mut rem = 4096usize;
            while rem > 0 {
                let vl = m.vsetvl(rem);
                m.vfmacc_vf(VReg(0), 1.5, VReg(1));
                rem -= vl;
            }
            m.cycles()
        };
        assert!(run(4096) < run(512));
    }

    #[test]
    fn decoupled_vpu_skips_l1() {
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        let src = vec![0.0f32; 16];
        m.vsetvl(16);
        m.vle32(VReg(0), &src);
        let s = m.stats();
        assert_eq!(s.l1_accesses, 0);
        assert!(s.l2_accesses > 0);
    }

    #[test]
    fn prefetch_noop_without_support() {
        let mut m = mk(512);
        let src = vec![0.0f32; 1024];
        let c0 = m.cycles();
        m.prefetch(&src, 0, 4096);
        assert_eq!(m.cycles(), c0);
        assert_eq!(m.stats().prefetch_lines, 0);
    }

    #[test]
    fn prefetch_warms_cache_when_supported() {
        let mut m = Machine::new(MachineConfig::a64fx_like());
        let src = vec![1.0f32; 256];
        m.prefetch(&src, 0, 1024);
        assert!(m.stats().prefetch_lines > 0);
        // A subsequent load should be all hits: compare against a cold run.
        let pre_cycles = m.cycles();
        m.vsetvl(16);
        m.vle32(VReg(0), &src);
        let warm_cost = m.cycles() - pre_cycles;

        let mut cold = Machine::new(MachineConfig::a64fx_like());
        cold.vsetvl(16);
        let c0 = cold.cycles();
        cold.vle32(VReg(0), &src);
        let cold_cost = cold.cycles() - c0;
        assert!(warm_cost < cold_cost);
    }

    #[test]
    fn stats_track_avg_vl() {
        let mut m = mk(1024); // 32 elems
        m.vsetvl(32);
        m.vfmv_v_f(VReg(0), 0.0);
        m.vsetvl(16);
        m.vfmv_v_f(VReg(0), 0.0);
        let s = m.stats();
        assert_eq!(s.vector_instrs, 2);
        assert!((s.avg_vl() - 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn aliasing_dest_panics() {
        let mut m = mk(512);
        m.vsetvl(4);
        m.vfmacc_vv(VReg(1), VReg(1), VReg(2));
    }

    // ------------------------------------------------------------ lint

    #[test]
    fn lint_accepts_clean_kernel_and_never_changes_cycles() {
        let mut plain = mk(512);
        axpy(&mut plain);

        let mut linted = mk(512);
        linted.enable_lint();
        axpy(&mut linted);

        // Like the tracer test above: the cache model keys on host heap
        // addresses, and `enable_lint` allocates, so cache-alignment-dependent
        // counters (cycles, per-line accesses) may legally shift between the
        // two in-process runs. Lint must leave the counted *work* untouched.
        let (p, l) = (plain.stats(), linted.stats());
        assert_eq!(p.flops, l.flops, "lint must be invisible to counted work");
        assert_eq!(p.vector_instrs, l.vector_instrs);
        assert_eq!(p.vector_elems, l.vector_elems);
        assert_eq!(p.vsetvls, l.vsetvls);
        assert_eq!(p.scalar_ops, l.scalar_ops);
        assert!(linted.lint().unwrap().checks() > 0, "lint must actually have run");
    }

    #[test]
    #[should_panic(expected = "uninitialized lanes")]
    fn lint_catches_uninitialized_accumulator_read() {
        let mut m = mk(512);
        m.enable_lint();
        m.vsetvl(8);
        // v0 was never written: reading it as the FMA accumulator observes
        // the register file's zero-fill, which no kernel may rely on.
        m.vfmacc_vf(VReg(0), 2.0, VReg(0));
    }

    #[test]
    #[should_panic(expected = "uninitialized lanes")]
    fn lint_catches_read_past_written_prefix() {
        let mut m = mk(512);
        m.enable_lint();
        m.vsetvl(4);
        m.vfmv_v_f(VReg(0), 1.0); // lanes 0..4 valid
        let mut dst = vec![0.0f32; 16];
        m.vsetvl(16);
        m.vse32(VReg(0), &mut dst); // reads lanes 0..16
    }

    #[test]
    fn lint_survives_reset() {
        let mut m = mk(512);
        m.enable_lint();
        m.vsetvl(8);
        m.vfmv_v_f(VReg(0), 1.0);
        m.reset(); // cycles back to zero must not trip monotonicity
        m.vsetvl(8);
        m.vfmv_v_f(VReg(1), 2.0);
        assert!(m.lint().unwrap().checks() > 0);
    }

    /// Regression (found by the lint's DRAM reconciliation sweep): lines
    /// pulled in by software prefetch were counted in *both*
    /// `prefetch_lines` and `mem_lines`, double-booking DRAM bytes.
    #[test]
    fn prefetched_lines_counted_once_in_dram_bytes() {
        let mut m = Machine::new(MachineConfig::a64fx_like());
        m.enable_lint();
        let src = vec![1.0f32; 256]; // 16 lines
        m.prefetch(&src, 0, 1024);
        let s = m.stats();
        assert!(s.prefetch_lines > 0);
        assert_eq!(s.mem_lines, 0, "prefetched lines must not be double-counted as demand");
        assert_eq!(s.l2_misses, s.mem_lines + s.prefetch_lines);

        // Demand-missing a fresh buffer afterwards still counts demand lines.
        let other = vec![2.0f32; 256];
        m.vsetvl(16);
        m.vle32(VReg(0), &other);
        let s = m.stats();
        assert!(s.mem_lines > 0);
        assert_eq!(s.l2_misses, s.mem_lines + s.prefetch_lines);
    }
}
