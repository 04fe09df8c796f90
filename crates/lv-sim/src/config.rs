//! Machine configuration: the hardware design points swept by the co-design study.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How the vector processing unit is attached to the memory hierarchy.
///
/// The paper evaluates both styles: Paper II simulates a *tightly integrated*
/// vector unit (reads through the L1 data cache, like ARM-SVE or the RVV unit
/// in the `plct-gem5` fork), while Paper I's RISC-VV model is a *decoupled*
/// VPU attached directly to the L2 cache through a small vector buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VpuStyle {
    /// Vector memory operations probe L1, then L2, then main memory.
    Integrated,
    /// Vector memory operations bypass L1 and probe L2 directly
    /// (Paper I: "the VPU is connected to the L2 cache").
    Decoupled,
}

/// Geometry of one cache level. Every level holds [`LINE_BYTES`] lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_BYTES as usize)
    }
}

/// Bytes per cache line, at both levels: the machine walks its memory
/// operations in these lines, and the analytical tier
/// ([`crate::fastmodel`]) and the kernels' workload models count lines
/// with the same constant.
pub const LINE_BYTES: u64 = 64;

/// The fixed core's L1 data cache: 64 KiB, 4-way, as in the paper's gem5
/// configuration. Only the integrated VPU and the scalar core use it.
pub const L1: CacheGeometry = CacheGeometry { size_bytes: 64 * KIB, ways: 4 };

/// Per-event cycle costs of the in-order timing model; [`COST`] is the
/// one table both tiers charge.
///
/// Every vector instruction costs `issue` plus a startup term plus a
/// throughput term; memory instructions additionally pay per cache line
/// touched, depending on where in the hierarchy the line hits.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Front-end issue cost per (vector) instruction.
    pub issue: u64,
    /// Extra startup beats for an arithmetic vector instruction
    /// (pipeline fill; amortized by long vectors).
    pub arith_startup: u64,
    /// Extra startup beats for a vector memory instruction
    /// (address generation, TLB, first beat).
    pub mem_startup: u64,
    /// Per-line cost when the line hits in L1 (integrated VPU only).
    pub l1_line: u64,
    /// Per-line cost when the line hits in L2 (pipelined occupancy, not
    /// full latency: consecutive lines of one vector access overlap).
    pub l2_line: u64,
    /// Per-line cost when the line comes from main memory. Bundles the
    /// pipelined DRAM latency with the bandwidth occupancy of a 64 B line
    /// at 12.8 GiB/s / 2 GHz = 6.4 B/cycle (i.e. >= 10 cycles of bus time).
    pub mem_line: u64,
    /// Divisor applied to `l2_line`/`mem_line` for lines brought in by a
    /// software prefetch (latency hidden; only bandwidth occupancy remains).
    pub prefetch_discount: u64,
    /// Additional per-element cycles for indexed/gather/segment accesses,
    /// expressed as elements processed per cycle (RVV gathers are slower
    /// than unit-stride accesses).
    pub gather_elems_per_cycle: u64,
    /// Cost of a scalar ALU operation.
    pub scalar_op: u64,
    /// Cost of the `vsetvl` instruction.
    pub vsetvl: u64,
}

/// The fixed core's cycle costs, charged by the [`Machine`](crate::Machine)
/// and priced by [`crate::fastmodel::evaluate`] and the kernels' workload
/// models. The values are calibrated so that the *ratios* the paper
/// reports (vector-length scaling, cache-size scaling, algorithm
/// crossovers) are reproduced; see `DESIGN.md` §4 for the substitution
/// rationale. Changing a value changes simulated cycles in both tiers, so
/// it needs a [`crate::TIMING_REV`] bump.
pub const COST: CostModel = CostModel {
    issue: 1,
    arith_startup: 2,
    mem_startup: 6,
    l1_line: 1,
    l2_line: 5,
    mem_line: 28,
    prefetch_discount: 3,
    gather_elems_per_cycle: 4,
    scalar_op: 1,
    vsetvl: 1,
};

/// One hardware design point: the axes the co-design study sweeps. The
/// core around them is fixed: [`COST`], [`L1`], [`LINE_BYTES`] and
/// [`CLOCK_HZ`]. Build one from a preset plus field updates and check it
/// with [`MachineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Vector register length in bits (512 .. 16384, powers of two).
    pub vlen_bits: usize,
    /// Number of physical vector lanes. Each lane retires two 32-bit
    /// elements per cycle (64-bit datapath), so f32 throughput is
    /// `2 * lanes` elements per cycle.
    pub lanes: usize,
    /// VPU attachment style (integrated vs decoupled).
    pub vpu: VpuStyle,
    /// L2 cache geometry (1 MiB .. 256 MiB swept by the paper).
    pub l2: CacheGeometry,
    /// Whether software prefetch instructions take effect. The RISC-VV
    /// toolchain in the paper ignores them (`false`); A64FX honours them.
    pub sw_prefetch: bool,
}

/// The simulated core clock in Hz: every report converts cycles to
/// seconds with it, and the DRAM roofline is expressed per cycle at it.
pub const CLOCK_HZ: f64 = 2e9;

/// Mebibyte helper for cache sizes.
pub const MIB: usize = 1024 * 1024;
/// Kibibyte helper for cache sizes.
pub const KIB: usize = 1024;

impl MachineConfig {
    /// The paper's Paper-II design points: tightly integrated RVV unit,
    /// 8 lanes, an 8-way L2 of `l2_mib` MiB, no software prefetch.
    pub fn rvv_integrated(vlen_bits: usize, l2_mib: usize) -> Self {
        Self {
            vlen_bits,
            lanes: 8,
            vpu: VpuStyle::Integrated,
            l2: CacheGeometry { size_bytes: l2_mib * MIB, ways: 8 },
            sw_prefetch: false,
        }
    }

    /// Paper-I style decoupled VPU attached to the L2 cache.
    pub fn rvv_decoupled(vlen_bits: usize, l2_mib: usize) -> Self {
        Self { vpu: VpuStyle::Decoupled, ..Self::rvv_integrated(vlen_bits, l2_mib) }
    }

    /// An A64FX-like configuration: integrated 512-bit unit with hardware
    /// prefetch honoured and a larger 8 MiB L2 (per-CMG share).
    pub fn a64fx_like() -> Self {
        Self {
            sw_prefetch: true,
            l2: CacheGeometry { size_bytes: 8 * MIB, ways: 16 },
            ..Self::rvv_integrated(512, 8)
        }
    }

    /// Maximum vector length in 32-bit elements.
    pub fn vlen_elems(&self) -> usize {
        self.vlen_bits / 32
    }

    /// f32 elements retired per cycle by the arithmetic pipes.
    pub fn elems_per_cycle(&self) -> usize {
        (2 * self.lanes).max(1)
    }

    /// Peak DRAM bandwidth in bytes/cycle: the 12.8 GiB/s channel the
    /// `mem_line` cost is calibrated against (see [`CostModel::mem_line`]),
    /// divided by the [`CLOCK_HZ`] clock. Basis for the
    /// bandwidth-utilisation figures in verify/roofline outputs.
    pub fn peak_dram_bytes_per_cycle(&self) -> f64 {
        12.8e9 / CLOCK_HZ
    }

    /// Check every invariant the timing model (and the opt-in lint) relies
    /// on. [`Machine::try_new`](crate::Machine::try_new) calls this, so an
    /// invalid design point is rejected at construction instead of tripping
    /// an assertion (or the lint) mid-simulation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vlen_bits < 64 || !self.vlen_bits.is_power_of_two() {
            return Err(ConfigError::BadVlen { vlen_bits: self.vlen_bits });
        }
        if self.lanes == 0 || self.lanes > self.vlen_elems() {
            return Err(ConfigError::BadLanes { lanes: self.lanes, max: self.vlen_elems() });
        }
        let g = self.l2;
        if g.size_bytes == 0 || g.ways == 0 {
            return Err(ConfigError::ZeroCache);
        }
        // `Cache` indexes sets by masking line numbers, so the size must be
        // a whole number of `ways x line` rows and the row count a power
        // of two.
        if g.size_bytes % (g.ways * LINE_BYTES as usize) != 0 || !g.sets().is_power_of_two() {
            return Err(ConfigError::BadGeometry { geometry: g });
        }
        Ok(())
    }

    /// Canonical textual key of this design point: every field that can
    /// change simulated timing, in a fixed order and format. Two configs
    /// are behaviourally identical to the timing model iff their keys are
    /// equal — this (plus [`crate::TIMING_REV`]) is what content-addressed
    /// result caches hash, so it must stay stable across host platforms
    /// and process runs (unlike `std::hash::Hash`). The key also spells
    /// out the fixed core ([`L1`], [`LINE_BYTES`], [`COST`] and the
    /// [`CLOCK_HZ`] clock as `ghz=2`), so changing a constant readdresses
    /// every cached cell.
    pub fn stable_key(&self) -> String {
        let c = &COST;
        format!(
            "vlen={};lanes={};vpu={};l1={}/{}/{LINE_BYTES};l2={}/{}/{LINE_BYTES};pf={};cost={},{},{},{},{},{},{},{},{},{};ghz={}",
            self.vlen_bits,
            self.lanes,
            match self.vpu {
                VpuStyle::Integrated => "int",
                VpuStyle::Decoupled => "dec",
            },
            L1.size_bytes,
            L1.ways,
            self.l2.size_bytes,
            self.l2.ways,
            u8::from(self.sw_prefetch),
            c.issue,
            c.arith_startup,
            c.mem_startup,
            c.l1_line,
            c.l2_line,
            c.mem_line,
            c.prefetch_discount,
            c.gather_elems_per_cycle,
            c.scalar_op,
            c.vsetvl,
            CLOCK_HZ / 1e9,
        )
    }
}

/// Stable 64-bit FNV-1a hash (the workspace's content-address primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Why a [`MachineConfig`] was rejected by [`MachineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Vector length must be a power of two and at least 64 bits (two f32
    /// elements), so `vsetvl` grants are well defined.
    BadVlen {
        /// The offending vector length.
        vlen_bits: usize,
    },
    /// Lane count must be 1..=VLEN/32: more lanes than elements can never
    /// retire and would divide by zero in the beat model.
    BadLanes {
        /// The offending lane count.
        lanes: usize,
        /// Largest valid count (VLEN in 32-bit elements).
        max: usize,
    },
    /// The L2 has zero capacity or ways.
    ZeroCache,
    /// The L2's size and ways do not describe a set-associative array of
    /// [`LINE_BYTES`] lines the cache model can index: the set count is not
    /// a power of two, or the size is not a whole number of sets.
    BadGeometry {
        /// The offending geometry.
        geometry: CacheGeometry,
    },
    /// A machine group needs at least one config.
    EmptyGroup,
    /// A group member differs from the first config outside the L2.
    GroupMismatch {
        /// Index of the offending config in the group.
        member: usize,
    },
    /// Software prefetch asks the L2 whether a line is resident, so a
    /// prefetching config cannot share a pass with other L2s.
    GroupPrefetch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadVlen { vlen_bits } => {
                write!(f, "vlen_bits = {vlen_bits}: must be a power of two >= 64")
            }
            ConfigError::BadLanes { lanes, max } => {
                write!(f, "lanes = {lanes}: must be in 1..={max} (VLEN/32)")
            }
            ConfigError::ZeroCache => write!(f, "L2 cache has a zero size or way count"),
            ConfigError::BadGeometry { geometry } => write!(
                f,
                "L2 geometry {}B/{}-way does not form a set-associative array of {LINE_BYTES}B lines",
                geometry.size_bytes, geometry.ways
            ),
            ConfigError::EmptyGroup => write!(f, "a machine group needs at least one config"),
            ConfigError::GroupMismatch { member } => {
                write!(f, "group member {member} differs from the first config outside the L2")
            }
            ConfigError::GroupPrefetch => {
                write!(f, "software prefetch reads L2 residency, so it cannot be grouped")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::rvv_integrated(512, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlen_elems_matches_bits() {
        assert_eq!(MachineConfig::rvv_integrated(512, 1).vlen_elems(), 16);
        assert_eq!(MachineConfig::rvv_integrated(16384, 1).vlen_elems(), 512);
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(L1.sets(), 256);
        assert_eq!(MachineConfig::default().l2.sets(), 2048);
    }

    #[test]
    fn builder_rejects_invalid_points() {
        let base = MachineConfig::default();
        assert_eq!(
            MachineConfig { vlen_bits: 768, ..base }.validate(),
            Err(ConfigError::BadVlen { vlen_bits: 768 })
        );
        assert_eq!(
            MachineConfig { vlen_bits: 32, ..base }.validate(),
            Err(ConfigError::BadVlen { vlen_bits: 32 })
        );
        // lanes > VLEN/32 can never retire a full beat.
        assert_eq!(
            MachineConfig { lanes: 32, ..base }.validate(),
            Err(ConfigError::BadLanes { lanes: 32, max: 16 })
        );
        assert_eq!(
            MachineConfig { lanes: 0, ..base }.validate(),
            Err(ConfigError::BadLanes { lanes: 0, max: 16 })
        );
        assert_eq!(MachineConfig::rvv_integrated(512, 0).validate(), Err(ConfigError::ZeroCache));
        let no_ways = MachineConfig { l2: CacheGeometry { ways: 0, ..base.l2 }, ..base };
        assert_eq!(no_ways.validate(), Err(ConfigError::ZeroCache));
        let bad = CacheGeometry { size_bytes: 100, ways: 3 };
        assert_eq!(
            MachineConfig { l2: bad, ..base }.validate(),
            Err(ConfigError::BadGeometry { geometry: bad })
        );
        // Errors render a readable reason.
        let msg = ConfigError::BadLanes { lanes: 32, max: 16 }.to_string();
        assert!(msg.contains("32") && msg.contains("16"), "{msg}");
        // The paper's design points pass.
        let lanes = MachineConfig { lanes: 4, ..MachineConfig::rvv_decoupled(2048, 1) };
        for cfg in [
            MachineConfig::rvv_integrated(4096, 64),
            MachineConfig::rvv_decoupled(8192, 256),
            MachineConfig::a64fx_like(),
            lanes,
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
    }

    /// Regression: `validate` used to accept geometries that `Cache::new`
    /// rejects or silently truncates.
    #[test]
    fn builder_rejects_geometries_the_cache_cannot_index() {
        let base = MachineConfig::default();
        // 3 MiB / (8 x 64 B) = 6144 sets: not a power of two.
        let three = MachineConfig::rvv_integrated(512, 3);
        assert!(matches!(three.validate(), Err(ConfigError::BadGeometry { .. })));
        // A size that is not a multiple of ways x line.
        let ragged = CacheGeometry { size_bytes: MIB + 64, ways: 8 };
        assert!(matches!(
            MachineConfig { l2: ragged, ..base }.validate(),
            Err(ConfigError::BadGeometry { .. })
        ));
        // So construction reports the error instead of panicking.
        assert!(matches!(crate::Machine::try_new(three), Err(ConfigError::BadGeometry { .. })));
        // Power-of-two set counts with non-power-of-two ways stay valid.
        let six = CacheGeometry { size_bytes: 6 * 64 * 256, ways: 6 };
        assert!(MachineConfig { l2: six, ..base }.validate().is_ok());
    }

    #[test]
    fn stable_key_separates_timing_relevant_fields() {
        let a = MachineConfig::rvv_integrated(512, 1);
        // Pinned: every cached cell's address hashes this text.
        assert_eq!(
            a.stable_key(),
            "vlen=512;lanes=8;vpu=int;l1=65536/4/64;l2=1048576/8/64;pf=0;\
             cost=1,2,6,1,5,28,3,4,1,1;ghz=2"
        );
        // Pinned too: `p1-roofline` measures this point live, so no cached
        // cell would notice a change to its key.
        assert_eq!(
            MachineConfig::a64fx_like().stable_key(),
            "vlen=512;lanes=8;vpu=int;l1=65536/4/64;l2=8388608/16/64;pf=1;\
             cost=1,2,6,1,5,28,3,4,1,1;ghz=2"
        );
        let lanes = MachineConfig { lanes: 4, ..MachineConfig::rvv_decoupled(2048, 1) };
        assert_eq!(
            lanes.stable_key(),
            "vlen=2048;lanes=4;vpu=dec;l1=65536/4/64;l2=1048576/8/64;pf=0;\
             cost=1,2,6,1,5,28,3,4,1,1;ghz=2"
        );
        let configs = [
            MachineConfig::rvv_integrated(1024, 1),
            MachineConfig::rvv_integrated(512, 4),
            MachineConfig::rvv_decoupled(512, 1),
            MachineConfig::a64fx_like(),
            MachineConfig { lanes: 4, ..a },
            MachineConfig { sw_prefetch: true, ..a },
        ];
        for b in configs {
            assert_ne!(a.stable_key(), b.stable_key());
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn default_is_paper_baseline() {
        let c = MachineConfig::default();
        assert_eq!(c.vlen_bits, 512);
        assert_eq!(c.l2.size_bytes, MIB);
        assert_eq!(c.vpu, VpuStyle::Integrated);
        assert!(!c.sw_prefetch);
    }
}
