//! Report parity: every `FleetReport` field, bit for bit, on a fixed set
//! of configurations that covers each code path of the fleet loop — 48-node
//! fleets under every fault kind with each tolerance stack, the four
//! router policies, autoscaling in both directions, and strict deadlines
//! with retries and hedges.
//!
//! Each constant is the 64-bit FNV-1a hash of `format!("{report:?}")`.
//! `{:?}` prints every float in its shortest round-trip form, so a single
//! changed bit in any field changes the hash. An optimisation of the event
//! loop must leave all of them unchanged; a deliberate behaviour change
//! refreshes them and says why.

use lv_fleet::{
    AutoscalePolicy, Bursts, ChipSpec, DegradePolicy, Diurnal, FaultScenario, FaultSpec,
    FaultTolerance, FleetConfig, FleetReport, FleetSim, HedgePolicy, Policy, RetryPolicy,
    ScaleDown, WorkloadSpec, ALL_POLICIES,
};

/// Requests per run.
const REQUESTS: usize = 3_000;
/// Two request classes, offered 60/40 as in the fleet artifacts.
const WEIGHTS: [f64; 2] = [0.6, 0.4];

/// 64-bit FNV-1a (lv-fleet does not depend on lv-sim, which exports one).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn chip(name: &str, vlen: usize, l2_mib: usize, svc: [f64; 2]) -> ChipSpec {
    ChipSpec {
        name: name.into(),
        vlen_bits: vlen,
        l2_mib,
        replicas: 2,
        service_s: svc.to_vec(),
        degraded_service_s: Some(svc.iter().map(|s| s * 0.45).collect()),
    }
}

fn small() -> ChipSpec {
    chip("small", 1024, 2, [0.060, 0.030])
}

fn knee() -> ChipSpec {
    chip("knee", 2048, 2, [0.040, 0.020])
}

fn big() -> ChipSpec {
    chip("big", 4096, 32, [0.025, 0.012])
}

/// `per` chips of each kind, grouped by kind.
fn het(per: usize) -> Vec<ChipSpec> {
    [small(), knee(), big()].iter().flat_map(|c| vec![c.clone(); per]).collect()
}

/// Poisson arrivals at `frac` of the fleet's nominal capacity, shaped by
/// a diurnal curve and bursts (the artifacts' trace shape).
fn workload(chips: &[ChipSpec], frac: f64, seed: u64) -> WorkloadSpec {
    let rate = frac * chips.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum::<f64>();
    let duration = REQUESTS as f64 / rate;
    WorkloadSpec {
        rate_rps: rate,
        requests: REQUESTS,
        class_weights: WEIGHTS.to_vec(),
        diurnal: Some(Diurnal { amplitude: 0.3, period_s: duration / 3.0 }),
        bursts: Some(Bursts {
            factor: 2.0,
            mean_interval_s: duration / 2.0,
            duration_s: duration / 15.0,
        }),
        seed,
    }
}

fn full_stack() -> FaultTolerance {
    FaultTolerance {
        hedge: Some(HedgePolicy::basic()),
        degrade: Some(DegradePolicy::basic()),
        ..FaultTolerance::recovering()
    }
}

/// Every pinned configuration, by name.
fn configs() -> Vec<(String, FleetConfig)> {
    let slo = 0.32;
    let mut out = Vec::new();
    let stacks = [
        ("none", FaultTolerance::none()),
        ("recovering", FaultTolerance::recovering()),
        ("full", full_stack()),
    ];
    for (fleet, chips) in [("hom-knee-48", vec![knee(); 48]), ("het-16+16+16", het(16))] {
        for (stack, tolerance) in stacks {
            let wl = workload(&chips, 0.7, 42);
            let horizon = REQUESTS as f64 / wl.rate_rps;
            out.push((
                format!("{fleet}/all/{stack}"),
                FleetConfig {
                    admission_control: true,
                    faults: Some(FaultSpec::scenario(FaultScenario::All, 7_042, horizon)),
                    tolerance,
                    ..FleetConfig::basic(chips.clone(), Policy::ModelAffinity, wl, slo)
                },
            ));
        }
    }
    let six = het(2);
    for policy in ALL_POLICIES {
        out.push((
            format!("het-2+2+2/{}", policy.name()),
            FleetConfig {
                admission_control: true,
                ..FleetConfig::basic(six.clone(), policy, workload(&six, 0.95, 7), slo)
            },
        ));
    }
    out.push((
        "het-2+2+2/autoscale".into(),
        FleetConfig {
            admission_control: true,
            autoscale: Some(AutoscalePolicy {
                breach_depth: 6,
                sustain_s: 0.4,
                max_replicas: 4,
                cooldown_s: 0.8,
                scale_down: Some(ScaleDown { idle_depth: 0, sustain_s: 1.0, min_replicas: 1 }),
            }),
            ..FleetConfig::basic(six.clone(), Policy::ModelAffinity, workload(&six, 1.1, 11), slo)
        },
    ));
    let wl = workload(&six, 0.8, 23);
    let horizon = REQUESTS as f64 / wl.rate_rps;
    out.push((
        "het-2+2+2/strict-retry-hedge".into(),
        FleetConfig {
            faults: Some(FaultSpec::scenario(FaultScenario::All, 5, horizon)),
            tolerance: FaultTolerance {
                retry: Some(RetryPolicy::basic()),
                hedge: Some(HedgePolicy { min_delay_s: 0.04, quantile: 0.95, min_samples: 50 }),
                ..FaultTolerance::recovering()
            },
            deadline_s: Some(0.25),
            strict_deadline: true,
            ..FleetConfig::basic(six, Policy::JoinShortestQueue, wl, slo)
        },
    ));
    out
}

/// The pinned hashes. A change to any of them is a change to what the
/// simulator reports: refresh them only for a deliberate behaviour change.
const GOLDEN: [(&str, u64); 12] = [
    ("hom-knee-48/all/none", 0xa81e_0e41_cecc_26c9),
    ("hom-knee-48/all/recovering", 0xdc9b_7e01_9280_7022),
    ("hom-knee-48/all/full", 0x46c4_32b8_e8e6_35ad),
    ("het-16+16+16/all/none", 0x8733_f605_b927_11c0),
    ("het-16+16+16/all/recovering", 0x2447_57c1_6329_d4b1),
    ("het-16+16+16/all/full", 0xa08d_7c33_e3e2_3552),
    ("het-2+2+2/round-robin", 0xc46e_5f2e_52b7_8bae),
    ("het-2+2+2/jsq", 0x9737_c6b8_c9c7_2dcf),
    ("het-2+2+2/p2c", 0xef9e_5ce0_948f_e738),
    ("het-2+2+2/affinity", 0x3190_8a74_f670_4a55),
    ("het-2+2+2/autoscale", 0x6b6d_4ad5_5713_fc71),
    ("het-2+2+2/strict-retry-hedge", 0xb7b6_8a13_db79_39c7),
];

fn run(cfg: FleetConfig) -> FleetReport {
    FleetSim::new(cfg).expect("valid config").run()
}

#[test]
fn every_report_matches_its_pinned_hash() {
    let configs = configs();
    assert_eq!(configs.len(), GOLDEN.len());
    let mut diffs = Vec::new();
    for ((name, cfg), (want_name, want)) in configs.into_iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "config order");
        let r = run(cfg);
        assert_eq!(r.completed as u64 + r.drops.total(), r.requests as u64, "{name}: conservation");
        let got = fnv1a(format!("{r:?}").as_bytes());
        if got != want {
            diffs.push(format!("    (\"{name}\", {got:#018x}),"));
        }
    }
    assert!(diffs.is_empty(), "reports differ from the pinned hashes:\n{}", diffs.join("\n"));
}

/// The pinned set exercises what it claims to: faults, every tolerance
/// mechanism, admission drops and scaling in both directions.
#[test]
fn pinned_configs_exercise_every_mechanism() {
    let reports: Vec<(String, FleetReport)> =
        configs().into_iter().map(|(name, cfg)| (name, run(cfg))).collect();
    let get = |name: &str| &reports.iter().find(|(n, _)| n == name).expect("pinned config").1;
    let full = get("hom-knee-48/all/full");
    assert!(full.resilience.hedges > 0 && full.resilience.retries > 0);
    assert!(full.resilience.ejections > 0 && full.resilience.degraded > 0);
    assert!(get("het-16+16+16/all/none").drops.failed > 0);
    assert!(reports.iter().any(|(_, r)| r.drops.admission > 0));
    let scale = &get("het-2+2+2/autoscale").scale_events;
    assert!(scale.iter().any(|e| e.to > e.from) && scale.iter().any(|e| e.to < e.from));
    let strict = get("het-2+2+2/strict-retry-hedge");
    assert!(strict.resilience.hedges > 0 && strict.drops.deadline > 0);
    assert!(strict.latency.max_s <= 0.25 + 1e-9);
}
