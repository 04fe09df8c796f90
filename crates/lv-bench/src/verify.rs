//! `repro verify` — an executable version of `EXPERIMENTS.md`: recompute
//! every headline claim from the cached grids and report PASS / WARN per
//! claim. PASS means the qualitative shape holds within the stated band;
//! WARN means the direction holds but the magnitude drifted; FAIL means the
//! relationship is absent.

use lv_conv::{Algo, ALL_ALGOS};

use crate::error::BenchError;
use crate::grid::{find, rows_total, stack_cycles, table1_layers, P2_L2S, P2_VLENS};
use crate::plan::{self, Executor};
use crate::selector::{evaluate_selector, tuned_params};
use crate::trace::TraceCtx;

/// Outcome of one claim check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shape and magnitude within band.
    Pass,
    /// Direction holds, magnitude out of band.
    Warn,
    /// Relationship absent.
    Fail,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "PASS",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        })
    }
}

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier ("fig1.winograd-midlayers").
    pub id: &'static str,
    /// Human description with measured numbers filled in.
    pub detail: String,
    /// Verdict.
    pub verdict: Verdict,
}

fn band(value: f64, pass: (f64, f64), direction_ok: bool) -> Verdict {
    if value >= pass.0 && value <= pass.1 {
        Verdict::Pass
    } else if direction_ok {
        Verdict::Warn
    } else {
        Verdict::Fail
    }
}

/// Run every claim check against the Paper II grid (and the Paper I sweep
/// when the cell cache already covers it). Returns the claim list; the
/// caller renders it.
pub fn verify(scale: f64, exec: &Executor, ctx: &TraceCtx) -> Result<Vec<Claim>, BenchError> {
    let rows = exec.run(&plan::paper2_plan(scale), ctx)?.rows;
    let mut claims = Vec::new();

    // ---- Fig 1/2: per-layer winners at the 512b/1MB baseline.
    {
        let winner = |model: &str, layer: usize| -> Option<Algo> {
            ALL_ALGOS
                .iter()
                .filter_map(|&a| find(&rows, model, layer, 512, 1, a).map(|r| (a, r.cycles)))
                .min_by_key(|&(_, c)| c)
                .map(|(a, _)| a)
        };
        let yolo_l1 = winner("yolov3-20", 1);
        claims.push(Claim {
            id: "fig2.direct-wins-layer1",
            detail: format!("YOLOv3 layer 1 winner = {:?} (paper: Direct)", yolo_l1),
            verdict: if yolo_l1 == Some(Algo::Direct) { Verdict::Pass } else { Verdict::Fail },
        });
        let vgg_l2 = winner("vgg16", 2);
        claims.push(Claim {
            id: "fig1.winograd-wins-layer2",
            detail: format!("VGG-16 layer 2 winner = {:?} (paper: Winograd)", vgg_l2),
            verdict: if vgg_l2 == Some(Algo::Winograd) { Verdict::Pass } else { Verdict::Fail },
        });
        let skinny_gemm6 = (11..=13).filter(|&l| winner("vgg16", l) == Some(Algo::Gemm6)).count();
        claims.push(Claim {
            id: "fig1.gemm6-wins-skinny",
            detail: format!(
                "6-loop GEMM wins {skinny_gemm6}/3 of VGG L11-13 (paper: all skinny layers)"
            ),
            verdict: if skinny_gemm6 == 3 {
                Verdict::Pass
            } else if skinny_gemm6 > 0 {
                Verdict::Warn
            } else {
                Verdict::Fail
            },
        });
    }

    // ---- Fig 3/4: VL scalability ranking (paper: Direct most, Winograd least).
    {
        let scaling = |algo: Algo| -> f64 {
            let mut best: f64 = 0.0;
            for (m, l, _) in table1_layers(1.0) {
                if let (Some(a), Some(b)) =
                    (find(&rows, &m, l, 512, 1, algo), find(&rows, &m, l, 4096, 1, algo))
                {
                    best = best.max(a.cycles as f64 / b.cycles as f64);
                }
            }
            best
        };
        let d = scaling(Algo::Direct);
        let w = scaling(Algo::Winograd);
        claims.push(Claim {
            id: "fig3.winograd-saturates",
            detail: format!("max Winograd 512->4096b speedup {w:.2}x (paper: <=1.7x, tile-capped)"),
            verdict: band(w, (1.0, 2.0), w < d),
        });
        claims.push(Claim {
            id: "fig3.direct-out-scales-winograd",
            detail: format!(
                "max Direct speedup {d:.2}x > Winograd {w:.2}x (paper: Direct scales most)"
            ),
            verdict: if d > w { Verdict::Pass } else { Verdict::Fail },
        });
    }

    // ---- Fig 5-8: cache sensitivity ordering.
    {
        let gain = |model: &str, layer: usize, algo: Algo, vlen: usize| -> Option<f64> {
            let a = find(&rows, model, layer, vlen, 1, algo)?;
            let b = find(&rows, model, layer, vlen, 64, algo)?;
            Some(a.cycles as f64 / b.cycles as f64)
        };
        let direct = gain("vgg16", 8, Algo::Direct, 4096).unwrap_or(0.0);
        let wino = gain("vgg16", 8, Algo::Winograd, 4096).unwrap_or(0.0);
        let gemm6 = gain("vgg16", 8, Algo::Gemm6, 4096).unwrap_or(0.0);
        claims.push(Claim {
            id: "fig6.direct-most-cache-sensitive",
            detail: format!(
                "VGG L8 @4096b 1->64MB: Direct {direct:.2}x vs Winograd {wino:.2}x vs 6-loop {gemm6:.2}x"
            ),
            verdict: if direct > wino && direct > gemm6 { Verdict::Pass } else { Verdict::Fail },
        });
        let thrash = find(&rows, "vgg16", 8, 4096, 1, Algo::Gemm3).map(|r| r.l2_miss_rate);
        claims.push(Claim {
            id: "fig3.gemm3-4096b-thrash",
            detail: format!(
                "3-loop GEMM L2 miss at 4096b/1MB = {:.0}% (paper: ~98%)",
                100.0 * thrash.unwrap_or(0.0)
            ),
            verdict: band(thrash.unwrap_or(0.0), (0.5, 1.0), thrash.unwrap_or(0.0) > 0.3),
        });
    }

    // ---- Selector.
    {
        let eval = evaluate_selector(&rows, tuned_params());
        let acc = 100.0 * eval.cv.mean_accuracy;
        claims.push(Claim {
            id: "selector.cv-accuracy",
            detail: format!("5-fold CV accuracy {acc:.1}% (paper: 92.8%)"),
            verdict: band(acc, (88.0, 98.0), acc > 75.0),
        });
        claims.push(Claim {
            id: "selector.mispredict-cost",
            detail: format!("misprediction MAPE {:.1}% (paper: 20.4%)", eval.mispredict_mape),
            verdict: band(eval.mispredict_mape, (2.0, 30.0), true),
        });
    }

    // ---- Fig 9/10: per-layer selection beats uniform policies.
    {
        for (model, id) in [("vgg16", "fig9.selection-pays"), ("yolov3-20", "fig10.selection-pays")]
        {
            let mut max_gain: f64 = 0.0;
            for &vlen in &P2_VLENS {
                for &l2 in &P2_L2S {
                    let opt = stack_cycles(&rows, model, vlen, l2, None) as f64;
                    for a in ALL_ALGOS {
                        let uni = stack_cycles(&rows, model, vlen, l2, Some(a)) as f64;
                        if uni > 0.0 && opt > 0.0 {
                            max_gain = max_gain.max(uni / opt);
                        }
                    }
                }
            }
            claims.push(Claim {
                id,
                detail: format!(
                    "{model}: optimal selection up to {max_gain:.2}x over a uniform policy (paper: up to ~2x)"
                ),
                verdict: band(max_gain, (1.3, 3.0), max_gain > 1.05),
            });
        }
    }

    // ---- Fig 11: frontier structure.
    {
        use lv_area::{chip_area_mm2, pareto_frontier, DesignPoint};
        let mut pts = Vec::new();
        for &vlen in &P2_VLENS {
            for &l2 in &P2_L2S {
                for (pol, name) in [
                    (None, "Optimal"),
                    (Some(Algo::Direct), "Direct"),
                    (Some(Algo::Gemm6), "Gemm6"),
                ] {
                    pts.push(DesignPoint {
                        label: format!("{vlen}|{l2}|{name}"),
                        area: chip_area_mm2(1, vlen, l2),
                        cost: stack_cycles(&rows, "vgg16", vlen, l2, pol) as f64,
                    });
                }
            }
        }
        let frontier = pareto_frontier(&pts);
        let all_optimal = frontier.iter().all(|&i| pts[i].label.ends_with("Optimal"));
        claims.push(Claim {
            id: "fig11.frontier-uses-selection",
            detail: format!(
                "{}/{} frontier points use per-layer selection (paper: all)",
                frontier.iter().filter(|&&i| pts[i].label.ends_with("Optimal")).count(),
                frontier.len()
            ),
            verdict: if all_optimal { Verdict::Pass } else { Verdict::Warn },
        });
    }

    // ---- Roofline sanity: derived DRAM bandwidth utilisation (demand +
    // prefetch lines against the 12.8 GB/s channel) is a fraction of peak,
    // and the low-AI first layer is more bandwidth-hungry than a deep
    // high-AI layer. Measured live: the grid does not store prefetch lines.
    {
        use lv_models::measure_layer;
        use lv_sim::MachineConfig;
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let util = |model: &str, layer: usize| -> Option<f64> {
            let s = table1_layers(scale)
                .into_iter()
                .find(|(m, l, _)| m == model && *l == layer)
                .map(|(_, _, s)| s)?;
            let meas = measure_layer(&cfg, &s, Algo::Gemm6)?;
            Some(meas.stats.dram_bytes_per_cycle() / cfg.peak_dram_bytes_per_cycle())
        };
        if let (Some(early), Some(deep)) = (util("vgg16", 1), util("vgg16", 10)) {
            claims.push(Claim {
                id: "roofline.bw-util-sane",
                detail: format!(
                    "DRAM BW utilisation: VGG L1 {:.0}%, L10 {:.0}% of the 6.4 B/cycle peak",
                    100.0 * early,
                    100.0 * deep
                ),
                verdict: if early > 0.0 && early <= 1.0 && deep > 0.0 && deep <= 1.0 {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                },
            });
            claims.push(Claim {
                id: "roofline.low-ai-more-bw-bound",
                detail: format!(
                    "low-AI L1 uses {:.2}x the bandwidth fraction of high-AI L10",
                    early / deep
                ),
                verdict: if early > deep { Verdict::Pass } else { Verdict::Warn },
            });
        }
    }

    // ---- Paper I (only when the cell cache already covers its sweep —
    // the executor's coverage probe is the cache-era version of "the
    // p1grid CSV exists": verify never pays for the long-VL sweep itself).
    let p1_plan = plan::p1_dec_plan(scale);
    let p1_covered = {
        let (cached, total) = exec.coverage(&p1_plan);
        total > 0 && cached == total
    };
    if p1_covered {
        let p1 = exec.run(&p1_plan, ctx)?.rows;
        let total =
            |vlen: usize, l2: usize| rows_total(&p1, "yolov3-20/dec", vlen, l2).unwrap_or(0);
        let g8 = total(8192, 256) as f64;
        let g16 = total(16384, 256) as f64;
        if g8 > 0.0 && g16 > 0.0 {
            let gain = 100.0 * (g8 / g16 - 1.0);
            claims.push(Claim {
                id: "p1.16384b-marginal-at-256mb",
                detail: format!("8192->16384b gain at 256MB = {gain:.1}% (paper: ~5%)"),
                verdict: band(gain, (0.0, 15.0), gain.abs() < 30.0),
            });
        }
        let base = total(512, 1) as f64;
        let best = P2_VLENS
            .iter()
            .chain([8192usize, 16384].iter())
            .flat_map(|&v| [1usize, 16, 64, 256].iter().map(move |&l| total(v, l)))
            .filter(|&c| c > 0)
            .min()
            .unwrap_or(1) as f64;
        let overall = base / best;
        claims.push(Claim {
            id: "p1.codesign-headline",
            detail: format!(
                "best long-VL/large-L2 config vs 512b/1MB = {overall:.1}x (paper: ~5x)"
            ),
            verdict: band(overall, (2.0, 8.0), overall > 1.5),
        });
    }

    Ok(claims)
}

/// Render claims as a report string.
pub fn render(claims: &[Claim]) -> String {
    let mut out = String::from("verify: executable paper-claims check\n\n");
    for c in claims {
        out.push_str(&format!("  [{}] {:32} {}\n", c.verdict, c.id, c.detail));
    }
    let pass = claims.iter().filter(|c| c.verdict == Verdict::Pass).count();
    let warn = claims.iter().filter(|c| c.verdict == Verdict::Warn).count();
    let fail = claims.iter().filter(|c| c.verdict == Verdict::Fail).count();
    out.push_str(&format!("\n{pass} PASS, {warn} WARN, {fail} FAIL of {} claims\n", claims.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_bands() {
        assert_eq!(band(5.0, (1.0, 10.0), true), Verdict::Pass);
        assert_eq!(band(15.0, (1.0, 10.0), true), Verdict::Warn);
        assert_eq!(band(15.0, (1.0, 10.0), false), Verdict::Fail);
    }

    #[test]
    fn render_counts() {
        let claims = vec![
            Claim { id: "a", detail: "x".into(), verdict: Verdict::Pass },
            Claim { id: "b", detail: "y".into(), verdict: Verdict::Warn },
        ];
        let r = render(&claims);
        assert!(r.contains("1 PASS, 1 WARN, 0 FAIL"));
    }
}
