//! The page-load timing model.
//!
//! The paper's Table 4 / Figures 6–7 and 9–10 are distributional claims
//! about navigation-timing metrics over thousands of heterogeneous
//! pages. Real page-load times are heavy-tailed and multiplicative
//! (§7.3 says exactly this), so the model is log-normal around a
//! workload-driven base:
//!
//! * the base scales with the page's subresource and script counts;
//! * per-visit noise is log-normal with σ ≈ 1.0, giving the observed
//!   mean/median ratios of ~1.6–1.75;
//! * CookieGuard multiplies each metric by a small factor that grows
//!   with the number of intercepted cookie operations — interception is
//!   the mechanism, so its cost follows the op count.
//!
//! Constants were calibrated against Table 4 (the published values are
//! in `crates/cg-experiments/src/expectations.rs`; the shape is checked
//! by `tests/reproduction_shape.rs`).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The three navigation-timing metrics the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PageTiming {
    /// `dom_interactive`: DOM ready for interaction.
    pub dom_interactive_ms: f64,
    /// `dom_content_loaded`: document parsed.
    pub dom_content_loaded_ms: f64,
    /// `load_event_time`: all subresources done.
    pub load_event_ms: f64,
}

/// Log-normal sample: `exp(Normal(mu, sigma))` via Box–Muller.
fn log_normal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * z).exp()
}

/// Simulates one visit's timings.
///
/// * `resource_count`, `script_count` — the page workload;
/// * `cookie_ops` — intercepted cookie operations (0 when no guard);
/// * `guard` — whether CookieGuard is active;
/// * `rng` — per-visit randomness (pairing two calls with different rng
///   states models the paper's paired-but-noisy A/B visits).
pub fn simulate_timing<R: Rng>(
    resource_count: u32,
    script_count: usize,
    cookie_ops: usize,
    guard: bool,
    rng: &mut R,
) -> PageTiming {
    // Workload-driven base for dom_interactive (median-ish).
    let base_di = 490.0 + 2.8 * resource_count as f64 + 11.0 * script_count as f64;
    let noise = log_normal(rng, 0.0, 1.02);
    let mut di = base_di * noise;
    let mut dcl = di * (1.08 + rng.gen::<f64>() * 0.14);
    let mut load = dcl * (1.45 + log_normal(rng, 0.0, 0.42) * 0.65);

    if guard {
        // Interception cost: grows with intercepted ops; log-normal
        // spread models contention between the wrapped getter/setter
        // and page scripts.
        let g = log_normal(rng, 0.0, 0.40) * (1.0 + cookie_ops as f64 / 900.0);
        di *= 1.0 + 0.098 * g;
        dcl *= 1.0 + 0.095 * g;
        load *= 1.0 + 0.118 * g;
        // Rare pathological stalls: the far outliers of Figure 10.
        if rng.gen_bool(0.0015) {
            let stall = rng.gen_range(4.0..50.0);
            load *= stall;
            dcl *= stall * 0.7;
            di *= stall * 0.7;
        }
    }

    PageTiming {
        dom_interactive_ms: di,
        dom_content_loaded_ms: dcl,
        load_event_ms: load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn medians(guard: bool, n: usize) -> PageTiming {
        let mut rng = StdRng::seed_from_u64(99);
        let mut di = Vec::new();
        let mut dcl = Vec::new();
        let mut load = Vec::new();
        for _ in 0..n {
            let t = simulate_timing(160, 20, 120, guard, &mut rng);
            di.push(t.dom_interactive_ms);
            dcl.push(t.dom_content_loaded_ms);
            load.push(t.load_event_ms);
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        PageTiming {
            dom_interactive_ms: med(&mut di),
            dom_content_loaded_ms: med(&mut dcl),
            load_event_ms: med(&mut load),
        }
    }

    #[test]
    fn metric_ordering_holds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let t = simulate_timing(100, 15, 50, false, &mut rng);
            assert!(t.dom_interactive_ms > 0.0);
            assert!(t.dom_content_loaded_ms >= t.dom_interactive_ms);
            assert!(t.load_event_ms >= t.dom_content_loaded_ms);
        }
    }

    #[test]
    fn guard_adds_overhead_in_aggregate() {
        let off = medians(false, 4000);
        let on = medians(true, 4000);
        let ratio = on.load_event_ms / off.load_event_ms;
        assert!(ratio > 1.03 && ratio < 1.35, "load ratio {ratio}");
    }

    #[test]
    fn heavier_pages_are_slower() {
        // Compare medians over many draws (noise is large per-visit).
        let median_of = |res: u32, scripts: usize| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut v: Vec<f64> = (0..3000)
                .map(|_| simulate_timing(res, scripts, 0, false, &mut rng).dom_interactive_ms)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(median_of(300, 40) > median_of(30, 3));
    }

    #[test]
    fn heavy_tail_mean_exceeds_median() {
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..5000)
            .map(|_| simulate_timing(160, 20, 0, false, &mut rng).dom_interactive_ms)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut s = samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = s[s.len() / 2];
        let ratio = mean / median;
        assert!((1.3..2.3).contains(&ratio), "mean/median {ratio}");
    }
}
