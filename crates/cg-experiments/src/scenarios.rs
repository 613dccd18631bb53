//! The `scenarios` subcommand: drive the adversarial scenario catalog
//! (crate `cg-scenarios`) under vanilla, CookieGuard variants, and the
//! baseline defenses, and render/emit the deterministic matrix.

use crate::render::header;
use cg_scenarios::{render_table, run_matrix, ScenarioMatrix};

/// Options for a scenario-matrix run (a subset of the experiment
/// options: the catalog has no site count — it is the catalog).
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// Master seed for behaviour randomness.
    pub seed: u64,
    /// Worker threads (never changes output bytes).
    pub threads: usize,
    /// Write the canonical JSON rendering here.
    pub json: Option<std::path::PathBuf>,
    /// Compare the JSON byte-for-byte against this golden file and fail
    /// (exit 1) on mismatch — the CI smoke contract.
    pub golden: Option<std::path::PathBuf>,
}

impl Default for ScenarioOptions {
    fn default() -> ScenarioOptions {
        ScenarioOptions {
            seed: 0xC00C1E,
            threads: 4,
            json: None,
            golden: None,
        }
    }
}

/// Runs the catalog and prints the matrix; returns it for JSON capture.
/// When any scenario fails its expectation list, the JSON cannot be
/// written, or a golden path is given and the fresh matrix differs, the
/// error message is returned so the CLI can print it and exit non-zero.
pub fn run_scenarios(opts: &ScenarioOptions) -> Result<ScenarioMatrix, String> {
    let matrix = run_matrix(opts.seed, opts.threads);
    header("Adversarial scenario catalog — defense matrix");
    print!("{}", render_table(&matrix));
    println!(
        "\n  {}/{} scenarios passed their expectation lists",
        matrix.passing(),
        matrix.rows.len()
    );

    let json = matrix.to_json();
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, &json) {
            return Err(format!("failed to write {}: {e}", path.display()));
        }
        println!("  matrix JSON written to {}", path.display());
    }
    if let Some(path) = &opts.golden {
        match std::fs::read_to_string(path) {
            Ok(golden) if golden == json => {
                println!("  matrix matches golden file {}", path.display());
            }
            Ok(_) => {
                return Err(format!(
                    "scenario matrix DIFFERS from golden file {} — \
                     regenerate it if the change is intended \
                     (cg-experiments scenarios --json {})",
                    path.display(),
                    path.display()
                ));
            }
            Err(e) => {
                return Err(format!("cannot read golden file {}: {e}", path.display()));
            }
        }
    }
    if matrix.passing() < matrix.rows.len() {
        return Err(format!(
            "{} of {} scenarios failed their expectation lists",
            matrix.rows.len() - matrix.passing(),
            matrix.rows.len()
        ));
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_run_and_pass() {
        let m = run_scenarios(&ScenarioOptions {
            threads: 2,
            ..ScenarioOptions::default()
        })
        .expect("no golden comparison requested");
        assert!(m.rows.len() >= 8);
        assert_eq!(m.passing(), m.rows.len());
    }

    #[test]
    fn golden_mismatch_is_an_error() {
        let dir = std::env::temp_dir().join("cg-scenarios-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.json");
        std::fs::write(&path, "not the matrix").unwrap();
        let r = run_scenarios(&ScenarioOptions {
            threads: 2,
            golden: Some(path),
            ..ScenarioOptions::default()
        });
        assert!(r.is_err());
    }
}
