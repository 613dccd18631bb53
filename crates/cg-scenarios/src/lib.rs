//! **cg-scenarios** — the adversarial cookie-interaction catalog.
//!
//! The generator (`cg-webgen`) reproduces the paper's *population*:
//! thousands of sites whose tracker stacks follow calibrated
//! distributions. This crate poses the *individual adversarial
//! interactions* those distributions only occasionally produce — nine
//! named scenarios (CNAME cloaking, overwrite/delete contention, a
//! cookie-sync chain, subdomain ghost-writing, a consent-gated setter,
//! first-party impersonation, a whitelist-boundary SSO flow, a
//! respawning tracker, and a mixed-burst stress page), each a
//! hand-posed [`cg_webgen::SiteBlueprint`] plus an expectation list
//! stating which operations the guard must allow, block, or scope and
//! what the vanilla run must show.
//!
//! Layering: sits beside `cg-breakage`/`cg-baselines` in the analysis
//! tier. It consumes `cg-webgen` (via [`cg_webgen::SiteBuilder`]),
//! `cg-script` behaviours, `cg-browser` visits, and
//! `cg_breakage::probe_regressions`; `cg-experiments` exposes it as the
//! `scenarios` subcommand.
//!
//! Invariants:
//!
//! * **Registry-backed fixtures** — every vendor a scenario poses is
//!   resolved from [`cg_webgen::VendorRegistry`]
//!   ([`fixtures::Fixtures`]); catalog construction panics on drift.
//! * **Determinism** — [`matrix::run_matrix`] produces byte-identical
//!   JSON for a given seed at any thread count (CI diffs it against
//!   `golden/scenario_matrix.json`).
//!
//! Entry points: [`catalog()`] for the scenarios, [`run_matrix`] /
//! [`render_table`] for the defense matrix, or
//! `cg-experiments scenarios` from the command line.

pub mod catalog;
pub mod fixtures;
pub mod matrix;
pub mod scenario;

pub use catalog::catalog;
pub use fixtures::Fixtures;
pub use matrix::{
    render_table, run_matrix, ConditionCell, ScenarioMatrix, ScenarioRow, CONDITIONS,
};
pub use scenario::{ConditionKind, Expect, Party, Scenario};
