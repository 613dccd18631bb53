//! The §5 measurement experiments (single regular crawl).

use crate::context::CrawlContext;
use crate::expectations as exp;
use crate::render::{compare, compare_count, header, measured, ranked_rows};
use cg_analysis::Tables;
use serde::Serialize;

/// Machine-readable results of the measurement experiments.
#[derive(Debug, Serialize)]
pub struct MeasurementResults {
    /// §5.1.
    pub prevalence: cg_analysis::prevalence::PrevalenceStats,
    /// §5.2.
    pub api_usage: cg_analysis::prevalence::ApiUsageStats,
    /// Table 1.
    pub table1: cg_analysis::CrossDomainSummary,
    /// Table 2 rows.
    pub table2: Vec<cg_analysis::exfiltration::Table2Row>,
    /// Fig. 2 rows (domain, unique cookies, share %).
    pub fig2: Vec<(String, usize, f64)>,
    /// §5.5 attribute changes.
    pub attr_changes: cg_analysis::manipulation::AttrChangeShares,
    /// Table 5 overwrites.
    pub table5_overwrites: Vec<cg_analysis::manipulation::Table5Row>,
    /// Table 5 deletes.
    pub table5_deletes: Vec<cg_analysis::manipulation::Table5Row>,
    /// Fig. 8a rows.
    pub fig8_overwriters: Vec<(String, usize, f64)>,
    /// Fig. 8b rows.
    pub fig8_deleters: Vec<(String, usize, f64)>,
    /// §5.6.
    pub inclusion: cg_analysis::prevalence::InclusionStats,
    /// §8 DOM pilot.
    pub dom_pilot: cg_analysis::dom_pilot::DomPilotStats,
    /// §5.5 intent classification.
    pub intents: cg_analysis::IntentReport,
    /// Crawl completion.
    pub crawled: usize,
    /// Complete visits.
    pub complete: usize,
}

/// Runs every §5 experiment over one crawl context and prints the
/// paper-vs-measured report for the requested experiment names.
pub fn run_measurement_experiments(ctx: CrawlContext, which: &[&str]) -> MeasurementResults {
    let Tables {
        stream,
        prevalence,
        api_usage: usage,
        inclusion,
        dom_pilot: dom,
        table1: t1,
        exfil,
        manip,
        intents,
    } = ctx.tables;
    let crawled = stream.crawled as usize;
    let complete = stream.complete as usize;
    let total_doc_pairs = t1.doc_pairs_total;
    let table2 = exfil.table2(20);
    let fig2 = exfil.cross.top_domains(20, total_doc_pairs);
    let table5_ow = manip.table5(false, 10);
    let table5_del = manip.table5(true, 10);
    let fig8_ow = manip.overwrites.top_domains(20, total_doc_pairs);
    let fig8_del = manip.deletes.top_domains(20, total_doc_pairs);
    let attr_changes = manip.attr_changes();

    let wants = |name: &str| which.contains(&"all") || which.contains(&name);

    if wants("crawl") || wants("sec5_1") {
        header("§4.2 Data collection");
        compare_count("sites crawled", exp::CRAWL_TOTAL, crawled);
        compare_count("complete (analyzable) sites", exp::CRAWL_COMPLETE, complete);
    }

    if wants("sec5_1") {
        header("§5.1 Prevalence of third-party scripts");
        compare(
            "sites with ≥1 third-party script",
            exp::SITES_WITH_3P_PCT,
            prevalence.sites_with_third_party_pct,
            "%",
        );
        compare(
            "avg distinct 3p scripts / site",
            exp::AVG_3P_SCRIPTS,
            prevalence.avg_third_party_scripts,
            "",
        );
        compare(
            "ad/tracking share of 3p scripts",
            exp::AD_TRACKING_SHARE_PCT,
            prevalence.ad_tracking_share_pct,
            "%",
        );
        compare(
            "avg cookies set by 3p scripts / site",
            exp::AVG_COOKIES_3P,
            prevalence.avg_cookies_third_party,
            "",
        );
        compare(
            "avg cookies set by 1p scripts / site",
            exp::AVG_COOKIES_1P,
            prevalence.avg_cookies_first_party,
            "",
        );
    }

    if wants("sec5_2") {
        header("§5.2 Cookie API usage");
        compare(
            "document.cookie invoked on sites",
            exp::DOC_COOKIE_SITES_PCT,
            usage.doc_cookie_sites_pct,
            "%",
        );
        compare_count(
            "unique document.cookie pairs",
            exp::DOC_COOKIE_PAIRS,
            usage.doc_cookie_pairs,
        );
        measured(
            "distinct setter scripts",
            usage.doc_cookie_setter_scripts as f64,
            "",
        );
        measured(
            "distinct setter domains",
            usage.doc_cookie_setter_domains as f64,
            "",
        );
        compare(
            "cookieStore used on sites",
            exp::COOKIE_STORE_SITES_PCT,
            usage.cookie_store_sites_pct,
            "%",
        );
        compare_count(
            "unique cookieStore pairs",
            exp::COOKIE_STORE_PAIRS,
            usage.cookie_store_pairs,
        );
        measured(
            "distinct cookieStore names",
            usage.cookie_store_names as f64,
            "",
        );
        compare(
            "top-2 cookieStore names share",
            exp::COOKIE_STORE_TOP2_PCT,
            usage.cookie_store_top2_share_pct,
            "%",
        );
    }

    if wants("table1") {
        header("Table 1: cross-domain cookie actions");
        println!("  document.cookie:");
        for (action, (sites, cookies), pairs, row) in [
            (
                "exfiltration",
                exp::T1_DOC_EXFIL,
                4_825,
                &t1.doc_exfiltration,
            ),
            (
                "overwriting",
                exp::T1_DOC_OVERWRITE,
                2_212,
                &t1.doc_overwriting,
            ),
            ("deleting", exp::T1_DOC_DELETE, 1_475, &t1.doc_deleting),
        ] {
            compare(
                &format!("    {action} — % of websites"),
                sites,
                row.sites_pct,
                "%",
            );
            compare(
                &format!("    {action} — % of cookies"),
                cookies,
                row.cookies_pct,
                "%",
            );
            compare_count(
                &format!("    {action} — affected pairs"),
                pairs,
                row.cookies_count,
            );
        }
        println!("  cookieStore:");
        let (sites, cookies) = exp::T1_STORE_EXFIL;
        let exfil = &t1.store_exfiltration;
        compare(
            "    exfiltration — % of websites",
            sites,
            exfil.sites_pct,
            "%",
        );
        compare(
            "    exfiltration — % of cookies",
            cookies,
            exfil.cookies_pct,
            "%",
        );
        let (overwriting, deleting) = (&t1.store_overwriting, &t1.store_deleting);
        compare(
            "    overwriting — % of websites",
            0.0,
            overwriting.sites_pct,
            "%",
        );
        compare("    deleting — % of websites", 0.0, deleting.sites_pct, "%");
    }

    if wants("table2") {
        header("Table 2: top 20 cross-domain exfiltrated cookies");
        println!(
            "  {:<26} {:<24} {:>8} {:>8}   top exfiltrators → top destinations",
            "cookie", "owner", "#exfil", "#dest"
        );
        for row in &table2 {
            println!(
                "  {:<26} {:<24} {:>8} {:>8}   {} → {}{}",
                truncate(&row.cookie, 26),
                truncate(&row.owner, 24),
                row.exfiltrator_entities,
                row.destination_entities,
                row.top_exfiltrators.join(", "),
                row.top_destinations.join(", "),
                if row.consent_signal {
                    "   [consent signal]"
                } else {
                    ""
                }
            );
        }
    }

    if wants("fig2") {
        header("Figure 2: top 20 exfiltrator script domains");
        ranked_rows(&fig2);
    }

    if wants("sec5_5") {
        header("§5.5 Overwrite attribute changes");
        let (value, expires, domain, path) = exp::ATTR_CHANGES;
        compare("value changed", value, attr_changes.value_pct, "%");
        compare("expires changed", expires, attr_changes.expires_pct, "%");
        compare("domain changed", domain, attr_changes.domain_pct, "%");
        compare("path changed", path, attr_changes.path_pct, "%");

        header("§5.5 Intention behind manipulations (case-study taxonomy)");
        use cg_analysis::ManipulationIntent;
        for intent in [
            ManipulationIntent::Collision,
            ManipulationIntent::PrivacyCompliance,
            ManipulationIntent::CollusionOrCompetition,
            ManipulationIntent::Unclear,
        ] {
            measured(
                &format!("{intent:?}"),
                intents.count(intent) as f64,
                "events",
            );
        }
        for (name, actors) in intents.collision_hotspots.iter().take(5) {
            println!("    collision hotspot: {name:<20} manipulated by {actors} distinct actors");
        }
    }

    if wants("table5") {
        header("Table 5: most manipulated cookie pairs");
        for (kind, rows) in [("Overwriting", &table5_ow), ("Deleting", &table5_del)] {
            println!("  {kind}:");
            for row in rows {
                println!(
                    "    {:<24} {:<24} {:>4} entities   top: {}",
                    truncate(&row.cookie, 24),
                    truncate(&row.owner, 24),
                    row.manipulator_entities,
                    row.top_manipulators.join(", ")
                );
            }
        }
    }

    if wants("fig8") {
        header("Figure 8a: top cross-domain overwriting domains");
        ranked_rows(&fig8_ow);
        header("Figure 8b: top cross-domain deleting domains");
        ranked_rows(&fig8_del);
    }

    if wants("sec5_6") {
        header("§5.6 Inclusion paths");
        compare(
            "indirect : direct ratio",
            exp::INDIRECT_TO_DIRECT,
            inclusion.indirect_to_direct_ratio,
            "×",
        );
        compare(
            "ad/tracking share of indirect",
            exp::INDIRECT_TRACKING_PCT,
            inclusion.indirect_tracking_pct,
            "%",
        );
        measured("direct third-party inclusions", inclusion.direct as f64, "");
        measured(
            "indirect third-party inclusions",
            inclusion.indirect as f64,
            "",
        );
    }

    if wants("sec8_dom") {
        header("§8 Pilot: cross-domain DOM manipulation");
        compare(
            "sites with cross-domain DOM mutation",
            exp::DOM_PILOT_PCT,
            dom.sites_with_cross_dom_pct,
            "%",
        );
        measured("cross-domain mutation events", dom.events as f64, "");
    }

    MeasurementResults {
        prevalence,
        api_usage: usage,
        table1: t1,
        table2,
        fig2,
        attr_changes,
        table5_overwrites: table5_ow,
        table5_deletes: table5_del,
        fig8_overwriters: fig8_ow,
        fig8_deleters: fig8_del,
        inclusion,
        dom_pilot: dom,
        intents,
        crawled,
        complete,
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentOptions;

    #[test]
    fn small_crawl_end_to_end() {
        let ctx = CrawlContext::collect(&ExperimentOptions {
            sites: 120,
            seed: 3,
            threads: 2,
            ..ExperimentOptions::default()
        });
        let results = run_measurement_experiments(ctx, &[]);
        assert!(results.complete > 60);
        assert!(results.prevalence.sites_with_third_party_pct > 70.0);
        assert!(results.api_usage.doc_cookie_pairs > 100);
        // Cross-domain activity must exist even at small scale.
        assert!(results.table1.doc_exfiltration.sites_pct > 10.0);
        assert!(!results.fig2.is_empty());
    }
}
