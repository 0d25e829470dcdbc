//! The corpus differential: the fleet driver over a shared tier against
//! each program analyzed alone.  It guards every change to how facts are
//! keyed, shared or scheduled, so it runs in tier-1.

use std::sync::Arc;
use suif_analysis::SharedFactTier;
use suif_server::{analyze_single, generated_entries, run_corpus, CorpusOptions};

/// A 200-program fixed-seed corpus analyzed by the fleet driver over a
/// shared tier must report the bit-identical deterministic core as each
/// program analyzed alone in a fresh single-tenant store.
#[test]
fn differential_200_programs_match_isolated_analysis() {
    let entries = generated_entries(200, 1000);
    let singles: Vec<String> = entries
        .iter()
        .map(|e| {
            analyze_single(&e.name, &e.source, 0)
                .deterministic_json()
                .to_string()
        })
        .collect();

    let tier = Arc::new(SharedFactTier::new());
    let run = run_corpus(entries, &CorpusOptions::default(), &tier, |_| {});

    assert_eq!(run.summary.programs, 200);
    assert_eq!(run.summary.ok, 200, "fixed-seed corpus is all-ok");
    for (r, single) in run.reports.iter().zip(&singles) {
        assert_eq!(
            &r.deterministic_json().to_string(),
            single,
            "warm-tier corpus report for {} diverged from isolated analysis",
            r.name
        );
    }
    // The corpus exercises both verdicts — a trivially all-parallel (or
    // all-sequential) generator would make the differential vacuous.
    assert!(run.summary.parallel_loops > 0, "no parallel loops found");
    assert!(
        run.summary.loops > run.summary.parallel_loops,
        "no sequential loops found"
    );
    // Cross-program sharing actually happened through the tier.
    let ts = tier.stats();
    assert!(ts.inserts > 0);
    assert!(ts.peak_resident_bytes > 0);
}
