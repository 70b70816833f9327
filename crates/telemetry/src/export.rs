//! The text rendering of a [`Recorder`]'s state.

use std::fmt::Write as _;

use crate::event::Event;
use crate::Recorder;

/// Renders the recorder as an indented, human-readable report: metrics
/// first (counters, gauges, histograms), then per-slot cycle attribution,
/// then the retained event tail.
#[must_use]
pub fn export_text(rec: &Recorder) -> String {
    let mut out = String::new();
    let m = rec.metrics();

    out.push_str("counters:\n");
    for (name, v) in m.counters() {
        let _ = writeln!(out, "  {name:<32} {v}");
    }
    let mut any_gauge = false;
    for (name, v) in m.gauges() {
        if !any_gauge {
            out.push_str("gauges:\n");
            any_gauge = true;
        }
        let _ = writeln!(out, "  {name:<32} {v}");
    }
    let mut any_hist = false;
    for (name, h) in m.histograms() {
        if !any_hist {
            out.push_str("histograms:\n");
            any_hist = true;
        }
        let _ = writeln!(
            out,
            "  {name:<32} count={} sum={} min={} max={} mean={:.1}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.mean()
        );
        for (lo, hi, c) in h.buckets() {
            let _ = writeln!(out, "    [{lo}, {hi})  {c}");
        }
    }

    let slots = rec.slot_stats();
    if slots.iter().any(|s| s.applications > 0) {
        out.push_str("slots:\n");
        let _ = writeln!(
            out,
            "  {:>4}  {:<24} {:>6} {:>10} {:>8} {:>8}",
            "slot", "pass", "runs", "cycles", "removed", "added"
        );
        for (i, s) in slots.iter().enumerate() {
            if s.applications == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:>4}  {:<24} {:>6} {:>10} {:>8} {:>8}",
                i, s.name, s.applications, s.cycles, s.instrs_removed, s.instrs_added
            );
        }
    }

    let events = rec.events();
    if !events.is_empty() {
        let _ = writeln!(
            out,
            "events ({} retained, {} dropped):",
            events.len(),
            events.dropped()
        );
        for ev in events.iter() {
            let _ = writeln!(out, "  {}", event_line(ev));
        }
    }
    out
}

fn event_line(ev: &Event) -> String {
    match ev {
        Event::CompileStarted { function, tier } => {
            format!("compile_started  fn={function} tier={}", tier.name())
        }
        Event::TierPromoted { function, tier } => {
            format!("tier_promoted    fn={function} tier={}", tier.name())
        }
        Event::PassApplied {
            slot,
            name,
            instrs_removed,
            instrs_added,
            cycles,
        } => format!(
            "pass_applied     slot={slot} pass={name} -{instrs_removed}/+{instrs_added} cycles={cycles}"
        ),
        Event::ComparatorQuery {
            function,
            cache_hit,
            prefilter_rejects,
            set_merges,
        } => format!(
            "comparator_query fn={function} cache_hit={cache_hit} prefilter_rejects={prefilter_rejects} merges={set_merges}"
        ),
        Event::ExtractorQuery {
            function,
            memo_hit,
            passes_enumerated,
            passes_skipped,
            chains_enumerated,
            chains_skipped,
        } => format!(
            "extractor_query  fn={function} memo_hit={memo_hit} passes={passes_enumerated}/{passes_skipped} chains={chains_enumerated}/{chains_skipped}"
        ),
        Event::GuardAnalyzed {
            function,
            matches,
            dangerous,
            cost_cycles,
        } => format!(
            "guard_analyzed   fn={function} matches={matches} dangerous={dangerous} cycles={cost_cycles}"
        ),
        Event::PolicyDecision {
            function,
            verdict,
            slots,
        } => format!(
            "policy_decision  fn={function} verdict={} slots={slots:?}",
            verdict.name()
        ),
        Event::ExploitOutcome { clean, status } => {
            format!("exploit_outcome  clean={clean} status={status}")
        }
        Event::FuzzSeed {
            seed,
            find,
            script_error,
        } => format!("fuzz_seed        seed={seed} find={find} script_error={script_error}"),
        Event::FuzzCampaignFinished {
            executed,
            finds,
            script_errors,
        } => format!(
            "fuzz_campaign    executed={executed} finds={finds} script_errors={script_errors}"
        ),
        Event::PoolSubmitted { depth } => format!("pool_submitted   depth={depth}"),
        Event::PoolRejected { depth } => format!("pool_rejected    depth={depth}"),
        Event::PoolServed {
            worker,
            degraded,
            wait_micros,
            run_micros,
        } => format!(
            "pool_served      worker={worker} degraded={degraded} wait_us={wait_micros} run_us={run_micros}"
        ),
        Event::PoolHotSwap {
            entries,
            generation,
        } => format!("pool_hotswap     entries={entries} generation={generation}"),
        Event::PoolWorkerRestarted { worker } => {
            format!("pool_worker_restarted worker={worker}")
        }
        Event::PoolReloadFailed { kind } => format!("pool_reload_failed kind={kind}"),
        Event::ChaosInjected { site, fault } => {
            format!("chaos_injected   site={site} fault={fault}")
        }
        Event::WatchdogExpired {
            function,
            budget,
            spent,
        } => format!("watchdog_expired fn={function} budget={budget} spent={spent}"),
        Event::CompileFailed { function, cause } => {
            format!("compile_failed   fn={function} cause={cause}")
        }
        Event::FunctionQuarantined { function, strikes } => {
            format!("quarantined      fn={function} strikes={strikes}")
        }
        Event::BreakerTransition { from, to } => {
            format!("breaker          {from} -> {to}")
        }
        Event::ReloadRetry {
            attempt,
            backoff_micros,
            kind,
        } => format!("reload_retry     attempt={attempt} backoff_us={backoff_micros} kind={kind}"),
        Event::ReloadRecovered { attempts } => {
            format!("reload_recovered attempts={attempts}")
        }
        Event::CachePoisonPurged { rebuilds } => {
            format!("cache_poison_purged rebuilds={rebuilds}")
        }
        Event::ExtractMemoPurged { purges } => {
            format!("extract_memo_purged purges={purges}")
        }
        Event::TriageRound {
            seed,
            round,
            db_entries,
            neutralized,
        } => format!(
            "triage_round     seed={seed} round={round} db_entries={db_entries} neutralized={neutralized}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Tier, Verdict};

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::new();
        rec.record(Event::TierPromoted {
            function: "hot\"fn".into(),
            tier: Tier::Ion,
        });
        rec.record(Event::PassApplied {
            slot: 2,
            name: "GVN",
            instrs_removed: 3,
            instrs_added: 0,
            cycles: 44,
        });
        rec.record(Event::PolicyDecision {
            function: "hot\"fn".into(),
            verdict: Verdict::Recompile,
            slots: vec![2, 5],
        });
        rec.metrics_mut().gauge_set("db.entries", 4);
        rec
    }

    #[test]
    fn text_export_lists_sections() {
        let text = export_text(&sample_recorder());
        assert!(text.contains("counters:"));
        assert!(text.contains("engine.promoted.ion"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("db.entries"));
        assert!(text.contains("slots:"));
        assert!(text.contains("GVN"));
        assert!(text.contains("events (3 retained, 0 dropped):"));
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let rec = Recorder::new();
        assert_eq!(export_text(&rec), "counters:\n");
    }
}
