//! Text and JSON renderings of a [`Recorder`]'s state. The JSON writer is
//! hand-rolled (the crate has no dependencies); it emits only objects,
//! arrays, strings, integers, and bools, all of which serialize exactly.

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
            epoch,
            entries,
            generation,
        } => format!("pool_hotswap     epoch={epoch} entries={entries} generation={generation}"),
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

/// Escapes `s` for inclusion inside a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_event_json(out: &mut String, ev: &Event) {
    out.push_str("{\"kind\":");
    push_json_str(out, ev.kind());
    match ev {
        Event::CompileStarted { function, tier } | Event::TierPromoted { function, tier } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            out.push_str(",\"tier\":");
            push_json_str(out, tier.name());
        }
        Event::PassApplied {
            slot,
            name,
            instrs_removed,
            instrs_added,
            cycles,
        } => {
            let _ = write!(out, ",\"slot\":{slot},\"name\":");
            push_json_str(out, name);
            let _ = write!(
                out,
                ",\"instrs_removed\":{instrs_removed},\"instrs_added\":{instrs_added},\"cycles\":{cycles}"
            );
        }
        Event::ComparatorQuery {
            function,
            cache_hit,
            prefilter_rejects,
            set_merges,
        } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            let _ = write!(
                out,
                ",\"cache_hit\":{cache_hit},\"prefilter_rejects\":{prefilter_rejects},\"set_merges\":{set_merges}"
            );
        }
        Event::ExtractorQuery {
            function,
            memo_hit,
            passes_enumerated,
            passes_skipped,
            chains_enumerated,
            chains_skipped,
        } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            let _ = write!(
                out,
                ",\"memo_hit\":{memo_hit},\"passes_enumerated\":{passes_enumerated},\"passes_skipped\":{passes_skipped},\"chains_enumerated\":{chains_enumerated},\"chains_skipped\":{chains_skipped}"
            );
        }
        Event::GuardAnalyzed {
            function,
            matches,
            dangerous,
            cost_cycles,
        } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            let _ = write!(
                out,
                ",\"matches\":{matches},\"dangerous\":{dangerous},\"cost_cycles\":{cost_cycles}"
            );
        }
        Event::PolicyDecision {
            function,
            verdict,
            slots,
        } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            out.push_str(",\"verdict\":");
            push_json_str(out, verdict.name());
            out.push_str(",\"slots\":[");
            for (i, s) in slots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{s}");
            }
            out.push(']');
        }
        Event::ExploitOutcome { clean, status } => {
            let _ = write!(out, ",\"clean\":{clean},\"status\":");
            push_json_str(out, status);
        }
        Event::FuzzSeed {
            seed,
            find,
            script_error,
        } => {
            let _ = write!(
                out,
                ",\"seed\":{seed},\"find\":{find},\"script_error\":{script_error}"
            );
        }
        Event::FuzzCampaignFinished {
            executed,
            finds,
            script_errors,
        } => {
            let _ = write!(
                out,
                ",\"executed\":{executed},\"finds\":{finds},\"script_errors\":{script_errors}"
            );
        }
        Event::PoolSubmitted { depth } | Event::PoolRejected { depth } => {
            let _ = write!(out, ",\"depth\":{depth}");
        }
        Event::PoolServed {
            worker,
            degraded,
            wait_micros,
            run_micros,
        } => {
            let _ = write!(
                out,
                ",\"worker\":{worker},\"degraded\":{degraded},\"wait_micros\":{wait_micros},\"run_micros\":{run_micros}"
            );
        }
        Event::PoolHotSwap {
            epoch,
            entries,
            generation,
        } => {
            let _ = write!(
                out,
                ",\"epoch\":{epoch},\"entries\":{entries},\"generation\":{generation}"
            );
        }
        Event::PoolWorkerRestarted { worker } => {
            let _ = write!(out, ",\"worker\":{worker}");
        }
        Event::PoolReloadFailed { kind } => {
            out.push_str(",\"kind\":");
            push_json_str(out, kind);
        }
        Event::ChaosInjected { site, fault } => {
            out.push_str(",\"site\":");
            push_json_str(out, site);
            out.push_str(",\"fault\":");
            push_json_str(out, fault);
        }
        Event::WatchdogExpired {
            function,
            budget,
            spent,
        } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            let _ = write!(out, ",\"budget\":{budget},\"spent\":{spent}");
        }
        Event::CompileFailed { function, cause } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            out.push_str(",\"cause\":");
            push_json_str(out, cause);
        }
        Event::FunctionQuarantined { function, strikes } => {
            out.push_str(",\"function\":");
            push_json_str(out, function);
            let _ = write!(out, ",\"strikes\":{strikes}");
        }
        Event::BreakerTransition { from, to } => {
            out.push_str(",\"from\":");
            push_json_str(out, from);
            out.push_str(",\"to\":");
            push_json_str(out, to);
        }
        Event::ReloadRetry {
            attempt,
            backoff_micros,
            kind,
        } => {
            let _ = write!(
                out,
                ",\"attempt\":{attempt},\"backoff_micros\":{backoff_micros},\"kind\":"
            );
            push_json_str(out, kind);
        }
        Event::ReloadRecovered { attempts } => {
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        Event::CachePoisonPurged { rebuilds } => {
            let _ = write!(out, ",\"rebuilds\":{rebuilds}");
        }
        Event::ExtractMemoPurged { purges } => {
            let _ = write!(out, ",\"purges\":{purges}");
        }
        Event::TriageRound {
            seed,
            round,
            db_entries,
            neutralized,
        } => {
            let _ = write!(
                out,
                ",\"seed\":{seed},\"round\":{round},\"db_entries\":{db_entries},\"neutralized\":{neutralized}"
            );
        }
    }
    out.push('}');
}

/// Renders the recorder as a single JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...},"slots":[...],"events":{...}}`.
#[must_use]
pub fn export_json(rec: &Recorder) -> String {
    let mut out = String::new();
    let m = rec.metrics();

    out.push_str("{\"counters\":{");
    for (i, (name, v)) in m.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in m.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in m.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            h.count(),
            h.sum(),
            h.min(),
            h.max()
        );
        for (j, (lo, hi, c)) in h.buckets().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}");
        }
        out.push_str("]}");
    }
    out.push_str("},\"slots\":[");
    let mut first = true;
    for (i, s) in rec.slot_stats().iter().enumerate() {
        if s.applications == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{{\"slot\":{i},\"name\":");
        push_json_str(&mut out, s.name);
        let _ = write!(
            out,
            ",\"applications\":{},\"cycles\":{},\"instrs_removed\":{},\"instrs_added\":{}}}",
            s.applications, s.cycles, s.instrs_removed, s.instrs_added
        );
    }
    out.push_str("],\"events\":{");
    let _ = write!(
        out,
        "\"retained\":{},\"dropped\":{},\"items\":[",
        rec.events().len(),
        rec.events().dropped()
    );
    for (i, ev) in rec.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event_json(&mut out, ev);
    }
    out.push_str("]}}");
    out
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
    fn json_export_escapes_and_balances() {
        let json = export_json(&sample_recorder());
        // Quote in the function name is escaped.
        assert!(json.contains("hot\\\"fn"));
        assert!(json.contains("\"verdict\":\"recompile\""));
        assert!(json.contains("\"slots\":[2,5]"));
        // Structurally sound: balanced braces/brackets outside strings.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let rec = Recorder::new();
        assert_eq!(export_text(&rec), "counters:\n");
        assert_eq!(
            export_json(&rec),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"slots\":[],\"events\":{\"retained\":0,\"dropped\":0,\"items\":[]}}"
        );
    }
}
