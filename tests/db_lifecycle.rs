//! The maintainer-update workflow (§IV-C): DNA is extracted by the
//! maintainer, shipped to users as a compact text update, preloaded at
//! runtime start, and removed when the patch is applied.

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_mir::SlotSet;
use jitbull_vdc::validate::run_script;
use jitbull_vdc::{build_database, vdc};

#[test]
fn dna_update_survives_the_wire_and_still_protects() {
    // Maintainer side: extract and serialize.
    let cve = CveId::Cve2019_17026;
    let poc = vdc(cve);
    let db = build_database(std::slice::from_ref(&poc)).unwrap();
    let update_text = db.to_text();
    assert!(update_text.starts_with("@entry CVE-2019-17026"));
    // The update is compact — kilobytes, not the demonstrator itself
    // (which would hand users a weapon, §IV-C).
    assert!(update_text.len() < 8 * 1024, "{} bytes", update_text.len());
    assert!(
        !update_text.contains("shrink_smash(prey"),
        "the update must not embed the exploit source"
    );

    // User side: parse, preload, protected.
    let user_db = DnaDatabase::from_text(&update_text).unwrap();
    assert_eq!(user_db, db);
    let mut engine = Engine::with_guard(
        EngineConfig {
            vulns: VulnConfig::with([cve]),
            ..Default::default()
        },
        Guard::new(user_db, CompareConfig::default()),
    );
    let outcome = run_script(&poc.source, &mut engine).unwrap();
    assert!(!outcome.is_compromised(), "{outcome:?}");
}

#[test]
fn database_file_workflow() {
    let dir = std::env::temp_dir().join("jitbull-update-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("window.dnadb");

    // Two vulnerabilities are in their windows.
    let vdcs = [vdc(CveId::Cve2019_9810), vdc(CveId::Cve2019_9813)];
    let db = build_database(&vdcs).unwrap();
    db.save_to(&path).unwrap();

    // Next browser start: preload from disk.
    let mut loaded = DnaDatabase::load_from(&path).unwrap();
    assert_eq!(loaded.cves().len(), 2);

    // One patch lands; its entries are dropped and the file rewritten.
    assert!(loaded.remove_cve("CVE-2019-9810") > 0);
    loaded.save_to(&path).unwrap();
    let reloaded = DnaDatabase::load_from(&path).unwrap();
    assert_eq!(reloaded.cves(), vec!["CVE-2019-9813"]);

    std::fs::remove_file(&path).ok();
}

/// One optimizing compilation of `name` in `source`, run against the
/// guard's compile cache the way the engine runs it: keyed before the
/// pipeline, traced only on a DNA miss, then analysed.
fn ion_round(guard: &Guard, source: &str, name: &str, vulns: &VulnConfig) -> jitbull::Analysis {
    use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
    let program = jitbull_frontend::parse_program(source).unwrap();
    let module = jitbull_vm::compile_program(&program).unwrap();
    let input = CompileInput::new(
        module.function(module.function_id(name).unwrap()),
        SlotSet::new(),
        vulns,
    );
    let lookup = guard.lookup(input.key());
    let options = OptimizeOptions {
        trace: lookup.needs_trace(),
        ..Default::default()
    };
    let trace = compile(&input, &options).unwrap().trace;
    guard.analyze_compile(lookup, &trace, None)
}

/// The compile cache must never serve a verdict from a previous database
/// state: install → compile → remove → compile must see the removal
/// immediately, and re-install must see the new entry.
#[test]
fn comparator_cache_never_goes_stale_across_installs_and_removals() {
    let vdcs = [vdc(CveId::Cve2019_9810), vdc(CveId::Cve2019_9813)];
    let db = build_database(&vdcs).unwrap();
    let entry_9810: Vec<_> = db
        .entries()
        .iter()
        .filter(|e| e.cve == "CVE-2019-9810")
        .cloned()
        .collect();
    assert!(!entry_9810.is_empty());
    // Compile one of 9810's own trigger functions on an engine carrying
    // the CVE: its DNA is that entry's (guaranteed self-match at the
    // permissive threshold).
    let vulns = VulnConfig::with([CveId::Cve2019_9810]);
    let trigger = &entry_9810[0].function;
    let cfg = CompareConfig { thr: 1, ratio: 0.5 };
    let mut guard = Guard::new(db, cfg);
    let hits_9810 = |guard: &Guard| {
        ion_round(guard, &vdcs[0].source, trigger, &vulns)
            .matches
            .iter()
            .any(|(cve, _, _)| cve == "CVE-2019-9810")
    };
    // Compile twice so the verdict is definitely cached.
    assert!(hits_9810(&guard));
    assert!(hits_9810(&guard));
    assert_eq!(guard.memo_stats().verdict_hits, 1);

    // Patch lands: remove the CVE. The next compile must not resurrect it.
    let g_before = guard.db().generation();
    assert!(guard.db_mut().remove_cve("CVE-2019-9810") > 0);
    assert!(guard.db().generation() > g_before, "generation must move");
    assert!(!hits_9810(&guard));

    // Re-install the same entries: the cache must pick the entry back up.
    for e in &entry_9810 {
        guard
            .db_mut()
            .install(e.cve.clone(), e.function.clone(), e.dna.clone());
    }
    assert!(hits_9810(&guard));
    // Every repeat compile was served its DNA; only the unchanged
    // database's verdict was served with it.
    let stats = guard.memo_stats();
    assert_eq!((stats.hits, stats.verdict_hits), (3, 1));
}

/// Closing the `db_mut` hazard: a mutation that *bypasses*
/// `install`/`remove_cve` (wholesale replacement through the mutable
/// borrow) must still invalidate cached verdicts. The replacement brings
/// its own generation along with its own content, so no verdict cached
/// under the old generation can match it.
#[test]
fn bypass_mutation_through_db_mut_cannot_leave_stale_verdicts() {
    let poc = vdc(CveId::Cve2019_9810);
    let db = build_database(std::slice::from_ref(&poc)).unwrap();
    let trigger = db.entries()[0].function.clone();
    let vulns = VulnConfig::with([CveId::Cve2019_9810]);
    let cfg = CompareConfig { thr: 1, ratio: 0.5 };
    let mut guard = Guard::new(db, cfg);
    let hits = |guard: &Guard| {
        !ion_round(guard, &poc.source, &trigger, &vulns)
            .matches
            .is_empty()
    };
    // Cache the verdict.
    assert!(hits(&guard));
    assert!(hits(&guard));
    assert_eq!(guard.memo_stats().verdict_hits, 1);

    // Bypass mutation: replace the whole database through the borrow,
    // never calling install/remove_cve. A clone carries the donor's
    // generation, which was drawn for the donor's (empty) content.
    let empty = DnaDatabase::new();
    *guard.db_mut() = empty.clone();
    assert!(
        !hits(&guard),
        "stale verdict served after a bypass replacement"
    );
}

/// Load failures are typed: an unreadable file reports `io`, malformed
/// content reports `parse` with the offending line — the serving pool's
/// reload path routes these to separate telemetry counters.
#[test]
fn load_failures_are_typed() {
    use jitbull::DbError;
    let dir = std::env::temp_dir().join("jitbull-dberr-test");
    std::fs::create_dir_all(&dir).unwrap();

    let missing = dir.join("does-not-exist.dnadb");
    let err = DnaDatabase::load_from(&missing).unwrap_err();
    assert_eq!(err.kind(), "io");

    let corrupt = dir.join("corrupt.dnadb");
    std::fs::write(&corrupt, "@entry CVE-X f\n0 ? bad-sign\n").unwrap();
    let err = DnaDatabase::load_from(&corrupt).unwrap_err();
    assert_eq!(err.kind(), "parse");
    match err {
        DbError::Parse { line, ref msg } => {
            assert_eq!(
                line, 2,
                "entry-body errors are rebased to absolute file lines"
            );
            assert!(msg.contains("bad sign"), "{msg}");
        }
        DbError::Io(_) => panic!("expected a parse error"),
    }
    std::fs::remove_file(&corrupt).ok();
}

/// Database generations are strictly monotonic across a lifecycle and
/// only move on actual content changes.
#[test]
fn database_generation_is_monotonic_over_the_lifecycle() {
    let vdcs = [vdc(CveId::Cve2019_9810), vdc(CveId::Cve2019_9813)];
    let full = build_database(&vdcs).unwrap();
    let mut db = DnaDatabase::new();
    let mut seen = vec![db.generation()];
    for e in full.entries() {
        db.install(e.cve.clone(), e.function.clone(), e.dna.clone());
        seen.push(db.generation());
    }
    assert_eq!(db.remove_cve("CVE-not-installed"), 0);
    assert_eq!(
        db.generation(),
        *seen.last().unwrap(),
        "no-op removal must not bump the generation"
    );
    assert!(db.remove_cve("CVE-2019-9810") > 0);
    seen.push(db.generation());
    assert!(db.remove_cve("CVE-2019-9813") > 0);
    seen.push(db.generation());
    for pair in seen.windows(2) {
        assert!(pair[0] < pair[1], "generations not monotonic: {seen:?}");
    }
    // Round-tripping through the wire format yields a *fresh* database
    // state with its own generation — never one that could collide with a
    // cached verdict from the original.
    let text = full.to_text();
    let back = DnaDatabase::from_text(&text).unwrap();
    assert_eq!(back, full);
    assert_ne!(back.generation(), full.generation());
}

#[test]
fn multiple_windows_protect_simultaneously() {
    // Both 9810 and 9813 are open (the paper's 2019 overlap); one DB
    // protects against both exploits at once.
    let vdcs = [vdc(CveId::Cve2019_9810), vdc(CveId::Cve2019_9813)];
    let db = build_database(&vdcs).unwrap();
    let vulns = VulnConfig::with([CveId::Cve2019_9810, CveId::Cve2019_9813]);
    for poc in &vdcs {
        let mut engine = Engine::with_guard(
            EngineConfig {
                vulns: vulns.clone(),
                ..Default::default()
            },
            Guard::new(db.clone(), CompareConfig::default()),
        );
        let outcome = run_script(&poc.source, &mut engine).unwrap();
        assert!(!outcome.is_compromised(), "{}: {outcome:?}", poc.name);
    }
}
